// Command trainstep times full DLRM training steps — EMB forward, dense
// forward/backward with gradient all-reduce, and EMB backward — under every
// combination of collective and PGAS communication, quantifying the paper's
// future-work prediction for backpropagation.
//
// Usage:
//
//	trainstep [-gpus 4] [-batches 10] [-timeout 0]
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"pgasemb/internal/cli"
	"pgasemb/internal/dlrm"
	"pgasemb/internal/retrieval"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("trainstep", stdout, stderr)
	gpus := c.Int("gpus", 4, "GPU count")
	batches := c.Int("batches", 10, "training steps")
	c.Timeout()
	c.Positive("gpus", "batches")
	return c.Run(args, func(ctx context.Context) error {
		cfg := retrieval.WeakScalingConfig(*gpus)
		cfg.Batches = *batches

		combos := []struct {
			name     string
			fwd, bwd retrieval.Backend
		}{
			{"collective fwd + collective bwd", &retrieval.Baseline{}, &retrieval.BackwardBaseline{}},
			{"PGAS fwd + collective bwd", &retrieval.PGASFused{}, &retrieval.BackwardBaseline{}},
			{"collective fwd + PGAS bwd", &retrieval.Baseline{}, &retrieval.BackwardPGAS{}},
			{"PGAS fwd + PGAS bwd", &retrieval.PGASFused{}, &retrieval.BackwardPGAS{}},
		}
		fmt.Fprintf(stdout, "DLRM training steps: %d GPUs, %d tables, batch %d, %d steps\n\n",
			*gpus, cfg.TotalTables, cfg.BatchSize, cfg.Batches)
		fmt.Fprintf(stdout, "%-34s %-12s %-12s %-12s\n", "configuration", "total", "EMB fwd", "EMB bwd")
		var first float64
		for i, combo := range combos {
			tr, err := dlrm.NewTrainer(cfg, retrieval.DefaultHardware(), combo.fwd, combo.bwd)
			if err != nil {
				return err
			}
			res, err := tr.RunContext(ctx)
			if err != nil {
				return err
			}
			if i == 0 {
				first = res.TotalTime
			}
			fmt.Fprintf(stdout, "%-34s %10.2fms %10.2fms %10.2fms  (%.2fx)\n",
				combo.name, res.TotalTime*1e3, res.EMBForward*1e3, res.EMBBackward*1e3, first/res.TotalTime)
		}
		return nil
	})
}
