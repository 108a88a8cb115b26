// Command dlrminfer runs the full DLRM inference pipeline (dense MLPs +
// interaction around the EMB layer) on the simulated machine and reports
// end-to-end and EMB-segment times for each selected communication scheme —
// the "full inference pipeline" measurement context of the paper's §IV.
//
// Usage:
//
//	dlrminfer [-gpus 4] [-kind weak|strong] [-batches 20] [-dedup] [-seed 0]
//	          [-backend baseline,pgas-fused] [-pipeline 1] [-precision fp32]
//	          [-timeout 0]
//
// -dedup enables batch-level index deduplication on all backends (unique
// rows are shipped once per destination shard and expanded locally).
// -precision picks the wire transport format for embedding rows: fp32
// (uncompressed), fp16, or int8 (per-row absmax scale).
// -backend takes a comma-separated list of registered backend names.
// -pipeline sets the inter-batch software-pipelining depth (1 = serial,
// 2 = double-buffered EMB prefetch overlapping the next batch's exchange
// with the current batch's dense tail).
// A failing backend is skipped, the others still run, and the command
// reports the failure and exits non-zero. -timeout bounds host wall-clock time.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"pgasemb/internal/cli"
	"pgasemb/internal/dlrm"
	"pgasemb/internal/retrieval"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("dlrminfer", stdout, stderr)
	gpus := c.Int("gpus", 4, "GPU count")
	kind := c.String("kind", "weak", "workload: weak or strong scaling configuration")
	batches := c.Int("batches", 20, "inference batches")
	dedup := c.Bool("dedup", false, "enable batch-level index deduplication")
	backends := c.Backends("baseline,pgas-fused")
	seed := c.Uint64("seed", 0, "workload seed (0 = configuration default)")
	pipeline := c.Int("pipeline", 1, "inter-batch pipeline depth (1 = serial, 2 = double buffering)")
	prec := c.Precision("wire transport format for embedding rows: fp32, fp16 or int8")
	c.Timeout()
	c.Positive("gpus", "batches", "pipeline")
	c.Check(func() error {
		if *kind != "weak" && *kind != "strong" {
			return errors.New("-kind must be weak or strong")
		}
		return nil
	})
	return c.Run(args, func(ctx context.Context) error {
		cfg := retrieval.WeakScalingConfig(*gpus)
		if *kind == "strong" {
			cfg = retrieval.StrongScalingConfig(*gpus)
		}
		cfg.Batches = *batches
		cfg.Dedup = *dedup
		cfg.PipelineDepth = *pipeline
		cfg.WirePrecision = *prec
		if *seed != 0 {
			cfg.Seed = *seed
		}

		fmt.Fprintf(stdout, "DLRM inference: %s scaling, %d GPUs, %d tables, batch %d, %d batches, pipeline depth %d, wire %s, seed %d\n\n",
			*kind, *gpus, cfg.TotalTables, cfg.BatchSize, cfg.Batches, cfg.PipelineSlots(), *prec, cfg.Seed)
		fmt.Fprintf(stdout, "%-12s  %-14s  %-14s  %-10s\n", "backend", "total", "EMB segment", "EMB share")
		results := make(map[string]*dlrm.PipelineResult)
		var errs []error
		for _, name := range *backends {
			res, err := runPipeline(ctx, cfg, name)
			if err != nil {
				// Keep going: the other backends' numbers are still worth
				// printing, but the run as a whole must fail.
				errs = append(errs, fmt.Errorf("%s: %w", name, err))
				continue
			}
			results[name] = res
			fmt.Fprintf(stdout, "%-12s  %12.2fms  %12.2fms  %9.1f%%\n",
				name, res.TotalTime*1e3, res.EMBTime*1e3, 100*res.EMBTime/res.TotalTime)
		}
		base, pgas := results["baseline"], results["pgas-fused"]
		if base != nil && pgas != nil {
			fmt.Fprintf(stdout, "\nPGAS fused over baseline: %.2fx end-to-end, %.2fx on the EMB segment\n",
				base.TotalTime/pgas.TotalTime, base.EMBTime/pgas.EMBTime)
		}
		return errors.Join(errs...)
	})
}

func runPipeline(ctx context.Context, cfg retrieval.Config, name string) (*dlrm.PipelineResult, error) {
	backend, err := retrieval.NewBackendByName(name)
	if err != nil {
		return nil, err
	}
	pl, err := dlrm.NewPipeline(cfg, retrieval.DefaultHardware(), backend)
	if err != nil {
		return nil, err
	}
	return pl.RunContext(ctx)
}
