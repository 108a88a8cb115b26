// Command serve runs the online inference serving sweep: open-loop request
// arrivals feed a dynamic batcher that dispatches device batches through
// the DLRM pipeline on each selected retrieval backend, with a per-GPU
// hot-row embedding cache whose size is swept alongside the arrival rate. It
// writes the tail-latency/goodput table to the results directory as aligned
// text and CSV, plus a summary to stdout.
//
// Usage:
//
//	serve [-rate 4000,8000] [-cache 0,0.01,0.05] [-duration 2s] [-gpus 4]
//	      [-backend baseline,pgas-fused] [-arrival poisson] [-dedup] [-seed 0]
//	      [-pipeline 1] [-precision fp32] [-parallel N] [-out results]
//	      [-timeout 0]
//
// -rate, -cache and -backend take comma-separated sweeps; -duration is
// SIMULATED time (the arrival window of each point). -dedup adds the
// batch-level index-deduplication axis: every point runs with dedup off and
// on, and the table grows the dedup/uniq_frac/wire_saved_mb columns.
// Independent points execute concurrently on -parallel workers; the table
// is byte-identical at any parallelism. -timeout bounds host wall-clock
// time.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"pgasemb/internal/cli"
	"pgasemb/internal/experiments"
	"pgasemb/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("serve", stdout, stderr)
	rates := c.Floats("rate", "4000,8000", "comma-separated arrival rates (requests/second)")
	cacheFracs := c.Floats("cache", "0,0.01,0.05", "comma-separated hot-row cache sizes (fraction of device memory)")
	duration := c.Duration("duration", 2*time.Second, "simulated arrival window per sweep point")
	gpus := c.Int("gpus", 4, "GPUs in the serving machine")
	backends := c.Backends("baseline,pgas-fused")
	arrival := c.String("arrival", "poisson", "arrival process: poisson or bursty")
	dedup := c.Bool("dedup", false, "add the batch-level index-deduplication axis (each point runs with dedup off and on)")
	seed := c.Uint64("seed", 0, "arrival-process seed (0 = workload default)")
	pipeline := c.Int("pipeline", 1, "inter-batch pipeline depth (1 = serial dispatch, 2 = overlapped dispatches)")
	prec := c.Precision("wire transport format for embedding rows: fp32, fp16 or int8")
	c.Parallel()
	c.Out("results")
	c.Timeout()
	c.Positive("duration", "gpus", "pipeline")
	arr := serve.Poisson
	c.Check(func() error {
		switch *arrival {
		case "poisson":
		case "bursty":
			arr = serve.Bursty
		default:
			return fmt.Errorf("unknown -arrival %q (want poisson or bursty)", *arrival)
		}
		return nil
	})
	return c.Run(args, func(ctx context.Context) error {
		opts := experiments.ServingOptions{
			Options: experiments.Options{
				GPUs: *gpus, Backends: *backends, Dedup: *dedup, WirePrecision: *prec, Parallel: c.Workers(),
			},
			Rates:          *rates,
			CacheFractions: *cacheFracs,
			Duration:       duration.Seconds(),
			Serve:          serve.Config{Arrival: arr, Seed: *seed},
			PipelineDepth:  *pipeline,
		}
		fmt.Fprintf(stdout, "== Online serving sweep (%d GPUs, %s arrivals, %v simulated per point) ==\n",
			*gpus, arr, *duration)
		res, err := experiments.RunServing(ctx, opts)
		if err != nil {
			return err
		}
		if err := c.Table("serving", res.Table()); err != nil {
			return err
		}
		return nil
	})
}
