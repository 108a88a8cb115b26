// Command placement runs the adaptive-placement sweep: every (backend, Zipf
// exponent, policy) point is an offline retrieval run on a workload with
// graded per-table skew, comparing the static table-wise plan, the analytic
// greedy plan, statistics-driven adaptive rebalancing, and rebalancing plus
// selective hot-table mirroring. It writes the imbalance/speedup table to
// the results directory as aligned text and CSV, plus a summary to stdout.
//
// Usage:
//
//	placement [-policies static,greedy,adaptive,adaptive+mirror]
//	          [-zipf 1.05,1.2] [-gpus 4] [-batches 48] [-every 8] [-hot 2]
//	          [-backend baseline,pgas-fused] [-parallel N] [-out results]
//	          [-timeout 0]
//
// -policies, -zipf and -backend take comma-separated sweeps. -every is the
// adaptive policies' rebalance epoch in batches, -hot the mirror budget of
// adaptive+mirror. Independent points execute concurrently on -parallel
// workers; the table is byte-identical at any parallelism. -timeout bounds
// host wall-clock time.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"pgasemb/internal/cli"
	"pgasemb/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("placement", stdout, stderr)
	policies := c.Names("policies", strings.Join(experiments.PlacementPolicies, ","),
		"comma-separated placement policies", experiments.PlacementPolicies)
	zipf := c.Floats("zipf", "1.05,1.2", "comma-separated Zipf exponents")
	gpus := c.Int("gpus", 4, "GPUs in the machine")
	batches := c.Int("batches", 48, "batches per sweep point")
	every := c.Int("every", 8, "rebalance epoch length in batches")
	hot := c.Int("hot", 2, "mirror budget of the adaptive+mirror policy")
	backends := c.Backends("baseline,pgas-fused")
	c.Parallel()
	c.Out("results")
	c.Timeout()
	c.Positive("gpus", "batches", "every", "hot")
	return c.Run(args, func(ctx context.Context) error {
		opts := experiments.PlacementOptions{
			Options:        experiments.Options{GPUs: *gpus, Batches: *batches, Backends: *backends, Parallel: c.Workers()},
			Policies:       *policies,
			ZipfExponents:  *zipf,
			RebalanceEvery: *every,
			HotTables:      *hot,
		}
		fmt.Fprintf(stdout, "== Placement sweep (%d GPUs, %d batches, rebalance every %d, %d mirrors) ==\n",
			*gpus, *batches, *every, *hot)
		res, err := experiments.RunPlacement(ctx, opts)
		if err != nil {
			return err
		}
		if err := c.Table("placement", res.Table()); err != nil {
			return err
		}
		return nil
	})
}
