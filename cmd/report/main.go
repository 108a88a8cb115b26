// Command report reproduces the paper's entire evaluation in one run and
// writes every artifact — Tables 1-2, Figures 5-10, the mechanism
// ablations, and the multi-seed statistics — to a results directory as
// aligned-text and CSV files, plus a summary to stdout and a
// machine-readable bench.json timing record.
//
// Usage:
//
//	report [-out results] [-batches 100] [-seeds 3] [-dedup] [-bench]
//	       [-backend pgas-fused] [-parallel N] [-timeout 0]
//
// -dedup adds the batch-level index-deduplication axis to the scaling
// sweeps (each backend runs with dedup off and on; the tables grow the
// dedup columns). -backend swaps the accelerated column's backend for any
// one registered name (e.g. hybrid); the baseline column always runs for
// comparison. -bench additionally measures the per-batch retrieval hot
// paths with Go benchmarks and records them in bench.json.
//
// Independent simulation runs within each experiment execute concurrently
// on -parallel workers (default GOMAXPROCS); the tables and CSVs are
// byte-identical at any parallelism. -timeout bounds the whole run.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pgasemb/internal/cli"
	"pgasemb/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("report", stdout, stderr)
	out := c.Out("results")
	batches := c.Int("batches", 100, "batches per run (paper: 100)")
	seeds := c.Int("seeds", 3, "workload seeds for the statistics tables (0 = skip)")
	dedup := c.Bool("dedup", false, "add the index-deduplication axis to the scaling sweeps")
	backend := c.Backend("pgas-fused")
	benchHot := c.Bool("bench", false, "measure the per-batch hot paths and record them in bench.json")
	c.Parallel()
	c.Timeout()
	c.Positive("batches")
	c.NonNegative("seeds")
	c.Check(func() error {
		if *out == "" {
			return errors.New("-out must name a directory")
		}
		return nil
	})
	return c.Run(args, func(ctx context.Context) error {
		bench := experiments.NewBench()
		opts := experiments.Options{Batches: *batches, Backends: []string{*backend}, Dedup: *dedup, Parallel: c.Workers(), Bench: bench}

		fmt.Fprintln(stdout, "== Weak scaling (Table 1, Figures 5-6) ==")
		weak, err := experiments.RunScaling(ctx, experiments.WeakScaling, opts)
		if err != nil {
			return err
		}
		if err := write(c,
			artifact{"table1_weak_speedups", weak.SpeedupTable()},
			artifact{"fig5_weak_factors", weak.FactorTable()},
			artifact{"fig6_weak_breakdown", weak.BreakdownTable()}); err != nil {
			return err
		}

		fmt.Fprintln(stdout, "== Strong scaling (Table 2, Figures 8-9) ==")
		strong, err := experiments.RunScaling(ctx, experiments.StrongScaling, opts)
		if err != nil {
			return err
		}
		if err := write(c,
			artifact{"table2_strong_speedups", strong.SpeedupTable()},
			artifact{"fig8_strong_factors", strong.FactorTable()},
			artifact{"fig9_strong_breakdown", strong.BreakdownTable()}); err != nil {
			return err
		}

		fmt.Fprintln(stdout, "== Reproduction scorecard ==")
		if err := c.Table("scorecard", experiments.Scorecard(weak, strong)); err != nil {
			return err
		}

		fmt.Fprintln(stdout, "== Communication volume over time (Figures 7, 10) ==")
		traceOpts := opts
		traceOpts.Batches = min(*batches, 3)
		for _, fig := range []struct {
			name string
			kind experiments.ScalingKind
			gpus int
		}{
			{"fig7_comm_volume_2gpu", experiments.WeakScaling, 2},
			{"fig10_comm_volume_4gpu", experiments.StrongScaling, 4},
		} {
			cv, err := experiments.RunCommVolume(ctx, fig.kind, fig.gpus, 120, traceOpts)
			if err != nil {
				return err
			}
			if err := c.Table(fig.name, cv.CSVTable()); err != nil {
				return err
			}
			if err := c.WriteFile(fig.name+"_chart.txt", []byte(cv.CommVolumeCharts(10))); err != nil {
				return err
			}
		}

		fmt.Fprintln(stdout, "== Mechanism ablations ==")
		ab, err := experiments.RunAblations(ctx, 4, opts)
		if err != nil {
			return err
		}
		if err := c.Table("ablations", experiments.AblationTable(ab)); err != nil {
			return err
		}

		fmt.Fprintln(stdout, "== Inter-batch pipelining ==")
		pd, err := experiments.RunPipelineDepth(ctx, 4, []int{1, 2}, opts)
		if err != nil {
			return err
		}
		if err := c.Table("pipeline_depth", experiments.PipelineDepthTable(pd)); err != nil {
			return err
		}

		if *seeds > 0 {
			fmt.Fprintln(stdout, "== Multi-seed statistics ==")
			for _, kind := range []experiments.ScalingKind{experiments.WeakScaling, experiments.StrongScaling} {
				stats, err := experiments.RunScalingStats(ctx, kind, *seeds, opts)
				if err != nil {
					return err
				}
				if err := c.Table(fmt.Sprintf("stats_%s", kind), experiments.StatsTable(kind, stats)); err != nil {
					return err
				}
			}
		}

		if *benchHot {
			fmt.Fprintln(stdout, "== Hot-path benchmarks ==")
			if err := experiments.RunHotPaths(bench); err != nil {
				return err
			}
			for _, h := range bench.Report().HotPaths {
				fmt.Fprintf(stdout, "%-36s %10.0f ns/op  %6d B/op  %4d allocs/op\n",
					h.Name, h.NsPerOp, h.BytesPerOp, h.AllocsPerOp)
			}
		}

		var js bytes.Buffer
		if err := bench.WriteJSON(&js); err != nil {
			return err
		}
		if err := c.WriteFile("bench.json", js.Bytes()); err != nil {
			return err
		}
		rep := bench.Report()
		fmt.Fprintf(stdout, "host timing: %.1fs wall, %.1fs of simulation across %d workers (%s)\n",
			rep.TotalWallSeconds, rep.TotalRunSeconds, c.Workers(), filepath.Join(*out, "bench.json"))
		return nil
	})
}

type artifact struct {
	name  string
	table *experiments.Table
}

func write(c *cli.Command, arts ...artifact) error {
	for _, a := range arts {
		if err := c.Table(a.name, a.table); err != nil {
			return err
		}
	}
	return nil
}
