// Command sweep explores how the PGAS-over-baseline speedup responds to one
// configuration axis — batch size, pooling factor, embedding dimension,
// table count or fused-kernel chunk granularity — holding everything else
// at the paper's weak-scaling setup. Useful for sensitivity analysis beyond
// the paper's two operating points.
//
// Usage:
//
//	sweep -axis batch|pooling|dim|tables|chunks|skew|criteo|pipeline
//	      [-gpus 4] [-batches 10] [-csv] [-timeout 0]
//
// The pipeline axis runs the full DLRM inference pipeline (the others run
// the EMB layer alone) at increasing inter-batch software-pipelining depths,
// showing how much of each scheme's exchange hides behind dense compute.
// Every axis runs its points on the experiment engine's worker pool
// (GOMAXPROCS workers); the output is identical at any worker count.
// -timeout bounds host wall-clock time.
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"pgasemb/internal/cli"
	"pgasemb/internal/experiments"
	"pgasemb/internal/retrieval"
)

type point struct {
	label string
	cfg   retrieval.Config
}

func sweepPoints(axis string, gpus int) ([]point, error) {
	base := retrieval.WeakScalingConfig(gpus)
	var pts []point
	switch axis {
	case "batch":
		for _, b := range []int{1024, 4096, 16384, 65536} {
			cfg := base
			cfg.BatchSize = b
			pts = append(pts, point{fmt.Sprintf("batch=%d", b), cfg})
		}
	case "pooling":
		for _, p := range []int{8, 32, 128, 256} {
			cfg := base
			cfg.MaxPooling = p
			pts = append(pts, point{fmt.Sprintf("maxpool=%d", p), cfg})
		}
	case "dim":
		for _, d := range []int{32, 64, 128, 256} {
			cfg := base
			cfg.Dim = d
			// Shrink rows to keep the shard within 32 GB at d=256.
			cfg.Rows = 500_000
			pts = append(pts, point{fmt.Sprintf("dim=%d", d), cfg})
		}
	case "tables":
		for _, t := range []int{16, 32, 64, 96} {
			cfg := base
			cfg.TotalTables = t * gpus
			pts = append(pts, point{fmt.Sprintf("tables/gpu=%d", t), cfg})
		}
	case "chunks":
		for _, c := range []int{4, 16, 64, 256} {
			cfg := base
			cfg.ChunksPerKernel = c
			pts = append(pts, point{fmt.Sprintf("chunks=%d", c), cfg})
		}
	case "skew":
		for _, hot := range []float64{0, 0.0625, 0.125, 0.25} {
			cfg := base
			if hot > 0 {
				cfg.PerFeatureMaxPooling = retrieval.SkewedPooling(cfg.TotalTables, hot, 256, 16)
			}
			pts = append(pts, point{fmt.Sprintf("hot=%.0f%%", hot*100), cfg})
			cfgG := cfg
			cfgG.GreedyPlan = true
			pts = append(pts, point{fmt.Sprintf("hot=%.0f%%+greedy", hot*100), cfgG})
		}
	case "criteo":
		cfg := retrieval.CriteoShapedConfig(gpus)
		pts = append(pts, point{"criteo-shaped", cfg})
		pts = append(pts, point{"paper-weak", base})
	case "pipeline":
		for _, d := range []int{1, 2, 3, 4} {
			cfg := base
			cfg.PipelineDepth = d
			pts = append(pts, point{fmt.Sprintf("depth=%d", d), cfg})
		}
	default:
		return nil, fmt.Errorf("unknown axis %q", axis)
	}
	return pts, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("sweep", stdout, stderr)
	axis := c.String("axis", "batch", "sweep axis: batch, pooling, dim, tables, chunks, skew, criteo or pipeline")
	gpus := c.Int("gpus", 4, "GPU count")
	batches := c.Int("batches", 10, "inference batches per run")
	csv := c.CSV()
	c.Timeout()
	c.Positive("gpus", "batches")
	var pts []point
	c.Check(func() (err error) {
		pts, err = sweepPoints(*axis, *gpus)
		return err
	})
	return c.Run(args, func(ctx context.Context) error {
		if *csv {
			fmt.Fprintln(stdout, "point,baseline_s,pgas_s,speedup")
		} else {
			fmt.Fprintf(stdout, "%-16s  %-12s  %-12s  %-8s\n", "point", "baseline", "pgas-fused", "speedup")
		}
		emit := func(label string, base, pgas float64) {
			if *csv {
				fmt.Fprintf(stdout, "%s,%.6f,%.6f,%.3f\n", label, base, pgas, base/pgas)
			} else {
				fmt.Fprintf(stdout, "%-16s  %10.2fms  %10.2fms  %7.2fx\n", label, base*1e3, pgas*1e3, base/pgas)
			}
		}
		if *axis == "pipeline" {
			// The pipelining win only exists against dense compute, so this
			// axis times the full DLRM pipeline at each point's depth.
			depths := make([]int, len(pts))
			for i, pt := range pts {
				depths[i] = pt.cfg.PipelineDepth
			}
			res, err := experiments.RunPipelineDepth(ctx, *gpus, depths, experiments.Options{Batches: *batches})
			if err != nil {
				return err
			}
			for i, pt := range pts {
				emit(pt.label, float64(res[i].Total), float64(res[len(pts)+i].Total))
			}
			return nil
		}
		cfgs := make([]retrieval.Config, len(pts))
		for i, pt := range pts {
			cfgs[i] = pt.cfg
		}
		res, err := experiments.RunPairs(ctx, "sweep-"+*axis, cfgs, experiments.Options{Batches: *batches})
		if err != nil {
			return err
		}
		for i, pt := range pts {
			emit(pt.label, res[i][0].TotalTime, res[i][1].TotalTime)
		}
		return nil
	})
}
