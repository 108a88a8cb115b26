package experiments

import (
	"context"
	"fmt"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
)

// PipelineDepthPoint is one (backend, depth) end-to-end DLRM inference run
// on the inter-batch pipelining sweep.
type PipelineDepthPoint struct {
	Backend string
	Depth   int
	// Total is end-to-end inference time; EMB the accumulated EMB-layer
	// segment; Dense the depth-invariant dense-compute floor; Stall the
	// EMB-visible stall max(0, Total-Dense).
	Total sim.Duration
	EMB   sim.Duration
	Dense sim.Duration
	Stall sim.Duration
	// Speedup is this run's gain over the same backend at depth 1.
	Speedup float64
}

// RunPipelineDepth sweeps the inter-batch pipeline depth for the baseline
// and the accelerated backend on the weak-scaling DLRM workload at the given
// GPU count. Depth 1 is the serial schedule; deeper runs overlap the next
// batch's EMB exchange with the current batch's dense tail. The points come
// back backend-major, then in the given depth order.
func RunPipelineDepth(ctx context.Context, gpus int, depths []int, opts Options) ([]PipelineDepthPoint, error) {
	depths = listOr(depths, []int{1, 2})
	for _, d := range depths {
		if d < 1 {
			return nil, fmt.Errorf("experiments: pipeline-depth sweep needs depths >= 1, got %d", d)
		}
	}
	accel, err := opts.accelerated()
	if err != nil {
		return nil, err
	}
	var points []PipelineDepthPoint
	for _, name := range []string{"baseline", accel} {
		for _, d := range depths {
			points = append(points, PipelineDepthPoint{Backend: name, Depth: d})
		}
	}
	base := opts.config(retrieval.WeakScalingConfig(gpus))
	hw := opts.hardware(0)
	out, err := sweep(ctx, opts, fmt.Sprintf("pipeline-depth-%dgpu", gpus), points,
		func(ctx context.Context, p PipelineDepthPoint) (PipelineDepthPoint, error) {
			backend, err := retrieval.NewBackendByName(p.Backend)
			if err != nil {
				return p, err
			}
			cfg := base
			cfg.PipelineDepth = p.Depth
			pl, err := dlrm.NewPipeline(cfg, hw, backend)
			if err != nil {
				return p, fmt.Errorf("%s depth %d: %w", p.Backend, p.Depth, err)
			}
			r, err := pl.RunContext(ctx)
			if err != nil {
				return p, fmt.Errorf("%s depth %d: %w", p.Backend, p.Depth, err)
			}
			return PipelineDepthPoint{Backend: r.Backend, Depth: p.Depth,
				Total: r.TotalTime, EMB: r.EMBTime, Dense: r.DenseTime, Stall: r.EMBStall}, nil
		})
	if err != nil {
		return nil, err
	}
	// Speedups are relative to each backend's own first depth, so the column
	// reads as "what deeper pipelining alone bought this backend".
	for rest := out; len(rest) > 0; rest = rest[len(depths):] {
		for i := range depths {
			rest[i].Speedup = float64(rest[0].Total / rest[i].Total)
		}
	}
	return out, nil
}

// PipelineDepthTable renders the sweep: one row per (backend, depth), with
// the EMB-visible stall and each backend's gain over its own depth-1 run.
func PipelineDepthTable(points []PipelineDepthPoint) *Table {
	t := &Table{
		Title: "Inter-batch pipelining: EMB exchange overlapped with dense compute",
		Headers: []string{"backend", "depth", "total", "emb", "dense_floor",
			"emb_stall", "speedup vs depth 1"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			p.Backend,
			fmt.Sprintf("%d", p.Depth),
			sim.FormatTime(p.Total),
			sim.FormatTime(p.EMB),
			sim.FormatTime(p.Dense),
			sim.FormatTime(p.Stall),
			fmt.Sprintf("%.2fx", p.Speedup),
		})
	}
	return t
}
