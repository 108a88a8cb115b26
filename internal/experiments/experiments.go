// Package experiments regenerates every table and figure of the paper's
// evaluation section from the simulated system:
//
//	Table 1 / Table 2 — weak/strong scaling speedups of PGAS over baseline
//	Figure 5 / Figure 8 — weak/strong scaling factor curves
//	Figure 6 / Figure 9 — runtime component breakdowns
//	Figure 7 / Figure 10 — communication volume over time
//
// Each experiment returns structured data plus ASCII/CSV renderings; the
// calibration shape tests in this package assert that the regenerated
// results match the paper's qualitative and (within tolerance) quantitative
// findings.
package experiments

import (
	"context"
	"fmt"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// ScalingKind selects the paper's §IV-A or §IV-B experiment.
type ScalingKind int

const (
	// WeakScaling holds per-GPU work constant (64 tables per GPU).
	WeakScaling ScalingKind = iota
	// StrongScaling holds total work constant (96 tables).
	StrongScaling
)

func (k ScalingKind) String() string {
	if k == WeakScaling {
		return "weak"
	}
	return "strong"
}

// Config builds the retrieval configuration for this kind and GPU count.
func (k ScalingKind) Config(gpus int) retrieval.Config {
	if k == WeakScaling {
		return retrieval.WeakScalingConfig(gpus)
	}
	return retrieval.StrongScalingConfig(gpus)
}

// clusterConfig builds a multi-node sweep point's configuration.
func (k ScalingKind) clusterConfig(nodes, gpusPerNode int) retrieval.Config {
	if k == WeakScaling {
		return retrieval.MultiNodeConfig(nodes, gpusPerNode)
	}
	return retrieval.MultiNodeStrongConfig(nodes, gpusPerNode)
}

// ScalingPoint holds one machine size's pair of runs. When the sweep carries
// the dedup axis (Options.Dedup), the dedup-enabled runs ride along.
type ScalingPoint struct {
	// Nodes is the point's node count (0 on a single-node sweep); GPUs its
	// total GPU count.
	Nodes    int
	GPUs     int
	Baseline *retrieval.Result
	PGAS     *retrieval.Result

	// BaselineDedup / PGASDedup are the same runs with batch-level index
	// deduplication enabled; nil unless Options.Dedup was set.
	BaselineDedup *retrieval.Result
	PGASDedup     *retrieval.Result
}

// Speedup returns baseline/PGAS total time.
func (p ScalingPoint) Speedup() float64 {
	return metrics.Speedup(p.Baseline.TotalTime, p.PGAS.TotalTime)
}

// DedupSpeedup returns baseline/PGAS total time with deduplication enabled
// on both sides. It panics unless the sweep carried the dedup axis.
func (p ScalingPoint) DedupSpeedup() float64 {
	return metrics.Speedup(p.BaselineDedup.TotalTime, p.PGASDedup.TotalTime)
}

// ScalingResult is a full sweep over GPU counts, or over node counts on a
// cluster.
type ScalingResult struct {
	Kind ScalingKind
	// GPUsPerNode is the node size of a multi-node sweep (0 on one node).
	GPUsPerNode int
	// Dedup reports whether the sweep carried the dedup on/off axis.
	Dedup  bool
	Points []ScalingPoint
}

// RunScaling executes the weak- or strong-scaling sweep with both backends:
// over GPU counts 1..GPUs on one node, or — when Options.Nodes is set — over
// node counts 1..Nodes of GPUs each, the paper's §V future-work setting,
// with the baseline on hierarchical collectives and PGAS on the
// proxy-coalesced inter-node path. Every (machine, dedup) combination shares
// one immutable spec between its baseline and accelerated runs.
func RunScaling(ctx context.Context, kind ScalingKind, opts Options) (*ScalingResult, error) {
	accel, err := opts.accelerated()
	if err != nil {
		return nil, err
	}
	name, steps := fmt.Sprintf("%s-scaling", kind), opts.gpus()
	res := &ScalingResult{Kind: kind, Dedup: opts.Dedup}
	if opts.Nodes > 0 {
		name, steps = "multinode-"+name, opts.Nodes
		res.GPUsPerNode = opts.gpus()
	}
	var runs []specRun
	for step := 1; step <= steps; step++ {
		p, cfg := ScalingPoint{GPUs: step}, kind.Config(step)
		if opts.Nodes > 0 {
			p, cfg = ScalingPoint{Nodes: step, GPUs: step * res.GPUsPerNode}, kind.clusterConfig(step, res.GPUsPerNode)
		}
		cfg, hw := opts.config(cfg), opts.hardware(p.Nodes)
		for _, dedup := range opts.dedups() {
			if dedup {
				cfg.Dedup = true
			}
			spec, err := retrieval.NewSystemSpec(cfg, hw)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s, %d nodes, %d GPUs, dedup %v: %w", name, p.Nodes, p.GPUs, dedup, err)
			}
			runs = append(runs, pair(spec, accel)...)
		}
		res.Points = append(res.Points, p)
	}
	results, err := sweep(ctx, opts, name, runs, runSpec)
	if err != nil {
		return nil, err
	}
	for i := range res.Points {
		p := &res.Points[i]
		p.Baseline, p.PGAS, results = results[0], results[1], results[2:]
		if opts.Dedup {
			p.BaselineDedup, p.PGASDedup, results = results[0], results[1], results[2:]
		}
	}
	return res, nil
}

// Point returns the entry for the given GPU count.
func (r *ScalingResult) Point(gpus int) ScalingPoint {
	for _, p := range r.Points {
		if p.GPUs == gpus {
			return p
		}
	}
	panic(fmt.Sprintf("experiments: no point for %d GPUs", gpus))
}

// Speedups returns the PGAS-over-baseline speedups for GPU counts >= 2 —
// the rows of Table 1 / Table 2.
func (r *ScalingResult) Speedups() []float64 {
	var out []float64
	for _, p := range r.Points {
		if p.GPUs >= 2 {
			out = append(out, p.Speedup())
		}
	}
	return out
}

// GeomeanSpeedup returns the headline number (paper: 1.97x weak, 2.63x
// strong).
func (r *ScalingResult) GeomeanSpeedup() float64 {
	return metrics.Geomean(r.Speedups())
}

// Factors returns the scaling-factor series for one backend: weak scaling
// uses T1/TP (ideal flat 1.0, Figure 5); strong scaling uses T1/TP as the
// speedup over one GPU (ideal = P, Figure 8). Both definitions coincide;
// they differ only in the ideal line they are compared against.
func (r *ScalingResult) Factors(pgas bool) []float64 {
	single := r.Points[0].Baseline.TotalTime
	if pgas {
		single = r.Points[0].PGAS.TotalTime
	}
	var out []float64
	for _, p := range r.Points {
		t := p.Baseline.TotalTime
		if pgas {
			t = p.PGAS.TotalTime
		}
		out = append(out, single/t)
	}
	return out
}

// BreakdownSeries returns, for each GPU count, the named baseline component
// (per the paper's Figures 6 and 9 bars), in seconds.
func (r *ScalingResult) BreakdownSeries(component string) []float64 {
	var out []float64
	for _, p := range r.Points {
		out = append(out, p.Baseline.Breakdown.Get(component))
	}
	return out
}

// BaselineTotals returns the baseline total runtime per GPU count.
func (r *ScalingResult) BaselineTotals() []float64 {
	var out []float64
	for _, p := range r.Points {
		out = append(out, p.Baseline.TotalTime)
	}
	return out
}

// RunPairs runs each configuration under the baseline and under the
// accelerated backend (the one name in Options.Backends, default
// pgas-fused) on the worker pool, recording the sweep under name, and
// returns each configuration's (baseline, accelerated) results in order —
// the sensitivity sweeps over one configuration axis.
func RunPairs(ctx context.Context, name string, cfgs []retrieval.Config, opts Options) ([][2]*retrieval.Result, error) {
	accel, err := opts.accelerated()
	if err != nil {
		return nil, err
	}
	var runs []specRun
	for i, cfg := range cfgs {
		spec, err := retrieval.NewSystemSpec(opts.config(cfg), opts.hardware(0))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s, point %d: %w", name, i, err)
		}
		runs = append(runs, pair(spec, accel)...)
	}
	results, err := sweep(ctx, opts, name, runs, runSpec)
	if err != nil {
		return nil, err
	}
	out := make([][2]*retrieval.Result, len(cfgs))
	for i := range out {
		out[i] = [2]*retrieval.Result{results[2*i], results[2*i+1]}
	}
	return out, nil
}

// CommVolumeResult carries the data behind Figures 7 and 10: communication
// volume over time for both implementations on a given GPU count.
type CommVolumeResult struct {
	Kind     ScalingKind
	GPUs     int
	Bins     int
	PGAS     []trace.Point // per-bin delivered payload bytes, PGAS run
	Baseline []trace.Point // per-bin delivered payload bytes, baseline run
	// PGASSpan / BaselineSpan are each run's [0, total] windows the series
	// cover.
	PGASSpan     sim.Duration
	BaselineSpan sim.Duration
}

// RunCommVolume profiles communication volume over time (the paper's
// "communication counter" experiment) for the given scaling kind and GPU
// count. The paper plots 2 GPUs for the weak configuration (Figure 7) and 4
// GPUs for the strong one (Figure 10). The baseline and PGAS runs execute
// concurrently from one shared spec.
func RunCommVolume(ctx context.Context, kind ScalingKind, gpus, bins int, opts Options) (*CommVolumeResult, error) {
	if gpus < 2 {
		return nil, fmt.Errorf("experiments: communication profiling needs >= 2 GPUs")
	}
	accel, err := opts.accelerated()
	if err != nil {
		return nil, err
	}
	spec, err := retrieval.NewSystemSpec(opts.config(kind.Config(gpus)), opts.hardware(0))
	if err != nil {
		return nil, err
	}
	bins = positiveOr(bins, 120)
	runs, err := sweep(ctx, opts, fmt.Sprintf("%s-commvolume-%dgpu", kind, gpus), pair(spec, accel), runSpec)
	if err != nil {
		return nil, err
	}
	base, pgas := runs[0], runs[1]
	return &CommVolumeResult{
		Kind: kind, GPUs: gpus, Bins: bins,
		PGAS:         pgas.CommTrace.RateSeries(0, pgas.TotalTime, bins),
		Baseline:     base.CommTrace.RateSeries(0, base.TotalTime, bins),
		PGASSpan:     pgas.TotalTime,
		BaselineSpan: base.TotalTime,
	}, nil
}
