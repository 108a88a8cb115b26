package experiments

import (
	"context"
	"fmt"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
)

// The wire-precision experiment: how much of the retrieval step survives
// when embedding rows cross NVLink and the NIC as fp16 or per-row-scaled
// int8 instead of fp32. Every (backend, dedup, precision) cell is a timing
// run on the same seed, so the comm-volume and EMB-time columns isolate the
// codec; a small functional sidecar run per precision measures the actual
// worst-case output deviation the quantization introduces, since the codec's
// accuracy cost is independent of backend and machine shape (every backend
// reads the same quantized-at-rest tables).

// precisionSweep is the fixed precision axis, widest wire format first.
var precisionSweep = []retrieval.Precision{retrieval.FP32, retrieval.FP16, retrieval.Int8}

// PrecisionPoint holds one (backend, dedup, precision) timing run.
type PrecisionPoint struct {
	Backend   string
	Dedup     bool
	Precision retrieval.Precision
	Result    *retrieval.Result
}

// PrecisionResult is the full sweep plus the per-precision accuracy sidecar.
type PrecisionResult struct {
	Nodes       int
	GPUsPerNode int
	// Points are ordered backend-major, then dedup, then precision, so each
	// triple of consecutive entries shares its fp32 head.
	Points []PrecisionPoint
	// MaxAbsErr is the worst per-element output deviation versus the fp32
	// run of the same functional workload, one entry per reduced precision.
	MaxAbsErr map[retrieval.Precision]float64
}

// Point returns the entry for the given cell.
func (r *PrecisionResult) Point(backend string, dedup bool, prec retrieval.Precision) PrecisionPoint {
	for _, p := range r.Points {
		if p.Backend == backend && p.Dedup == dedup && p.Precision == prec {
			return p
		}
	}
	panic(fmt.Sprintf("experiments: no precision point for %s/dedup=%v/%s", backend, dedup, prec))
}

// RunPrecision executes the wire-precision sweep on a machine of
// Options.Nodes nodes (0 or 1 = a single NVLink node) of Options.GPUs GPUs
// each; Options.Backends defaults to baseline, pgas-fused and hybrid. All
// timing cells and the functional accuracy runs share one worker pool, and
// every backend shares the spec of its (dedup, precision) cell.
func RunPrecision(ctx context.Context, opts Options) (*PrecisionResult, error) {
	res := &PrecisionResult{
		Nodes:       max(opts.Nodes, 1),
		GPUsPerNode: opts.gpus(),
		MaxAbsErr:   map[retrieval.Precision]float64{},
	}
	type cell struct {
		dedup bool
		prec  retrieval.Precision
	}
	specs := map[cell]*retrieval.SystemSpec{}
	var runs []specRun
	for _, backend := range listOr(opts.Backends, []string{"baseline", "pgas-fused", "hybrid"}) {
		for _, dedup := range []bool{false, true} {
			for _, prec := range precisionSweep {
				spec := specs[cell{dedup, prec}]
				if spec == nil {
					cfg := opts.config(retrieval.MultiNodeConfig(res.Nodes, res.GPUsPerNode))
					cfg.Dedup = dedup
					cfg.WirePrecision = prec
					var err error
					if spec, err = retrieval.NewSystemSpec(cfg, opts.hardware(opts.Nodes)); err != nil {
						return nil, fmt.Errorf("experiments: precision sweep, dedup=%v %s: %w", dedup, prec, err)
					}
					specs[cell{dedup, prec}] = spec
				}
				res.Points = append(res.Points, PrecisionPoint{Backend: backend, Dedup: dedup, Precision: prec})
				runs = append(runs, specRun{spec, backend, spec.Config().Seed})
			}
		}
	}
	// The accuracy sidecar runs the small functional workload, whose outputs
	// depend only on the precision (quantize-at-rest), not the backend.
	for _, prec := range precisionSweep {
		cfg := retrieval.TestScaleConfig(res.GPUsPerNode)
		cfg.WirePrecision = prec
		spec, err := retrieval.NewSystemSpec(cfg, retrieval.DefaultHardware())
		if err != nil {
			return nil, fmt.Errorf("experiments: precision accuracy run, %s: %w", prec, err)
		}
		runs = append(runs, specRun{spec, "baseline", cfg.Seed})
	}

	results, err := sweep(ctx, opts, "precision-sweep", runs, runSpec)
	if err != nil {
		return nil, err
	}
	for i := range res.Points {
		res.Points[i].Result = results[i]
	}
	sidecar := results[len(res.Points):]
	for i, prec := range precisionSweep[1:] {
		var worst float64
		for g, out := range sidecar[i+1].Final {
			worst = max(worst, tensor.MaxAbsDiff(out, sidecar[0].Final[g]))
		}
		res.MaxAbsErr[prec] = worst
	}
	return res, nil
}

// SweepTable renders the full grid: per cell, EMB time, the speedup the
// reduced wire format buys over fp32 on the same backend and dedup setting,
// the communication volume with its compression ratio, the NIC wire traffic
// on cluster machines, and the measured worst-case output error.
func (r *PrecisionResult) SweepTable() *Table {
	t := &Table{
		Title: fmt.Sprintf("Wire-precision sweep (%d node(s) x %d GPUs)", r.Nodes, r.GPUsPerNode),
		Headers: []string{"Backend", "Dedup", "Precision", "EMB time", "vs fp32",
			"Comm GB", "Comm ratio", "NIC GB", "Max abs err"},
	}
	for _, p := range r.Points {
		base := r.Point(p.Backend, p.Dedup, retrieval.FP32).Result
		commRatio := "-"
		if base.CommTrace.Total() > 0 {
			commRatio = fmt.Sprintf("%.3f", p.Result.CommTrace.Total()/base.CommTrace.Total())
		}
		maxErr := "0"
		if e, ok := r.MaxAbsErr[p.Precision]; ok {
			maxErr = fmt.Sprintf("%.3e", e)
		}
		t.Rows = append(t.Rows, []string{
			p.Backend,
			fmt.Sprintf("%v", p.Dedup),
			p.Precision.String(),
			sim.FormatTime(p.Result.TotalTime),
			fmt.Sprintf("%.2fx", metrics.Speedup(base.TotalTime, p.Result.TotalTime)),
			gigabytes(p.Result.CommTrace.Total()),
			commRatio,
			gigabytes(p.Result.NICWireBytes),
			maxErr,
		})
	}
	return t
}
