package experiments

import (
	"context"
	"fmt"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
)

// ServingOptions tunes the online-serving sweep: backend × arrival rate ×
// cache fraction (× dedup with Options.Dedup, the innermost axis), each
// point one full serving simulation. Options.GPUs sizes the machine unless
// Base is set; Options.Backends defaults to baseline and pgas-fused.
type ServingOptions struct {
	Options
	// Rates are the arrival rates to sweep (requests/second). Required.
	Rates []float64
	// CacheFractions are the hot-row cache sizes to sweep, as fractions of
	// device memory (0 = cache disabled). Required.
	CacheFractions []float64
	// Duration is each point's arrival window (default 2 simulated seconds).
	Duration sim.Duration
	// Base overrides the serving workload configuration (default
	// retrieval.ServingScaleConfig(GPUs)); its CacheFraction is overwritten
	// by the sweep.
	Base *retrieval.Config
	// PipelineDepth sets the base configuration's inter-batch pipelining
	// depth at every point (0 keeps the base configuration's own depth;
	// 1 = serial dispatch, ≥2 overlaps in-flight dispatches).
	PipelineDepth int
	// Serve carries the batching knobs (MaxBatch, MaxWait, QueueCap,
	// arrival process); Rate and Duration are overwritten by the sweep.
	Serve serve.Config
}

// defaultBackends is the backend axis of the serving, chaos and placement
// sweeps when Options.Backends is empty.
var defaultBackends = []string{"baseline", "pgas-fused"}

// servingBase is the serving workload of the serving and chaos sweeps: base,
// or ServingScaleConfig sized to the machine.
func servingBase(base *retrieval.Config, o Options) retrieval.Config {
	if base != nil {
		return *base
	}
	return retrieval.ServingScaleConfig(o.gpus())
}

// ServingPoint is one (backend, rate, cache fraction, dedup) serving run.
type ServingPoint struct {
	Backend       string
	Rate          float64
	CacheFraction float64
	CacheSlots    int
	Dedup         bool

	Offered    int
	Completed  int
	Dropped    int
	Dispatches int

	// Resilience carries the run's degraded-serving and proxy-retry counters
	// (all zero without a fault schedule on the sweep's hardware).
	Resilience metrics.RetryCounters

	HitRate float64
	// UniqueFrac is the batch-level dedup ratio across every dispatched
	// batch (0 when dedup is off).
	UniqueFrac float64
	// WireSavedMB is the modeled wire traffic dedup avoided, in MB.
	WireSavedMB float64
	P50         sim.Duration
	P95         sim.Duration
	P99         sim.Duration
	Goodput     float64
}

// ServingResult is the full sweep, in backend-major,
// rate-then-fraction-then-dedup order — deterministic for any Parallel.
type ServingResult struct {
	Rates          []float64
	CacheFractions []float64
	Dedups         []bool
	Points         []ServingPoint
}

// RunServing executes the serving sweep. Every grid point owns its server
// (and therefore its cache set), so points are independent.
func RunServing(ctx context.Context, opts ServingOptions) (*ServingResult, error) {
	if len(opts.Rates) == 0 || len(opts.CacheFractions) == 0 {
		return nil, fmt.Errorf("experiments: serving sweep needs at least one rate and one cache fraction")
	}
	dedups := opts.dedups()
	var cells []ServingPoint
	for _, backend := range listOr(opts.Backends, defaultBackends) {
		for _, rate := range opts.Rates {
			for _, frac := range opts.CacheFractions {
				for _, dedup := range dedups {
					cells = append(cells, ServingPoint{Backend: backend, Rate: rate, CacheFraction: frac, Dedup: dedup})
				}
			}
		}
	}
	base := opts.config(servingBase(opts.Base, opts.Options))
	base.PipelineDepth = positiveOr(opts.PipelineDepth, base.PipelineDepth)
	hw := opts.hardware(0)
	points, err := sweep(ctx, opts.Options, "serving", cells, func(ctx context.Context, c ServingPoint) (ServingPoint, error) {
		cfg := base
		cfg.CacheFraction = c.CacheFraction
		cfg.Dedup = c.Dedup
		scfg := opts.Serve
		scfg.Rate = c.Rate
		scfg.Duration = positiveOr(opts.Duration, 2*sim.Second)
		r, err := serveRun(ctx, c.Backend, cfg, hw, scfg)
		if err != nil {
			return c, fmt.Errorf("%s rate %.0f frac %g dedup %v: %w", c.Backend, c.Rate, c.CacheFraction, c.Dedup, err)
		}
		return ServingPoint{
			Backend:       r.Backend,
			Rate:          r.Rate,
			CacheFraction: r.CacheFraction,
			CacheSlots:    cfg.CacheSlots(hw.GPU),
			Dedup:         cfg.Dedup,
			Offered:       r.Offered,
			Completed:     r.Completed,
			Dropped:       r.Dropped,
			Dispatches:    r.Dispatches,
			Resilience:    r.Resilience,
			HitRate:       r.HitRate(),
			UniqueFrac:    r.DedupStats.UniqueFraction(),
			WireSavedMB:   r.DedupStats.WireSavedBytes / 1e6,
			P50:           r.Percentile(50),
			P95:           r.Percentile(95),
			P99:           r.Percentile(99),
			Goodput:       r.Goodput(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ServingResult{Rates: opts.Rates, CacheFractions: opts.CacheFractions, Dedups: dedups, Points: points}, nil
}

// serveRun runs one serving point's server under a fresh instance of the
// named backend.
func serveRun(ctx context.Context, backend string, cfg retrieval.Config, hw retrieval.HardwareParams, scfg serve.Config) (*serve.Result, error) {
	b, err := retrieval.NewBackendByName(backend)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(cfg, hw, b, scfg)
	if err != nil {
		return nil, err
	}
	return srv.RunContext(ctx)
}

// P99Series returns the p99 latencies (seconds) across cache fractions for
// one backend at one rate — the sweep's headline curve.
func (r *ServingResult) P99Series(backend string, rate float64) []float64 {
	var out []float64
	for _, p := range r.Points {
		if p.Backend == backend && p.Rate == rate {
			out = append(out, float64(p.P99))
		}
	}
	return out
}

// Table renders the sweep. The dedup columns appear only when the sweep
// actually carried a dedup-enabled point, so default sweeps render as
// before.
func (r *ServingResult) Table() *Table {
	hasDedup := false
	for _, d := range r.Dedups {
		hasDedup = hasDedup || d
	}
	t := &Table{
		Title: "Online serving: tail latency and goodput vs hot-row cache size",
		Headers: []string{"backend", "rate_rps", "cache_frac", "hit_rate",
			"p50_ms", "p95_ms", "p99_ms", "goodput_rps", "dropped", "dispatches"},
	}
	if hasDedup {
		t.Headers = append(t.Headers, "dedup", "uniq_frac", "wire_saved_mb")
	}
	for _, p := range r.Points {
		row := []string{
			p.Backend,
			fmt.Sprintf("%.0f", p.Rate),
			fmt.Sprintf("%.4f", p.CacheFraction),
			fmt.Sprintf("%.3f", p.HitRate),
			fmt.Sprintf("%.3f", float64(p.P50)/float64(sim.Millisecond)),
			fmt.Sprintf("%.3f", float64(p.P95)/float64(sim.Millisecond)),
			fmt.Sprintf("%.3f", float64(p.P99)/float64(sim.Millisecond)),
			fmt.Sprintf("%.1f", p.Goodput),
			fmt.Sprintf("%d", p.Dropped),
			fmt.Sprintf("%d", p.Dispatches),
		}
		if hasDedup {
			row = append(row,
				fmt.Sprintf("%v", p.Dedup),
				fmt.Sprintf("%.3f", p.UniqueFrac),
				fmt.Sprintf("%.2f", p.WireSavedMB),
			)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
