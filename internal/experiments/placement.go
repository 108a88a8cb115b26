package experiments

import (
	"context"
	"fmt"

	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/workload"
)

// PlacementOptions tunes the adaptive-placement sweep: placement policy ×
// backend × Zipf exponent, each point one offline retrieval run on a
// workload whose per-feature pooling is graded (two dominant tables, two
// mid-hot, flat tail) so table loads are skewed the way production
// recommendation traffic is.
//
// Options.GPUs sizes the machine and Options.Batches sets each point's batch
// count (default 48), both unless Base is set; Options.Backends defaults to
// baseline and pgas-fused.
type PlacementOptions struct {
	Options
	// Policies names the placement policies to sweep. Known: static (the
	// table-wise contiguous plan), greedy (the analytic LPT plan over
	// EXPECTED loads), adaptive (statistics-driven rebalancing), and
	// adaptive+mirror (rebalancing plus top-K hot-table replication).
	// Default: all four.
	Policies []string
	// ZipfExponents are the row-skew settings to sweep (default {1.05, 1.2}).
	ZipfExponents []float64
	// RebalanceEvery is the adaptive policies' epoch length in batches
	// (default 8).
	RebalanceEvery int
	// HotTables is the adaptive+mirror policy's mirror budget (default 2).
	HotTables int
	// Base overrides the workload configuration (default: a graded-skew
	// variant of ServingScaleConfig); its placement and Zipf fields are
	// overwritten by the sweep.
	Base *retrieval.Config
}

// PlacementPolicies are the known policy names, in sweep order.
var PlacementPolicies = []string{"static", "greedy", "adaptive", "adaptive+mirror"}

// base builds the sweep workload: ServingScaleConfig sized to the machine,
// re-pooled so the first two tables dominate (max pooling 64), the next two
// are mid-hot (16), and the tail is flat (4) — the static table-wise plan
// colocates all four heavy tables on GPU 0.
func (o PlacementOptions) base() retrieval.Config {
	if o.Base != nil {
		return *o.Base
	}
	cfg := retrieval.ServingScaleConfig(o.gpus())
	cfg.Functional = false
	cfg.Batches = positiveOr(o.Batches, 48)
	pool := make([]int, cfg.TotalTables)
	for f := range pool {
		pool[f] = 4
	}
	pool[0], pool[1] = 64, 64
	pool[2], pool[3] = 16, 16
	cfg.MinPooling = 1
	cfg.MaxPooling = 4
	cfg.PerFeatureMaxPooling = pool
	cfg.Distribution = workload.Zipf
	// Dedup makes the Zipf dimension bite: hot-row duplication — and so the
	// wire traffic each policy leaves behind — scales with the exponent.
	cfg.Dedup = true
	return cfg
}

// PlacementPoint is one (backend, Zipf exponent, policy) retrieval run.
type PlacementPoint struct {
	Backend string
	Zipf    float64
	Policy  string

	// TotalTime is the run's simulated time, including any migration traffic
	// the adaptive policies charged between epochs.
	TotalTime float64
	// Speedup is the same (backend, Zipf) static point's TotalTime over this
	// point's (1.0 for static itself; 0 when static is not in the sweep).
	Speedup float64
	// MaxOwnerKeys is the busiest GPU's accumulated pooled-gather count —
	// the load the placement subsystem exists to shrink.
	MaxOwnerKeys int64
	// Imbalance is max/mean of the per-GPU gather counts (1.0 = balanced).
	Imbalance float64
	// Rebalances counts applied plan swaps; MigratedBytes the shard and
	// mirror bytes they copied (zero for the non-adaptive policies).
	Rebalances    int
	MigratedBytes float64
}

// PlacementResult is the full sweep in backend-major, Zipf-then-policy
// order — deterministic for any Parallel.
type PlacementResult struct {
	Policies []string
	Zipfs    []float64
	Points   []PlacementPoint
}

// RunPlacement executes the placement-policy sweep. Every grid point owns
// its system, so points are independent.
func RunPlacement(ctx context.Context, opts PlacementOptions) (*PlacementResult, error) {
	policies := listOr(opts.Policies, PlacementPolicies)
	zipfs := listOr(opts.ZipfExponents, []float64{1.05, 1.2})
	for _, p := range policies {
		switch p {
		case "static", "greedy", "adaptive", "adaptive+mirror":
		default:
			return nil, fmt.Errorf("experiments: unknown placement policy %q (known: %v)", p, PlacementPolicies)
		}
	}
	var cells []PlacementPoint
	for _, backend := range listOr(opts.Backends, defaultBackends) {
		for _, zipf := range zipfs {
			for _, policy := range policies {
				cells = append(cells, PlacementPoint{Backend: backend, Zipf: zipf, Policy: policy})
			}
		}
	}
	base := opts.base()
	hw := opts.hardware(0)
	points, err := sweep(ctx, opts.Options, "placement", cells, func(ctx context.Context, c PlacementPoint) (PlacementPoint, error) {
		backend, err := retrieval.NewBackendByName(c.Backend)
		if err != nil {
			return c, err
		}
		cfg := base
		cfg.ZipfExponent = c.Zipf
		switch c.Policy {
		case "greedy":
			cfg.GreedyPlan = true
		case "adaptive", "adaptive+mirror":
			cfg.AdaptivePlacement = true
			cfg.RebalanceEvery = positiveOr(opts.RebalanceEvery, 8)
			if c.Policy == "adaptive+mirror" {
				cfg.HotTables = positiveOr(opts.HotTables, 2)
			}
		}
		fail := func(err error) (PlacementPoint, error) {
			return c, fmt.Errorf("%s policy %s zipf %g: %w", c.Backend, c.Policy, c.Zipf, err)
		}
		s, err := retrieval.NewSystem(cfg, hw)
		if err != nil {
			return fail(err)
		}
		r, err := s.RunContext(ctx, backend)
		if err != nil {
			return fail(err)
		}
		var maxKeys int64
		keys := make([]float64, len(r.OwnerKeys))
		for g, k := range r.OwnerKeys {
			keys[g] = float64(k)
			maxKeys = max(maxKeys, k)
		}
		c.Backend = backend.Name()
		c.TotalTime = r.TotalTime
		c.MaxOwnerKeys = maxKeys
		c.Imbalance = metrics.Imbalance(keys)
		c.Rebalances = r.Rebalances
		c.MigratedBytes = r.MigratedBytes
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	// Speedups against the same (backend, Zipf) static point, once every
	// point is in place.
	type key struct {
		backend string
		zipf    float64
	}
	static := make(map[key]float64)
	for _, p := range points {
		if p.Policy == "static" {
			static[key{p.Backend, p.Zipf}] = p.TotalTime
		}
	}
	for i, p := range points {
		if st, ok := static[key{p.Backend, p.Zipf}]; ok && p.TotalTime > 0 {
			points[i].Speedup = st / p.TotalTime
		}
	}
	return &PlacementResult{Policies: policies, Zipfs: zipfs, Points: points}, nil
}

// Table renders the sweep.
func (r *PlacementResult) Table() *Table {
	t := &Table{
		Title: "Placement: adaptive rebalancing and hot-table mirroring vs static plans",
		Headers: []string{"backend", "zipf", "policy", "total_ms", "speedup",
			"imbalance", "max_owner_keys", "rebalances", "migrated_mb"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			p.Backend,
			fmt.Sprintf("%.2f", p.Zipf),
			p.Policy,
			fmt.Sprintf("%.3f", p.TotalTime*1e3),
			fmt.Sprintf("%.3f", p.Speedup),
			fmt.Sprintf("%.3f", p.Imbalance),
			fmt.Sprintf("%d", p.MaxOwnerKeys),
			fmt.Sprintf("%d", p.Rebalances),
			fmt.Sprintf("%.2f", p.MigratedBytes/(1<<20)),
		})
	}
	return t
}
