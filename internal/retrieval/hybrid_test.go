package retrieval

import (
	"fmt"
	"math"
	"testing"

	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
)

// headerTaxedHardware inflates the one-sided per-message header until every
// eligible pair's store traffic costs more than collective participation —
// the far side of the paper's §V crossover. On it the hybrid backend must
// route every intra-node pair through the all-to-all.
func headerTaxedHardware(nodes int) HardwareParams {
	var hw HardwareParams
	if nodes > 0 {
		hw = ClusterHardware(nodes)
	} else {
		hw = DefaultHardware()
	}
	hw.Link.HeaderBytes = 1 << 20
	return hw
}

// probeRoutes compiles one batch on a fresh system and reports the hybrid
// transport routing, so tests can assert which execution mode a
// configuration actually engages (instead of silently degrading to a
// delegate mode).
func probeRoutes(t *testing.T, cfg Config, hw HardwareParams) (anyColl, allColl bool) {
	t.Helper()
	s, err := NewSystem(cfg, hw)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := s.NextBatchData()
	if err != nil {
		t.Fatal(err)
	}
	return bd.Plan.routeTransports(prefersCollective)
}

// hybridCase runs the hybrid backend functionally (bit-exact vs Reference)
// and timing-only (equal TotalTime) on one configuration.
func hybridCase(t *testing.T, cfg Config, hw HardwareParams) {
	t.Helper()
	run := func(functional bool) *Result {
		c := cfg
		c.Functional = functional
		s, err := NewSystem(c, hw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(&Hybrid{})
		if err != nil {
			t.Fatal(err)
		}
		if functional {
			want := mustReference(t, s, res.LastBatch)
			for g := range want {
				if !tensor.Equal(res.Final[g], want[g]) {
					t.Fatalf("GPU %d differs from reference (max diff %g)",
						g, tensor.MaxAbsDiff(res.Final[g], want[g]))
				}
			}
		}
		return res
	}
	fRes := run(true)
	tRes := run(false)
	if math.Abs(fRes.TotalTime-tRes.TotalTime) > 1e-9 {
		t.Errorf("functional total %g != timing total %g", fRes.TotalTime, tRes.TotalTime)
	}
}

// On the calibrated hardware the header tax never exceeds the collective
// overheads, so every pair prefers stores and hybrid == pgas-fused exactly.
func TestHybridDefaultHardwareIsAllStores(t *testing.T) {
	cfg := clusterTestConfig(4)
	anyColl, _ := probeRoutes(t, cfg, DefaultHardware())
	if anyColl {
		t.Fatal("default hardware routed a pair through the collective; expected all-stores")
	}
	run := func(be Backend) *Result {
		s, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(be)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hres := run(&Hybrid{})
	pres := run(&PGASFused{})
	if hres.TotalTime != pres.TotalTime {
		t.Errorf("all-stores hybrid total %g != pgas-fused total %g", hres.TotalTime, pres.TotalTime)
	}
}

// With the header tax inflated on a single node, every pair crosses over and
// hybrid must delegate to the baseline wholesale — and stay bit-exact across
// the dedup × cache grid.
func TestHybridAllCollectiveMode(t *testing.T) {
	hw := headerTaxedHardware(0)
	for _, dedup := range []bool{false, true} {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("dedup=%v,cache=%v", dedup, cached), func(t *testing.T) {
				cfg := clusterTestConfig(4)
				cfg.Dedup = dedup
				if cached {
					cfg.CacheFraction = 1e-8
				}
				anyColl, allColl := probeRoutes(t, cfg, hw)
				if !anyColl || !allColl {
					t.Fatalf("header-taxed single node: anyColl=%v allColl=%v, want all-collective", anyColl, allColl)
				}
				hybridCase(t, cfg, hw)
			})
		}
	}
}

// With the header tax inflated on a 2-node cluster, intra-node pairs cross
// over to the collective while cross-node pairs must stay on the one-sided
// proxy path — the genuinely mixed mode, where one batch carries both
// transports.
func TestHybridMixedMode(t *testing.T) {
	hw := headerTaxedHardware(2)
	for _, dedup := range []bool{false, true} {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("dedup=%v,cache=%v", dedup, cached), func(t *testing.T) {
				cfg := clusterTestConfig(4)
				cfg.Dedup = dedup
				if cached {
					cfg.CacheFraction = 1e-8
				}
				anyColl, allColl := probeRoutes(t, cfg, hw)
				if !anyColl || allColl {
					t.Fatalf("header-taxed cluster: anyColl=%v allColl=%v, want mixed", anyColl, allColl)
				}
				hybridCase(t, cfg, hw)
			})
		}
	}
}

// The adaptive promise: on the paper's weak-scaling sweep point the hybrid
// backend's total EMB time must not exceed the better pure backend. (On the
// calibrated machine it rides the store path everywhere, so it inherits the
// pgas-fused win over the baseline.)
func TestHybridNotSlowerThanPureBackends(t *testing.T) {
	cfg := WeakScalingConfig(4)
	cfg.Batches = 5
	run := func(be Backend) sim.Duration {
		s, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(be)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	hybrid := run(&Hybrid{})
	base := run(&Baseline{})
	pgas := run(&PGASFused{})
	best := base
	if pgas < best {
		best = pgas
	}
	if hybrid > best*(1+1e-12) {
		t.Errorf("hybrid total %g exceeds min(baseline %g, pgas-fused %g)", hybrid, base, pgas)
	}
}
