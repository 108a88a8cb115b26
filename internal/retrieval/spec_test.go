package retrieval

import (
	"strings"
	"testing"
	"testing/quick"

	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
)

// Every device allocation kind counts against GPU memory at spec
// construction: a base shape filling 60% of each GPU fits, and each kind
// pushed past the remaining 40% is rejected before any run is wired.
func TestNewSystemSpecRejectsShardOverMemory(t *testing.T) {
	hw := DefaultHardware()
	base := Config{
		GPUs:            2,
		TotalTables:     4,
		Dim:             64,
		BatchSize:       64,
		MinPooling:      1,
		MaxPooling:      4,
		Batches:         1,
		Seed:            1,
		ChunksPerKernel: 4,
	}
	// Two tables per GPU at 30% of device memory each.
	base.Rows = int(hw.GPU.MemoryCapacity * 3 / 10 / int64(base.Dim*4))
	if _, err := NewSystemSpec(base, hw); err != nil {
		t.Fatalf("base shape (60%% of memory) rejected: %v", err)
	}
	cases := []struct {
		alloc  string
		mutate func(*Config)
	}{
		{"embedding-tables", func(c *Config) { c.Rows *= 2 }},
		{"hot-row-cache", func(c *Config) { c.CacheFraction = 0.5 }},
		{"hot-mirror", func(c *Config) {
			c.AdaptivePlacement, c.RebalanceEvery, c.HotTables = true, 1, 2
		}},
		{"mirror-shards", func(c *Config) { c.Replicas = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.alloc, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("mutated config is invalid, not oversized: %v", err)
			}
			_, err := NewSystemSpec(cfg, hw)
			if err == nil || !strings.Contains(err.Error(), "cannot hold its shard") {
				t.Fatalf("%s past device memory: got %v, want a shard-capacity error", tc.alloc, err)
			}
		})
	}
}

// Property: for random small configurations, baseline and PGAS fused always
// produce identical outputs — the central correctness claim, fuzzed over
// the configuration space.
func TestBackendsAgreeOnRandomConfigsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		gpus := rng.IntRange(1, 4)
		cfg := Config{
			GPUs:            gpus,
			TotalTables:     rng.IntRange(gpus, 8),
			Rows:            rng.IntRange(2, 64),
			Dim:             rng.IntRange(1, 12),
			BatchSize:       rng.IntRange(gpus, 24),
			MinPooling:      0,
			MaxPooling:      rng.IntRange(0, 6),
			Batches:         1,
			Seed:            rng.Uint64(),
			ChunksPerKernel: rng.IntRange(1, 6),
			Functional:      true,
			NullProbability: rng.Float64() * 0.3,
		}
		if cfg.Validate() != nil {
			return true // skip invalid combos
		}
		run := func(b Backend) []*tensor.Tensor {
			s, err := NewSystem(cfg, DefaultHardware())
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return nil
			}
			res, err := s.Run(b)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return nil
			}
			return res.Final
		}
		a := run(&Baseline{})
		b := run(&PGASFused{})
		if a == nil || b == nil {
			return false
		}
		for g := range a {
			if !tensor.Equal(a[g], b[g]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
