package retrieval

import (
	"context"
	"testing"

	"pgasemb/internal/workload"
)

// benchConfig is a timing-only mid-scale configuration: big enough that the
// per-batch arenas matter, small enough that one batch is microseconds of
// host time.
func benchConfig() Config {
	return Config{
		GPUs:            4,
		TotalTables:     16,
		Rows:            4096,
		Dim:             64,
		BatchSize:       1024,
		MinPooling:      1,
		MaxPooling:      8,
		Batches:         1,
		Seed:            2024,
		ChunksPerKernel: 4,
		Distribution:    workload.Zipf,
		ZipfExponent:    1.2,
	}
}

func benchRun(b *testing.B, cfg Config, backend Backend) {
	benchRunHW(b, cfg, DefaultHardware(), backend)
}

func benchRunHW(b *testing.B, cfg Config, hw HardwareParams, backend Backend) {
	b.Helper()
	sys, err := NewSystem(cfg, hw)
	if err != nil {
		b.Fatal(err)
	}
	loop, err := prepareBenchLoop(sys, backend)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := loop.run(context.Background(), b.N); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBaselineBatch(b *testing.B) {
	benchRun(b, benchConfig(), &Baseline{})
}

func BenchmarkBaselineBatchDedup(b *testing.B) {
	cfg := benchConfig()
	cfg.Dedup = true
	benchRun(b, cfg, &Baseline{})
}

func BenchmarkPGASFusedBatch(b *testing.B) {
	benchRun(b, benchConfig(), &PGASFused{})
}

func BenchmarkPGASFusedBatchDedup(b *testing.B) {
	cfg := benchConfig()
	cfg.Dedup = true
	benchRun(b, cfg, &PGASFused{})
}

// BenchmarkPGASFusedBatchPipelined drives the window-pipelined (depth 2)
// schedule: per-slot arenas, the sliding-window rendezvous and QuietSlot are
// all on the measured loop.
func BenchmarkPGASFusedBatchPipelined(b *testing.B) {
	cfg := benchConfig()
	cfg.PipelineDepth = 2
	benchRun(b, cfg, &PGASFused{})
}

// Reduced-wire-precision variants: the codec's per-transfer accounting (vector
// counts, encode/decode kernel charges) must ride the same warm arenas.
func BenchmarkPGASFusedBatchFP16(b *testing.B) {
	cfg := benchConfig()
	cfg.WirePrecision = FP16
	benchRun(b, cfg, &PGASFused{})
}

func BenchmarkPGASFusedBatchInt8(b *testing.B) {
	cfg := benchConfig()
	cfg.WirePrecision = Int8
	benchRun(b, cfg, &PGASFused{})
}

func BenchmarkPGASFusedBatchCached(b *testing.B) {
	cfg := benchConfig()
	cfg.CacheFraction = 0.0001
	benchRun(b, cfg, &PGASFused{})
}

func BenchmarkPGASFusedBatchReplicated(b *testing.B) {
	cfg := benchConfig()
	cfg.Replicas = 2
	benchRun(b, cfg, &PGASFused{})
}

func BenchmarkBaselineBatchReplicated(b *testing.B) {
	cfg := benchConfig()
	cfg.Replicas = 2
	benchRun(b, cfg, &Baseline{})
}

func BenchmarkRowWisePGASBatch(b *testing.B) {
	cfg := benchConfig()
	cfg.Sharding = RowWise
	benchRun(b, cfg, &RowWisePGAS{})
}

// BenchmarkFunctionalPGASBatch measures the functional-mode hot path — the
// real tensor movement the arenas were built for.
func BenchmarkFunctionalPGASBatch(b *testing.B) {
	cfg := benchConfig()
	cfg.Rows = 512
	cfg.BatchSize = 256
	cfg.Functional = true
	cfg.Dedup = true
	benchRun(b, cfg, &PGASFused{})
}

// Multi-node variants: the same mid-scale batch on a 2-node cluster, so the
// proxy staging, NIC serialization and node-dedup paths are all on the
// measured loop.
func BenchmarkMultiNodeBaselineBatch(b *testing.B) {
	benchRunHW(b, benchConfig(), ClusterHardware(2), &Baseline{})
}

func BenchmarkMultiNodePGASBatch(b *testing.B) {
	benchRunHW(b, benchConfig(), ClusterHardware(2), &PGASFused{})
}

func BenchmarkMultiNodePGASBatchDedup(b *testing.B) {
	cfg := benchConfig()
	cfg.Dedup = true
	benchRunHW(b, cfg, ClusterHardware(2), &PGASFused{})
}

// BenchmarkRoutePlanCompile measures the host-side route-plan compiler
// across its classifier variants: plain, dedup key sets, hot-row cache view,
// both combined, and node-level dedup on a 2-node cluster.
func BenchmarkRoutePlanCompile(b *testing.B) {
	cases := []struct {
		name    string
		dedup   bool
		cached  bool
		cluster bool
	}{
		{"plain", false, false, false},
		{"dedup", true, false, false},
		{"cache", false, true, false},
		{"dedup-cache", true, true, false},
		{"cluster-dedup", true, false, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Dedup = c.dedup
			if c.cached {
				cfg.CacheFraction = 0.0001
			}
			hw := DefaultHardware()
			if c.cluster {
				hw = ClusterHardware(2)
			}
			sys, err := NewSystem(cfg, hw)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := PlanCompileLoop(sys, b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestMultiNodeSteadyStateZeroAllocs pins the steady-state allocation
// contract for the cluster hot paths: once a batch is classified and the
// arenas are warm, driving batches through the proxy/staging machinery —
// timer re-arming, per-node staging buffers, NIC message launches — must not
// allocate at all.
func TestMultiNodeSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	cases := []struct {
		name     string
		dedup    bool
		replicas int
		depth    int
		prec     Precision
		backend  Backend
		hw       HardwareParams
	}{
		{"pgas-fused", false, 0, 1, FP32, &PGASFused{}, ClusterHardware(2)},
		{"pgas-fused-dedup", true, 0, 1, FP32, &PGASFused{}, ClusterHardware(2)},
		{"pgas-fused-replicas2", false, 2, 1, FP32, &PGASFused{}, ClusterHardware(2)},
		{"baseline", false, 0, 1, FP32, &Baseline{}, ClusterHardware(2)},
		{"baseline-replicas2", false, 2, 1, FP32, &Baseline{}, ClusterHardware(2)},
		{"hybrid", false, 0, 1, FP32, &Hybrid{}, ClusterHardware(2)},
		{"hybrid-dedup", true, 0, 1, FP32, &Hybrid{}, ClusterHardware(2)},
		// Depth-2 pipelined variants: the per-slot arenas, window rendezvous
		// and QuietSlot path must hold the same zero-alloc contract.
		{"pgas-fused-depth2", false, 0, 2, FP32, &PGASFused{}, ClusterHardware(2)},
		{"pgas-fused-dedup-depth2", true, 0, 2, FP32, &PGASFused{}, ClusterHardware(2)},
		{"baseline-depth2", false, 0, 2, FP32, &Baseline{}, ClusterHardware(2)},
		{"hybrid-depth2", false, 0, 2, FP32, &Hybrid{}, ClusterHardware(2)},
		// Reduced-wire-precision variants: codec vector counting and the
		// encode/decode kernel charges must not allocate either.
		{"pgas-fused-batch-fp16", false, 0, 1, FP16, &PGASFused{}, ClusterHardware(2)},
		{"pgas-fused-batch-int8", false, 0, 1, Int8, &PGASFused{}, ClusterHardware(2)},
		{"baseline-fp16", false, 0, 1, FP16, &Baseline{}, ClusterHardware(2)},
		{"hybrid-int8", true, 0, 1, Int8, &Hybrid{}, ClusterHardware(2)},
		// Header-taxed cluster: intra-node pairs ride the all-to-all while
		// cross-node pairs stay on stores, so one batch runs both transports.
		{"hybrid-mixed", false, 0, 1, FP32, &Hybrid{}, headerTaxedHardware(2)},
		{"hybrid-mixed-dedup", true, 0, 1, FP32, &Hybrid{}, headerTaxedHardware(2)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := benchConfig()
			cfg.Dedup = c.dedup
			cfg.Replicas = c.replicas
			cfg.PipelineDepth = c.depth
			cfg.WirePrecision = c.prec
			r := testing.Benchmark(func(b *testing.B) {
				sys, err := NewSystem(cfg, c.hw)
				if err != nil {
					b.Fatal(err)
				}
				loop, err := prepareBenchLoop(sys, c.backend)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				if err := loop.run(context.Background(), b.N); err != nil {
					b.Fatal(err)
				}
			})
			if allocs := r.AllocsPerOp(); allocs != 0 {
				t.Errorf("multi-node %s steady state allocates %d allocs/op (want 0)", c.name, allocs)
			}
		})
	}
}
