package main

import (
	"fmt"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
	"pgasemb/internal/workload"
)

// runWorkload builds the named workload from the seed and runs it.
func runWorkload(op options, o *outcome, tr *tracer) error {
	seed := mixSeed(op.seed)
	switch op.workload {
	case "paper-weak4":
		return paperWeak4(seed, op.tiny).run(o, tr, op)
	case "cluster-zipf-dedup":
		return clusterZipfDedup(seed, op.tiny).run(o, tr, op)
	case "serve-zipf-cache":
		return serveZipfCache(seed, op.tiny).run(o, tr, op)
	case "functional-check":
		return functionalCheck(seed, op.tiny).run(o, tr, op)
	}
	return fmt.Errorf("unknown workload %q (want one of %v)", op.workload, workloadNames)
}

// mixSeed spreads the command-line seed over the 64-bit seed space
// (splitmix64), so nearby seeds give unrelated inputs.
func mixSeed(s uint64) uint64 {
	s += 0x9E3779B97F4A7C15
	s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9
	s = (s ^ (s >> 27)) * 0x94D049BB133111EB
	s ^= s >> 31
	if s == 0 {
		s = 1
	}
	return s
}

// paperWeak4 is the paper's §IV-A weak-scaling shape at 4 GPUs in timing
// mode: uniform indices, 256 tables, batch 16384, pooling U[1,128], d=64.
func paperWeak4(seed uint64, tiny bool) *batchBench {
	cfg := retrieval.WeakScalingConfig(4)
	if tiny {
		cfg = retrieval.WeakScalingConfig(2)
		cfg.TotalTables, cfg.Rows, cfg.BatchSize, cfg.MaxPooling = 8, 4096, 256, 16
	}
	cfg.Batches, cfg.Seed = 1, seed
	return &batchBench{
		cfg: cfg, hw: retrieval.DefaultHardware(),
		backends: [2]retrieval.Backend{&retrieval.PGASFused{}, &retrieval.Baseline{}},
		perRound: 2, probeN: 2, paper: paperSpeedup,
	}
}

// clusterZipfDedup is 2 nodes × 2 GPUs over Zipf-1.2 indices with dedup and
// fp16 wire rows, on the hybrid backend, in timing mode.
func clusterZipfDedup(seed uint64, tiny bool) *batchBench {
	nodes, perNode := 2, 2
	if tiny {
		perNode = 1
	}
	cfg := retrieval.MultiNodeConfig(nodes, perNode)
	if tiny {
		cfg.TotalTables, cfg.Rows, cfg.BatchSize = 8, 512, 256
	}
	cfg.Batches, cfg.Seed, cfg.WirePrecision = 1, seed, retrieval.FP16
	return &batchBench{
		cfg: cfg, hw: retrieval.ClusterHardware(nodes),
		backends: [2]retrieval.Backend{&retrieval.Hybrid{}, &retrieval.Baseline{}},
		perRound: 1, probeN: 1,
	}
}

// serveZipfCache serves the Zipf serving shape with a 1% hot-row cache on
// pgas-fused, along a ladder of open-loop Poisson rates.
func serveZipfCache(seed uint64, tiny bool) *serveBench {
	cfg := retrieval.ServingScaleConfig(4)
	ladder := []rung{
		{8000, 250 * sim.Millisecond},
		{16000, 700 * sim.Millisecond},
		{24000, 250 * sim.Millisecond},
		{32000, 250 * sim.Millisecond},
	}
	minSamples := 10000
	hostRung := rung{16000, 100 * sim.Millisecond}
	if tiny {
		cfg = retrieval.ServingScaleConfig(2)
		cfg.TotalTables, cfg.Rows, cfg.BatchSize, cfg.MaxPooling = 4, 2048, 64, 8
		ladder = []rung{{250, 0.1}, {500, 0.1}, {1000, 0.1}, {4000, 0.1}}
		hostRung = rung{500, 0.05}
		minSamples = 0
	}
	cfg.CacheFraction, cfg.Seed = 0.01, seed
	return &serveBench{
		base: cfg, hw: retrieval.DefaultHardware(), backend: &retrieval.PGASFused{},
		ladder: ladder, nominal: 1, hostRung: hostRung, minSamples: minSamples, batchK: 2, probeN: 2,
	}
}

// functionalCheck runs the real data plane at a moderate shape: every
// backend's EMB outputs and predictions are checked bit-for-bit against the
// serial references.
func functionalCheck(seed uint64, tiny bool) *batchBench {
	cfg := retrieval.Config{
		GPUs: 4, TotalTables: 32, Rows: 8192, Dim: 64, BatchSize: 256,
		MinPooling: 1, MaxPooling: 32, Batches: 1, Seed: seed, ChunksPerKernel: 8,
		Functional: true, NullProbability: 0.05,
		Distribution: workload.Zipf, ZipfExponent: 1.1,
		Dedup: true, WirePrecision: retrieval.Int8,
	}
	if tiny {
		cfg.GPUs, cfg.TotalTables, cfg.Rows, cfg.Dim, cfg.BatchSize, cfg.MaxPooling = 2, 4, 256, 8, 32, 5
	}
	return &batchBench{
		cfg: cfg, hw: retrieval.DefaultHardware(),
		backends: [2]retrieval.Backend{&retrieval.PGASFused{}, &retrieval.Baseline{}},
		perRound: 1, probeN: 1,
	}
}
