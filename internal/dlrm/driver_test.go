package dlrm

import (
	"reflect"
	"testing"

	"pgasemb/internal/fault"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/workload"
)

// A fault schedule must slow a training run down exactly as it slows an EMB
// run: the trainer's lockstep batches enter through the same barrier plus
// ApplyFaults as System.Run.
func TestTrainerAppliesFaults(t *testing.T) {
	run := func(profile string) float64 {
		t.Helper()
		sched, err := fault.Profile(profile, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := retrieval.TestScaleConfig(2)
		cfg.Functional = false
		cfg.Batches = 8
		hw := retrieval.DefaultHardware()
		hw.Faults = sched
		tr, err := NewTrainer(cfg, hw, &retrieval.PGASFused{}, &retrieval.BackwardPGAS{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	healthy := run("none")
	for _, profile := range []string{"flaky-link", "straggler"} {
		if got := run(profile); got <= healthy {
			t.Errorf("trainer under %s: total %v is not above the healthy %v", profile, got, healthy)
		}
	}
}

// placementSkewPipelineConfig is retrieval's placement acceptance shape: Zipf
// indices, two dominant and two mid-hot tables all colocated on GPU 0 by the
// static table-wise plan, rebalanced every 3 batches.
func placementSkewPipelineConfig(functional bool) retrieval.Config {
	pool := make([]int, 16)
	for f := range pool {
		pool[f] = 4
	}
	pool[0], pool[1] = 64, 64
	pool[2], pool[3] = 16, 16
	return retrieval.Config{
		GPUs:                 4,
		TotalTables:          16,
		Rows:                 512,
		Dim:                  16,
		BatchSize:            128,
		MinPooling:           1,
		MaxPooling:           4,
		PerFeatureMaxPooling: pool,
		Batches:              12,
		Seed:                 2024,
		ChunksPerKernel:      4,
		Distribution:         workload.Zipf,
		ZipfExponent:         1.2,
		Functional:           functional,
		AdaptivePlacement:    true,
		RebalanceEvery:       3,
	}
}

// An adaptive-placement pipeline rebalances between epochs like System.Run,
// and the relocated tables still produce the reference predictions.
func TestPipelineAdaptivePlacement(t *testing.T) {
	for _, functional := range []bool{false, true} {
		pl, err := NewPipeline(placementSkewPipelineConfig(functional), retrieval.DefaultHardware(), &retrieval.PGASFused{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Run()
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(pl.Sys.Plan, pl.Sys.Spec.Plan()) {
			t.Errorf("functional=%v: the skewed pipeline run ended on the static plan; it never rebalanced", functional)
		}
		if !functional {
			continue
		}
		want := mustReferencePredictions(t, pl, res.LastSparse, res.LastDense)
		at := 0
		for g, part := range res.Predictions {
			for i := 0; i < part.Dim(0); i++ {
				if got, w := part.At(i, 0), want.At(at, 0); got != w {
					t.Fatalf("GPU %d: prediction %d = %v, reference %v", g, at, got, w)
				}
				at++
			}
		}
	}
}
