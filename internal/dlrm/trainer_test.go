package dlrm

import (
	"testing"

	"pgasemb/internal/retrieval"
)

func TestTrainerRunsAndMeasures(t *testing.T) {
	cfg := retrieval.TestScaleConfig(2)
	tr, err := NewTrainer(cfg, retrieval.DefaultHardware(),
		&retrieval.PGASFused{}, &retrieval.BackwardPGAS{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 || res.EMBForward <= 0 || res.EMBBackward <= 0 {
		t.Fatalf("times: total=%v fwd=%v bwd=%v", res.TotalTime, res.EMBForward, res.EMBBackward)
	}
	if res.EMBForward+res.EMBBackward > res.TotalTime {
		t.Fatalf("EMB segments (%v + %v) exceed total %v",
			res.EMBForward, res.EMBBackward, res.TotalTime)
	}
	if res.ForwardName != "pgas-fused" || res.BackwardName != "backward-pgas" {
		t.Fatalf("names: %s / %s", res.ForwardName, res.BackwardName)
	}
}

func TestTrainerFunctionalUpdates(t *testing.T) {
	// A training run must both produce forward outputs and move table
	// weights (gradients applied).
	cfg := retrieval.TestScaleConfig(2)
	tr, err := NewTrainer(cfg, retrieval.DefaultHardware(),
		&retrieval.PGASFused{}, &retrieval.BackwardPGAS{})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := tr.Sys.Collection(0)
	if err != nil {
		t.Fatal(err)
	}
	var before []float32
	for _, tbl := range coll.Tables {
		before = append(before, tbl.Weights.Data()...)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	var after []float32
	for _, tbl := range coll.Tables {
		after = append(after, tbl.Weights.Data()...)
	}
	changed := false
	for i := range before {
		if before[i] != after[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("training run did not update embedding weights")
	}
}

func TestTrainerPGASBeatsCollectiveEndToEnd(t *testing.T) {
	// The headline of the future-work section, measured over whole
	// training steps: one-sided forward + backward beats collective
	// forward + backward.
	cfg := retrieval.WeakScalingConfig(2)
	cfg.Batches = 3
	run := func(fwd, bwd retrieval.Backend) float64 {
		tr, err := NewTrainer(cfg, retrieval.DefaultHardware(), fwd, bwd)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	collective := run(&retrieval.Baseline{}, &retrieval.BackwardBaseline{})
	pgas := run(&retrieval.PGASFused{}, &retrieval.BackwardPGAS{})
	if pgas >= collective {
		t.Fatalf("PGAS training step (%v) not faster than collective (%v)", pgas, collective)
	}
	// Mixed configurations sit in between.
	mixed := run(&retrieval.Baseline{}, &retrieval.BackwardPGAS{})
	if !(pgas < mixed && mixed < collective) {
		t.Fatalf("mixed config out of order: pgas=%v mixed=%v collective=%v", pgas, mixed, collective)
	}
}

func TestTrainerSingleGPU(t *testing.T) {
	cfg := retrieval.TestScaleConfig(1)
	tr, err := NewTrainer(cfg, retrieval.DefaultHardware(),
		&retrieval.Baseline{}, &retrieval.BackwardBaseline{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Fatal("single-GPU training produced no time")
	}
}

// A 4-GPU trainer on two nodes runs end to end: the gradient ring's hops
// from GPU 1 to 2 and from 3 to 0 cross nodes and are priced on the NIC,
// capped by the collective channel bandwidth; same-node hops stay on NVLink.
func TestTrainerMultiNode(t *testing.T) {
	cfg := retrieval.TestScaleConfig(4)
	hw := retrieval.ClusterHardware(2)
	tr, err := NewTrainer(cfg, hw, &retrieval.PGASFused{}, &retrieval.BackwardPGAS{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 || res.EMBForward <= 0 || res.EMBBackward <= 0 {
		t.Fatalf("times: total=%v fwd=%v bwd=%v", res.TotalTime, res.EMBForward, res.EMBBackward)
	}
	s := tr.Sys
	const bytes = 1 << 20
	ring := func(bw float64) float64 {
		if cb := s.HW.Collective.ChannelBandwidth; cb < bw {
			bw = cb
		}
		return 2 * 3 * (bytes / 4 / bw)
	}
	for g := 0; g < 4; g++ {
		next := (g + 1) % 4
		want := ring(s.HW.NIC.Bandwidth)
		if s.NodeOf(g) == s.NodeOf(next) {
			want = ring(s.Fab.PairBandwidth(g, next))
		}
		if got := allReduceTime(s, g, bytes); got != want {
			t.Errorf("GPU %d -> %d hop: all-reduce time %g, want %g", g, next, got, want)
		}
	}
}
