package retrieval

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"pgasemb/internal/fault"
	"pgasemb/internal/sim"
)

// driverSkewConfig is the placement acceptance shape in timing mode: four
// epochs of 3 batches, with the controller consulted between them.
func driverSkewConfig() Config {
	cfg := placementSkewConfig()
	cfg.AdaptivePlacement = true
	cfg.RebalanceEvery = 3
	return cfg
}

// Every GPU runs every batch step of a non-adaptive run in one epoch, and
// lockstep steps cost the slowest GPU's time each.
func TestDriveRunsEveryGPUOverEveryBatch(t *testing.T) {
	cfg := TestScaleConfig(3)
	cfg.Batches = 4
	s, err := NewSystem(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]int, cfg.GPUs)
	epochs := 0
	elapsed, last, err := s.Drive(context.Background(), "count", func(p *sim.Proc, g int, ep *Epoch) {
		if g == 0 {
			epochs++
			if ep.First != 0 || ep.Len() != cfg.Batches {
				t.Errorf("epoch First=%d Len=%d, want 0 and %d", ep.First, ep.Len(), cfg.Batches)
			}
		}
		for i := 0; i < ep.Len(); i++ {
			ep.Enter(p, i)
			if ep.Batch(i) == nil {
				t.Errorf("GPU %d step %d has no batch", g, i)
			}
			p.Wait(sim.Duration(g+1) * sim.Millisecond)
			steps[g]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if epochs != 1 {
		t.Errorf("%d epochs, want 1", epochs)
	}
	for g, n := range steps {
		if n != cfg.Batches {
			t.Errorf("GPU %d ran %d steps, want %d", g, n, cfg.Batches)
		}
	}
	if len(last) != cfg.Batches {
		t.Errorf("returned %d batches, want %d", len(last), cfg.Batches)
	}
	if want := float64(cfg.Batches) * 3 * sim.Millisecond; math.Abs(elapsed-want) > 1e-12 {
		t.Errorf("elapsed %v, want %v (slowest GPU per lockstep step)", elapsed, want)
	}
}

// Elapsed time is measured from the clock at the call, so a second run on
// the same System reports its own time, not the running total.
func TestDriveElapsedIsPerRun(t *testing.T) {
	cfg := TestScaleConfig(2)
	s, err := NewSystem(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	body := func(p *sim.Proc, g int, ep *Epoch) {
		for i := 0; i < ep.Len(); i++ {
			ep.Enter(p, i)
			p.Wait(2 * sim.Millisecond)
		}
	}
	first, _, err := s.Drive(context.Background(), "first", body)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := s.Drive(context.Background(), "second", body)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("second run elapsed %v, first %v: want equal", second, first)
	}
	if now := s.Env.Now(); math.Abs(now-(first+second)) > 1e-12 {
		t.Errorf("clock at %v after two runs of %v", now, first)
	}
}

// Under adaptive placement the driver runs one epoch per RebalanceEvery
// batches, numbers their batches by run index, returns the last epoch's
// batches and lets the controller rebalance between epochs.
func TestDriveEpochsUnderAdaptivePlacement(t *testing.T) {
	cfg := driverSkewConfig()
	s, err := NewSystem(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	var firsts []int
	_, last, err := s.Drive(context.Background(), "epochs", func(p *sim.Proc, g int, ep *Epoch) {
		if g == 0 {
			firsts = append(firsts, ep.First)
			if ep.Len() != cfg.RebalanceEvery {
				t.Errorf("epoch at %d has %d steps, want %d", ep.First, ep.Len(), cfg.RebalanceEvery)
			}
		}
		for i := 0; i < ep.Len(); i++ {
			ep.Enter(p, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 3, 6, 9}
	if len(firsts) != len(want) {
		t.Fatalf("epochs start at %v, want %v", firsts, want)
	}
	for i := range want {
		if firsts[i] != want[i] {
			t.Fatalf("epochs start at %v, want %v", firsts, want)
		}
	}
	if len(last) != cfg.RebalanceEvery {
		t.Errorf("returned %d batches, want the last epoch's %d", len(last), cfg.RebalanceEvery)
	}
	if s.rebalances == 0 {
		t.Error("the skewed shape never rebalanced between epochs")
	}
}

// Enter installs the fault schedule by run index, so a fault window that
// spans an epoch boundary hits the same batches as in a one-epoch run.
func TestDriveEnterAppliesFaultsByRunIndex(t *testing.T) {
	const straggler, from, to, factor = 1, 2, 5, 3.0
	hw := DefaultHardware()
	hw.Faults = &fault.Schedule{Events: []fault.Event{{
		Kind: fault.Straggler, GPU: straggler, FromBatch: from, ToBatch: to, Factor: factor,
	}}}
	cfg := driverSkewConfig()
	s, err := NewSystem(cfg, hw)
	if err != nil {
		t.Fatal(err)
	}
	slow := make([]float64, cfg.Batches)
	_, _, err = s.Drive(context.Background(), "faults", func(p *sim.Proc, g int, ep *Epoch) {
		for i := 0; i < ep.Len(); i++ {
			ep.Enter(p, i)
			if g == straggler {
				slow[ep.First+i] = s.Devs[g].Slowdown()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for b, got := range slow {
		want := 1.0
		if b >= from && b < to {
			want = factor
		}
		if got != want {
			t.Errorf("batch %d: GPU %d slowdown %v, want %v", b, straggler, got, want)
		}
	}
}

// A GPU body's panic ends the run with an error naming the GPU instead of
// crashing the process.
func TestDriveGPUPanicBecomesError(t *testing.T) {
	s, err := NewSystem(TestScaleConfig(2), DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Drive(context.Background(), "panics", func(p *sim.Proc, g int, ep *Epoch) {
		ep.Enter(p, 0)
		if g == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("a panicking GPU body returned no error")
	}
	if msg := err.Error(); !strings.Contains(msg, "GPU 1") || !strings.Contains(msg, "boom") {
		t.Errorf("error %q does not name GPU 1 and the panic", msg)
	}
}

// A context cancelled while the event loop runs stops the run with an
// error that carries the run's name and wraps ctx.Err().
func TestDriveCancelledInsideEventLoop(t *testing.T) {
	s, err := NewSystem(TestScaleConfig(2), DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	steps := 0
	_, _, err = s.Drive(ctx, "cancelled", func(p *sim.Proc, g int, ep *Epoch) {
		// Far more events than one cancellation-check interval.
		for i := 0; i < 100000; i++ {
			if g == 0 {
				steps++
				if i == 10 {
					cancel()
				}
			}
			p.Wait(sim.Microsecond)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled run") {
		t.Errorf("error %q does not name the run", err)
	}
	if steps >= 100000 {
		t.Error("the run was not stopped after cancellation")
	}
}
