package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pgasemb/internal/retrieval"
	"pgasemb/internal/sim"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 23
		var mu sync.Mutex
		seen := make(map[int]int)
		err := forEach(context.Background(), workers, n, func(i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: ran %d of %d indices", workers, len(seen), n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachReportsLowestIndexError(t *testing.T) {
	// Serially (workers == 1) the reported error is exactly the one a plain
	// loop would hit: the lowest failing index.
	boom := func(i int) error { return fmt.Errorf("job %d failed", i) }
	fail25 := func(i int) error {
		if i == 2 || i == 5 {
			return boom(i)
		}
		return nil
	}
	if err := forEach(context.Background(), 1, 8, fail25); err == nil || err.Error() != "job 2 failed" {
		t.Fatalf("serial: err = %v, want job 2's error", err)
	}
	// In parallel, which failing job runs first depends on scheduling (a
	// later failure cancels earlier jobs that have not started), but the
	// reported error must always be one of the real failures — never a
	// bare cancellation, never nil.
	for trial := 0; trial < 10; trial++ {
		err := forEach(context.Background(), 4, 8, fail25)
		if err == nil || (err.Error() != "job 2 failed" && err.Error() != "job 5 failed") {
			t.Fatalf("trial %d: err = %v, want one of the injected job errors", trial, err)
		}
	}
}

func TestForEachStopsAfterFailure(t *testing.T) {
	var ran int64
	err := forEach(context.Background(), 1, 100, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 3 {
			return errors.New("stop here")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if got := atomic.LoadInt64(&ran); got > 5 {
		t.Fatalf("%d jobs ran after the failure should have cancelled the rest", got)
	}
}

func TestForEachHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	err := forEach(ctx, 4, 10, func(i int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if atomic.LoadInt64(&ran) != 0 {
		t.Fatal("jobs ran under a cancelled context")
	}
}

// fastOpts keeps the engine determinism sweeps quick.
func fastOpts(parallel int) Options {
	return Options{Batches: 2, GPUs: 3, Parallel: parallel}
}

// TestParallelScalingMatchesSerial is the engine's core guarantee: the
// rendered tables and CSVs of a parallel sweep are byte-identical to a
// serial sweep's.
func TestParallelScalingMatchesSerial(t *testing.T) {
	for _, kind := range []ScalingKind{WeakScaling, StrongScaling} {
		serial, err := RunScaling(context.Background(), kind, fastOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := RunScaling(context.Background(), kind, fastOpts(4))
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range []struct {
			name string
			s, p *Table
		}{
			{"speedups", serial.SpeedupTable(), parallel.SpeedupTable()},
			{"factors", serial.FactorTable(), parallel.FactorTable()},
			{"breakdown", serial.BreakdownTable(), parallel.BreakdownTable()},
		} {
			if pair.s.Render() != pair.p.Render() {
				t.Errorf("%s %s: parallel Render differs from serial", kind, pair.name)
			}
			if pair.s.CSV() != pair.p.CSV() {
				t.Errorf("%s %s: parallel CSV differs from serial", kind, pair.name)
			}
		}
	}
}

func TestParallelAblationsMatchSerial(t *testing.T) {
	serial, err := RunAblations(context.Background(), 3, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAblations(context.Background(), 3, fastOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	if AblationTable(serial).CSV() != AblationTable(parallel).CSV() {
		t.Fatal("parallel ablation table differs from serial")
	}
}

func TestParallelStatsMatchSerial(t *testing.T) {
	serial, err := RunScalingStats(context.Background(), WeakScaling, 3, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunScalingStats(context.Background(), WeakScaling, 3, fastOpts(6))
	if err != nil {
		t.Fatal(err)
	}
	s := StatsTable(WeakScaling, serial)
	p := StatsTable(WeakScaling, parallel)
	if s.CSV() != p.CSV() {
		t.Fatalf("parallel stats differ from serial:\n%s\n---\n%s", s.CSV(), p.CSV())
	}
}

func TestParallelCommVolumeMatchesSerial(t *testing.T) {
	serial, err := RunCommVolume(context.Background(), WeakScaling, 2, 50, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCommVolume(context.Background(), WeakScaling, 2, 50, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if serial.CSVTable().CSV() != parallel.CSVTable().CSV() {
		t.Fatal("parallel comm-volume profile differs from serial")
	}
}

func TestExperimentContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunScaling(ctx, WeakScaling, fastOpts(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunScaling: err = %v, want context.Canceled", err)
	}
	if _, err := RunAblations(ctx, 2, fastOpts(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAblations: err = %v, want context.Canceled", err)
	}
}

func TestBenchRecordsExperiments(t *testing.T) {
	b := NewBench()
	opts := fastOpts(2)
	opts.Bench = b
	if _, err := RunScaling(context.Background(), WeakScaling, opts); err != nil {
		t.Fatal(err)
	}
	rep := b.Report()
	if len(rep.Experiments) != 1 {
		t.Fatalf("recorded %d experiments, want 1", len(rep.Experiments))
	}
	e := rep.Experiments[0]
	if e.Name != "weak-scaling" || e.Parallel != 2 {
		t.Fatalf("experiment record %+v", e)
	}
	if e.Runs != 2*3 {
		t.Fatalf("recorded %d runs, want 6", e.Runs)
	}
	if e.WallSeconds <= 0 || e.RunSeconds <= 0 {
		t.Fatalf("timings not recorded: %+v", e)
	}
	if rep.TotalWallSeconds <= 0 || rep.GoMaxProcs <= 0 {
		t.Fatalf("report totals missing: %+v", rep)
	}
}

// Every runner records one experiment whose run count equals its number of
// points — the dlrm-pipeline and serving sweeps included, whose points are
// not retrieval runs.
func TestBenchRecordsRunsPerPoint(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		want string
		// run executes the sweep and returns its number of points.
		run func(opts Options) (int, error)
	}{
		{"scaling", "weak-scaling", func(o Options) (int, error) {
			r, err := RunScaling(ctx, WeakScaling, o)
			return 2 * len(r.Points), err
		}},
		{"multinode", "multinode-strong-scaling", func(o Options) (int, error) {
			o.Nodes, o.GPUs, o.Batches = 2, 2, 1
			r, err := RunScaling(ctx, StrongScaling, o)
			return 2 * len(r.Points), err
		}},
		{"commvolume", "weak-commvolume-2gpu", func(o Options) (int, error) {
			_, err := RunCommVolume(ctx, WeakScaling, 2, 10, o)
			return 2, err
		}},
		{"stats", "weak-scaling-stats", func(o Options) (int, error) {
			s, err := RunScalingStats(ctx, WeakScaling, 2, o)
			return 2 * 2 * len(s), err
		}},
		{"ablations", "ablations-2gpu", func(o Options) (int, error) {
			r, err := RunAblations(ctx, 2, o)
			return len(r), err
		}},
		{"pairs", "sweep-chunks", func(o Options) (int, error) {
			var cfgs []retrieval.Config
			for _, c := range []int{4, 16} {
				cfg := retrieval.WeakScalingConfig(2)
				cfg.ChunksPerKernel = c
				cfgs = append(cfgs, cfg)
			}
			r, err := RunPairs(ctx, "sweep-chunks", cfgs, o)
			return 2 * len(r), err
		}},
		{"pipeline-depth", "pipeline-depth-2gpu", func(o Options) (int, error) {
			r, err := RunPipelineDepth(ctx, 2, []int{1, 2}, o)
			return len(r), err
		}},
		{"serving", "serving", func(o Options) (int, error) {
			base, hw := servingTestBase(), servingTestHW()
			o.HW = &hw
			r, err := RunServing(ctx, ServingOptions{Options: o, Rates: []float64{2000},
				CacheFractions: []float64{0, 0.01}, Duration: 50 * sim.Millisecond, Base: &base})
			return len(r.Points), err
		}},
		{"chaos", "chaos", func(o Options) (int, error) {
			co := chaosTestOptions()
			co.Parallel, co.Bench = o.Parallel, o.Bench
			co.Profiles, co.Duration = []string{"none"}, 50*sim.Millisecond
			r, err := RunChaos(ctx, co)
			return len(r.Points), err
		}},
		{"placement", "placement", func(o Options) (int, error) {
			po := placementTestOptions()
			po.Parallel, po.Bench = o.Parallel, o.Bench
			po.Policies = []string{"static", "adaptive"}
			r, err := RunPlacement(ctx, po)
			return len(r.Points), err
		}},
		{"precision", "precision-sweep", func(o Options) (int, error) {
			o.Nodes, o.GPUs, o.Batches = 2, 2, 1
			o.Backends = []string{"baseline"}
			r, err := RunPrecision(ctx, o)
			return len(r.Points) + len(precisionSweep), err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBench()
			opts := fastOpts(2)
			opts.BatchSize, opts.Bench = 1024, b
			points, err := c.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			rep := b.Report()
			if len(rep.Experiments) != 1 {
				t.Fatalf("recorded %d experiments, want 1", len(rep.Experiments))
			}
			e := rep.Experiments[0]
			if e.Name != c.want || e.Parallel != 2 {
				t.Fatalf("experiment record %+v, want name %q at parallel 2", e, c.want)
			}
			if e.Runs != points {
				t.Fatalf("recorded %d runs, want one per point (%d)", e.Runs, points)
			}
			if e.WallSeconds <= 0 || e.RunSeconds <= 0 {
				t.Fatalf("timings not recorded: %+v", e)
			}
		})
	}
}

func TestBenchNilSafe(t *testing.T) {
	var b *Bench
	stop := b.Start("x", 1)
	b.noteRun(0)
	stop()
	if rep := b.Report(); len(rep.Experiments) != 0 {
		t.Fatal("nil bench recorded experiments")
	}
}
