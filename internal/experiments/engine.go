package experiments

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pgasemb/internal/retrieval"
)

// The experiment engine: every sweep lists its points, builds one point per
// call, and hands both to sweep, which dispatches the points across a
// bounded pool of host goroutines and returns their results in point order.
// The assembled tables are therefore byte-identical whatever the worker
// count: parallelism changes wall-clock time, never output. The spec/run
// split makes this safe — all runs of a sweep point share one immutable
// SystemSpec and own the rest of their state.

// Options is the block every sweep shares: the machine, the run size, the
// backends and the worker pool. The scaling, statistics, comm-volume,
// ablation, pipeline-depth and precision sweeps take it as is; the serving,
// chaos and placement sweeps embed it beside their own axes.
type Options struct {
	// GPUs is one node's GPU count (default 4). The scaling sweeps climb to
	// it one GPU at a time on a single node.
	GPUs int
	// Nodes joins that many NVLink nodes of GPUs each over the NIC fabric
	// (0 = one node without the fabric). The scaling sweeps then climb the
	// node count from 1 to Nodes instead.
	Nodes int
	// HW overrides the calibrated hardware model; a non-zero Nodes replaces
	// its node count.
	HW *retrieval.HardwareParams
	// Batches and BatchSize override the per-run batch count and global
	// batch size (0 = the configuration's). The chaos sweep does not use
	// them; the placement sweep defaults Batches to 48.
	Batches   int
	BatchSize int
	// Backends names the registered backends to sweep, each resolved to a
	// fresh instance per run (empty = the sweep's own list). The paired
	// sweeps — scaling, statistics, comm volume, pipeline depth — always run
	// the baseline column and take their accelerated column from the one
	// name given here (default pgas-fused).
	Backends []string
	// Dedup adds the batch-level index-deduplication axis to the scaling and
	// serving sweeps: every point also runs with deduplication on, and the
	// rendered tables grow the dedup columns.
	Dedup bool
	// WirePrecision sets the wire transport format for embedding rows
	// (FP32 = uncompressed, the default) at every point of the sweeps whose
	// configurations pass through config — all but chaos and placement; the
	// precision sweep sweeps it instead.
	WirePrecision retrieval.Precision
	// Parallel bounds the number of runs executed concurrently (0 =
	// GOMAXPROCS). Results are identical for every value.
	Parallel int
	// Bench, when set, records each sweep's wall-clock time and the host
	// time of every run.
	Bench *Bench
}

// positiveOr returns v when it is positive, def otherwise.
func positiveOr[T cmp.Ordered](v, def T) T {
	var zero T
	if v > zero {
		return v
	}
	return def
}

// listOr returns s when it is non-empty, def otherwise.
func listOr[S ~[]E, E any](s, def S) S {
	if len(s) > 0 {
		return s
	}
	return def
}

func (o Options) gpus() int { return positiveOr(o.GPUs, 4) }

func (o Options) parallel() int { return positiveOr(o.Parallel, runtime.GOMAXPROCS(0)) }

// hardware is the machine of a sweep point: HW or the calibrated defaults,
// with its node count replaced when nodes > 0.
func (o Options) hardware(nodes int) retrieval.HardwareParams {
	hw := retrieval.DefaultHardware()
	if o.HW != nil {
		hw = *o.HW
	}
	if nodes > 0 {
		hw.Nodes = nodes
		hw.Topology = nil
	}
	return hw
}

// config applies the run-size and wire-format overrides to a sweep point's
// configuration.
func (o Options) config(cfg retrieval.Config) retrieval.Config {
	cfg.Batches = positiveOr(o.Batches, cfg.Batches)
	cfg.BatchSize = positiveOr(o.BatchSize, cfg.BatchSize)
	cfg.WirePrecision = o.WirePrecision
	return cfg
}

// dedups is the dedup axis: off, then on when Dedup is set.
func (o Options) dedups() []bool {
	if o.Dedup {
		return []bool{false, true}
	}
	return []bool{false}
}

// accelerated is the paired sweeps' accelerated column: the one backend
// named in Backends, or pgas-fused.
func (o Options) accelerated() (string, error) {
	if len(o.Backends) > 1 {
		return "", fmt.Errorf("experiments: a paired sweep compares the baseline with one backend, got %v", o.Backends)
	}
	return listOr(o.Backends, []string{"pgas-fused"})[0], nil
}

// sweep is the point runner every experiment shares. It calls run once per
// point on the worker pool and returns the results in point order, records
// the experiment under name in the Bench with one run per point, and
// prefixes a failure with the experiment's name.
func sweep[P, R any](ctx context.Context, o Options, name string, points []P, run func(context.Context, P) (R, error)) ([]R, error) {
	out := make([]R, len(points))
	workers := o.parallel()
	stop := o.Bench.Start(name, workers)
	err := forEach(ctx, workers, len(points), func(i int) error {
		start := time.Now()
		r, err := run(ctx, points[i])
		o.Bench.noteRun(time.Since(start))
		out[i] = r
		return err
	})
	stop()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return out, nil
}

// specRun is one point of a sweep over prebuilt specs: the spec, the
// registered backend to run it under, and the workload seed.
type specRun struct {
	spec    *retrieval.SystemSpec
	backend string
	seed    uint64
}

// pair lists the paired sweeps' two runs of spec: the baseline column, then
// the accelerated one, both on the spec's own seed.
func pair(spec *retrieval.SystemSpec, accel string) []specRun {
	seed := spec.Config().Seed
	return []specRun{{spec, "baseline", seed}, {spec, accel, seed}}
}

// runSpec executes one specRun under a fresh instance of its backend.
func runSpec(ctx context.Context, p specRun) (*retrieval.Result, error) {
	backend, err := retrieval.NewBackendByName(p.backend)
	if err != nil {
		return nil, err
	}
	sys, err := p.spec.NewRunWithSeed(p.seed)
	if err != nil {
		return nil, err
	}
	r, err := sys.RunContext(ctx, backend)
	if err != nil {
		cfg := p.spec.Config()
		return nil, fmt.Errorf("%s, %d GPUs, dedup %v, %s: %w", p.backend, cfg.GPUs, cfg.Dedup, cfg.WirePrecision, err)
	}
	return r, nil
}

// forEach runs fn(0) .. fn(n-1) on at most `workers` goroutines and waits
// for all of them. The first error cancels the remaining jobs; the error
// reported is the lowest-index real failure among the jobs that ran
// (cancellations caused by another job's failure or by ctx are only
// reported when nothing else failed), so a failing sweep surfaces a real
// job error, never a bare cancellation. With workers == 1 this is exactly
// the error a serial loop would hit.
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if err := fn(i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			for j := i; j < n; j++ {
				if errs[j] == nil {
					errs[j] = ctx.Err()
				}
			}
			i = n
		}
	}
	close(jobs)
	wg.Wait()
	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) && cancelled == nil {
			cancelled = err
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return cancelled
}
