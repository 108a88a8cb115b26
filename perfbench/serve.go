package main

import (
	"fmt"
	"time"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
)

// rung is one fixed arrival rate of the serving ladder; each rung is its own
// server run with an empty cache.
type rung struct {
	rate     float64      // requests per simulated second
	duration sim.Duration // arrival window
}

// serveBench serves open-loop Poisson arrivals on the simulated clock along
// a ladder of rates, with a persistent hot-row cache per run.
type serveBench struct {
	base    retrieval.Config
	hw      retrieval.HardwareParams
	backend retrieval.Backend
	ladder  []rung
	nominal int // ladder index of the rate p50 and p99 are reported at
	// hostRung is the short nominal-rate run the host-throughput rounds repeat.
	hostRung rung
	// minSamples is the fewest completed requests the nominal rung needs, so
	// p99 has at least 100 samples beyond it.
	minSamples int
	batchK     int // full-shape batches per backend in the batch phase
	probeN     int
}

func (w *serveBench) server(r rung) (*serve.Server, error) {
	return serve.NewServer(w.base, w.hw, w.backend, serve.Config{Rate: r.rate, Duration: r.duration, Seed: w.base.Seed})
}

func (w *serveBench) run(o *outcome, tr *tracer, op options) error {
	setup, err := repeatSetup(op, func() error {
		var err error
		tr.do("serve.NewServer", "serve", func() { _, err = w.server(w.ladder[w.nominal]) })
		return err
	})
	if err != nil {
		return err
	}
	o.e2e["setup_s"] = setup

	// Host throughput comes from rounds of a short serving run at the nominal
	// rate; every round must reproduce the first exactly.
	var first *serve.Result
	var loop timedLoop
	rate, err := hostRate(o, op, func(seconds float64) ([]float64, map[string]float64, error) {
		loop = timedLoop{seconds: seconds, trace: op.trace}
		err := loop.run(tr, func(r int) (int, error) {
			res, err := w.serveRung(o, tr, w.hostRung, true)
			if err != nil {
				return 0, err
			}
			if r == 0 {
				first = res
			} else {
				o.check(sameServe(first, res), "determinism: round %d served differently from round 0", r)
			}
			return res.Dispatches, nil
		})
		if err != nil {
			return nil, nil, err
		}
		return loop.rates(), map[string]float64{
			"dispatches": float64(first.Dispatches), "completed": float64(first.Completed),
			"p99_s": first.Percentile(99), "makespan_s": first.Makespan,
		}, nil
	})
	o.e2e["host_batches_per_s"] = rate
	if err != nil || op.hostPart {
		return err
	}

	model, modelInit, err := w.batchPhase(o, tr)
	if err != nil {
		return err
	}
	o.layer["dlrm.model_init_s"] = modelInit.Seconds()

	// The ladder runs once, for the simulated metrics.
	start := time.Now()
	results := make([]*serve.Result, len(w.ladder))
	dispatches := 0
	for i, r := range w.ladder {
		res, err := w.serveRung(o, tr, r, i <= w.nominal)
		if err != nil {
			return err
		}
		results[i] = res
		dispatches += res.Dispatches
	}
	ladderTime := time.Since(start)

	w.serveMetrics(o, tr, results)
	if !op.trace {
		return nil
	}
	o.layer["trace.overhead_frac"] = loop.overhead()
	o.layer["serve.host_ms_per_dispatch"] = ms(ladderTime) / float64(dispatches)
	if err := w.dispatchSetup(o, tr, model); err != nil {
		return err
	}
	cfg := w.base
	cfg.Batches = 1
	p := layerProbe{cfg: cfg, hw: w.hw, backend: w.backend, model: model, n: w.probeN}
	return p.run(o, tr)
}

// serveRung runs one rung and checks that it conserves requests. On rungs at
// or below the nominal rate every offered request is an attempted
// operation, and one that is dropped, shed or rejected is a failure; above
// it, drops are the capacity signal the ladder measures.
func (w *serveBench) serveRung(o *outcome, tr *tracer, r rung, counted bool) (*serve.Result, error) {
	var res *serve.Result
	var err error
	tr.do(fmt.Sprintf("serve rung %.0f req/s", r.rate), "serve", func() {
		var srv *serve.Server
		tr.do("serve.NewServer", "serve", func() { srv, err = w.server(r) })
		if err == nil {
			tr.do("serve.Server.Run", "serve", func() { res, err = srv.Run() })
		}
	})
	if err != nil {
		return nil, fmt.Errorf("serving %.0f req/s: %w", r.rate, err)
	}
	o.check(conserves(res), "%.0f req/s: offered %d != completed %d + dropped %d + shed %d + rejected %d",
		r.rate, res.Offered, res.Completed, res.Dropped, res.Resilience.Shed, res.Resilience.Rejected)
	if counted {
		o.attempted += res.Offered
		if n := lost(res); n > 0 {
			o.fail("%.0f req/s: %d of %d requests dropped, shed or rejected below capacity", r.rate, n, res.Offered)
			o.failed += n - 1
		}
	}
	return res, nil
}

// lost counts the requests a run dropped, shed or rejected.
func lost(res *serve.Result) int {
	return res.Dropped + int(res.Resilience.Shed+res.Resilience.Rejected)
}

// conserves reports whether every offered request is accounted for exactly
// once, and every completed one has a latency.
func conserves(res *serve.Result) bool {
	return res.Offered == res.Completed+lost(res) && len(res.Latencies) == res.Completed
}

// sameServe reports whether two runs of one rung served identically.
func sameServe(a, b *serve.Result) bool {
	if a.Offered != b.Offered || a.Completed != b.Completed || a.Dropped != b.Dropped ||
		a.Dispatches != b.Dispatches || a.PaddedSamples != b.PaddedSamples ||
		a.Makespan != b.Makespan || a.CacheStats != b.CacheStats || len(a.Latencies) != len(b.Latencies) {
		return false
	}
	for i, l := range a.Latencies {
		if b.Latencies[i] != l {
			return false
		}
	}
	return true
}

// batchPhase runs batchK full-shape batches of the serving configuration on
// the serving backend and on the baseline (each pipeline's cache starts
// empty) for the simulated per-batch times and speed-up. It returns the
// model, which the probe reuses, and the time NewModel took.
func (w *serveBench) batchPhase(o *outcome, tr *tracer) (*dlrm.Model, time.Duration, error) {
	bb := batchBench{cfg: w.base, hw: w.hw, backends: [2]retrieval.Backend{w.backend, &retrieval.Baseline{}}, perRound: w.batchK}
	bb.cfg.Batches = 1
	var modelInit time.Duration
	var err error
	tr.do("batch phase", "bench", func() {
		if modelInit, err = bb.setup(tr); err == nil {
			var rr *roundResult
			if rr, err = bb.round(o, tr); err == nil {
				bb.simMetrics(o, rr)
			}
		}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("batch phase: %w", err)
	}
	return bb.model, modelInit, nil
}

// serveMetrics fills the serving metrics from the ladder. They overwrite
// the batch phase's closed-loop values.
func (w *serveBench) serveMetrics(o *outcome, tr *tracer, results []*serve.Result) {
	nom := results[w.nominal]
	if len(nom.Latencies) < w.minSamples {
		o.fail("the %.0f req/s rung completed %d requests; p99 needs %d", nom.Rate, len(nom.Latencies), w.minSamples)
	}
	o.sim(o.e2e, "serve_p50_ms", 1e3*nom.Percentile(50))
	o.sim(o.e2e, "serve_p99_ms", 1e3*nom.Percentile(99))
	o.sim(o.e2e, "serve_max_rate_rps", w.maxRate(results))
	top := results[len(results)-1]
	good := 0
	for _, l := range top.Latencies {
		if l <= latencyLimit {
			good++
		}
	}
	span := top.Makespan
	if top.Duration > span {
		span = top.Duration
	}
	o.sim(o.e2e, "serve_goodput_rps", float64(good)/span)

	var offered, dropped, padded, completed int
	for i, res := range results {
		offered += res.Offered
		dropped += res.Dropped
		padded += res.PaddedSamples
		completed += res.Completed
		o.simPrint[fmt.Sprintf("rung%d.p99_ms", i)] = 1e3 * res.Percentile(99)
		o.simPrint[fmt.Sprintf("rung%d.completed", i)] = float64(res.Completed)
	}
	o.sim(o.layer, "serve.dispatches", float64(nom.Dispatches))
	o.sim(o.layer, "serve.pad_frac", ratio(float64(padded), float64(padded+completed)))
	o.sim(o.layer, "serve.drop_frac", ratio(float64(dropped), float64(offered)))
	// Arrivals are events on the simulated clock: the generator is never late.
	o.layer["serve.generator_lateness_ms"] = 0
	o.sim(o.layer, "cache.hit_rate", nom.HitRate())
	o.sim(o.layer, "cache.evictions_per_dispatch", ratio(float64(nom.CacheStats.Evictions), float64(nom.Dispatches)))
	tr.count("cache", map[string]float64{
		"hit_rate":               o.layer["cache.hit_rate"],
		"evictions_per_dispatch": o.layer["cache.evictions_per_dispatch"],
	})
}

// maxRate is the highest ladder rate whose p99 meets the latency limit with
// no growing backlog (at least 99% of offered requests completed), refined
// by linear interpolation toward the first rung that fails: the point where
// p99 or the completed fraction crosses its limit. Interpolating keeps the
// metric sensitive to changes smaller than one rung.
func (w *serveBench) maxRate(results []*serve.Result) float64 {
	type point struct{ rate, p99, done float64 }
	lo := point{done: 1}
	for i, res := range results {
		hi := point{rate: w.ladder[i].rate, p99: res.Percentile(99), done: ratio(float64(res.Completed), float64(res.Offered))}
		if hi.p99 <= latencyLimit && hi.done >= 0.99 {
			lo = hi
			continue
		}
		f := 1.0
		if hi.p99 > latencyLimit {
			f = min(f, (latencyLimit-lo.p99)/(hi.p99-lo.p99))
		}
		if hi.done < 0.99 {
			f = min(f, (lo.done-0.99)/(lo.done-hi.done))
		}
		return lo.rate + f*(hi.rate-lo.rate)
	}
	return lo.rate
}

// dispatchSetup times the per-dispatch pipeline wiring the server pays.
func (w *serveBench) dispatchSetup(o *outcome, tr *tracer, model *dlrm.Model) error {
	cfg := w.base
	cfg.Batches = 1
	spec, err := retrieval.NewSystemSpec(cfg, w.hw)
	if err != nil {
		return err
	}
	c := measure(func() {
		tr.do("dlrm.NewPipelineRun", "dlrm", func() {
			for i := 0; i < w.probeN && err == nil; i++ {
				_, err = dlrm.NewPipelineRun(spec, w.backend, model, cfg.Seed+uint64(i+1)*1_000_003)
			}
		})
	})
	if err != nil {
		return fmt.Errorf("probe dispatch set-up: %w", err)
	}
	o.layer["serve.dispatch_setup_ms"] = ms(c.d) / float64(w.probeN)
	return nil
}
