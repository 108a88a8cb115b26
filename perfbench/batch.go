package main

import (
	"fmt"
	"time"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/tensor"
)

// batchBench runs one DLRM configuration batch by batch on a primary backend
// and on the baseline, on identical inputs. Timing-mode workloads wire fresh
// pipelines from the same seed every round, so every round repeats round 0
// exactly and checks that it does. The functional workload keeps one
// pipeline per backend (wiring one materialises every table) and instead
// checks each round's outputs against the serial reference.
type batchBench struct {
	cfg      retrieval.Config // Batches = 1: each Pipeline.Run is one batch
	hw       retrieval.HardwareParams
	backends [2]retrieval.Backend // primary, baseline
	perRound int                  // batches per backend per round
	probeN   int                  // batches per per-layer probe
	paper    float64              // the paper's speed-up for this shape, 0 if none

	spec  *retrieval.SystemSpec
	model *dlrm.Model
	pls   [2]*dlrm.Pipeline // functional mode only
}

// roundResult is one round's per-backend, per-batch pipeline results.
type roundResult struct {
	res     [2][]*dlrm.PipelineResult
	events  [2]int64
	batches int
}

// setup builds the spec, the model and (functional mode) the pipelines. It
// returns the time NewModel took.
func (w *batchBench) setup(tr *tracer) (modelInit time.Duration, err error) {
	tr.do("retrieval.NewSystemSpec", "retrieval", func() {
		w.spec, err = retrieval.NewSystemSpec(w.cfg, w.hw)
	})
	if err != nil {
		return 0, err
	}
	t := time.Now()
	tr.do("dlrm.NewModel", "dlrm", func() {
		w.model, err = dlrm.NewModel(dlrm.DefaultModelConfig(w.cfg.TotalTables, w.cfg.Dim), w.cfg.Seed)
	})
	modelInit = time.Since(t)
	if err != nil || !w.cfg.Functional {
		return modelInit, err
	}
	for i, b := range w.backends {
		tr.do("dlrm.NewPipelineRun", "dlrm", func() {
			w.pls[i], err = dlrm.NewPipelineRun(w.spec, b, w.model, w.cfg.Seed)
		})
		if err != nil {
			return modelInit, err
		}
	}
	return modelInit, nil
}

// round runs perRound batches on each backend and checks their outputs.
func (w *batchBench) round(o *outcome, tr *tracer) (*roundResult, error) {
	rr := &roundResult{}
	for i, b := range w.backends {
		pl := w.pls[i]
		if pl == nil {
			var err error
			tr.do("dlrm.NewPipelineRun", "dlrm", func() {
				pl, err = dlrm.NewPipelineRun(w.spec, b, w.model, w.cfg.Seed)
			})
			if err != nil {
				return nil, err
			}
		}
		events0 := pl.Sys.Env.EventsFired()
		for k := 0; k < w.perRound; k++ {
			if w.cfg.Functional {
				if err := w.checkEMB(o, tr, pl, b); err != nil {
					return nil, err
				}
				rr.batches++
			}
			var res *dlrm.PipelineResult
			var err error
			tr.do("dlrm.Pipeline.Run", "dlrm", func() { res, err = pl.Run() })
			if err != nil {
				return nil, fmt.Errorf("%s batch: %w", b.Name(), err)
			}
			rr.batches++
			o.check(positive(res.EMBTime) && positive(res.TotalTime),
				"%s: simulated times not finite and positive (EMB %v, total %v)", b.Name(), res.EMBTime, res.TotalTime)
			if w.cfg.Functional {
				if err := w.checkPredictions(o, tr, pl, b, res); err != nil {
					return nil, err
				}
			}
			rr.res[i] = append(rr.res[i], res)
		}
		rr.events[i] = pl.Sys.Env.EventsFired() - events0
	}
	return rr, nil
}

// checkEMB runs one EMB-only batch on the pipeline's system and checks the
// backend's outputs bit-for-bit against the serial reference.
func (w *batchBench) checkEMB(o *outcome, tr *tracer, pl *dlrm.Pipeline, b retrieval.Backend) error {
	var res *retrieval.Result
	var err error
	tr.do("retrieval.System.Run", "retrieval", func() { res, err = pl.Sys.Run(b) })
	if err != nil {
		return fmt.Errorf("%s EMB batch: %w", b.Name(), err)
	}
	var ref []*tensor.Tensor
	tr.do("retrieval.Reference", "embedding", func() { ref, err = retrieval.Reference(pl.Sys, res.LastBatch) })
	if err != nil {
		return fmt.Errorf("%s reference: %w", b.Name(), err)
	}
	o.check(allBitEqual(res.Final, ref), "%s: EMB outputs differ from retrieval.Reference", b.Name())
	return nil
}

// checkPredictions checks a functional batch's predictions bit-for-bit
// against dlrm.ReferencePredictions.
func (w *batchBench) checkPredictions(o *outcome, tr *tracer, pl *dlrm.Pipeline, b retrieval.Backend, res *dlrm.PipelineResult) error {
	var ref *tensor.Tensor
	var err error
	tr.do("dlrm.ReferencePredictions", "dlrm", func() {
		ref, err = dlrm.ReferencePredictions(pl, res.LastSparse, res.LastDense)
	})
	if err != nil {
		return fmt.Errorf("%s reference predictions: %w", b.Name(), err)
	}
	o.check(bitEqual(stitch(res.Predictions), ref), "%s: predictions differ from dlrm.ReferencePredictions", b.Name())
	return nil
}

// stitch concatenates per-GPU (minibatch, 1) predictions in batch order.
func stitch(parts []*tensor.Tensor) *tensor.Tensor {
	n := 0
	for _, p := range parts {
		if p == nil {
			return nil
		}
		n += p.Dim(0)
	}
	out := tensor.New(n, 1)
	at := 0
	for _, p := range parts {
		copy(out.Data()[at:], p.Contiguous().Data())
		at += p.Dim(0)
	}
	return out
}

// fingerprint summarises a round's simulated times and event counts.
func (rr *roundResult) fingerprint() map[string]float64 {
	fp := map[string]float64{}
	for i, res := range rr.res {
		for k, r := range res {
			fp[fmt.Sprintf("backend%d.batch%d.emb_s", i, k)] = r.EMBTime
			fp[fmt.Sprintf("backend%d.batch%d.total_s", i, k)] = r.TotalTime
		}
		fp[fmt.Sprintf("backend%d.events", i)] = float64(rr.events[i])
	}
	return fp
}

// sameRound reports whether two timing rounds simulated identically.
func sameRound(a, b *roundResult) bool {
	for i := range a.res {
		if a.events[i] != b.events[i] || len(a.res[i]) != len(b.res[i]) {
			return false
		}
		for k, x := range a.res[i] {
			y := b.res[i][k]
			if x.EMBTime != y.EMBTime || x.TotalTime != y.TotalTime || x.DenseTime != y.DenseTime || x.EMBStall != y.EMBStall {
				return false
			}
			for _, c := range x.EMBBreakdown.Components() {
				if y.EMBBreakdown.Get(c.Name) != c.Duration {
					return false
				}
			}
		}
	}
	return true
}

// run sets up, runs rounds for the given seconds, and fills o.
func (w *batchBench) run(o *outcome, tr *tracer, op options) error {
	var modelTimes []float64
	setup, err := repeatSetup(op, func() error {
		w.spec, w.model, w.pls = nil, nil, [2]*dlrm.Pipeline{}
		var modelInit time.Duration
		var err error
		tr.do("setup", "bench", func() { modelInit, err = w.setup(tr) })
		modelTimes = append(modelTimes, modelInit.Seconds())
		return err
	})
	if err != nil {
		return err
	}
	o.e2e["setup_s"] = setup
	o.layer["dlrm.model_init_s"] = median(modelTimes)

	var first *roundResult
	var loop timedLoop
	rate, err := hostRate(o, op, func(seconds float64) ([]float64, map[string]float64, error) {
		loop = timedLoop{seconds: seconds, trace: op.trace}
		err := loop.run(tr, func(r int) (int, error) {
			var rr *roundResult
			var err error
			tr.do(fmt.Sprintf("round %d", r), "bench", func() { rr, err = w.round(o, tr) })
			if err != nil {
				return 0, err
			}
			if r == 0 {
				first = rr
			} else if !w.cfg.Functional {
				o.check(sameRound(first, rr), "determinism: round %d simulated differently from round 0", r)
			}
			return rr.batches, nil
		})
		if err != nil {
			return nil, nil, err
		}
		return loop.rates(), first.fingerprint(), nil
	})
	o.e2e["host_batches_per_s"] = rate
	if err != nil || op.hostPart {
		return err
	}
	if op.trace {
		o.layer["trace.overhead_frac"] = loop.overhead()
	}
	w.simMetrics(o, first)
	if !op.trace {
		return nil
	}
	p := layerProbe{cfg: w.cfg, hw: w.hw, backend: w.backends[0], model: w.model, n: w.probeN}
	return p.run(o, tr)
}

// simMetrics derives the simulated metrics from round 0. A batch workload
// is served closed-loop: one client submits full device batches back to
// back, so each request's latency is its batch's simulated forward time.
func (w *batchBench) simMetrics(o *outcome, rr *roundResult) {
	var emb, base, total, dense, stall float64
	comps := map[string]float64{}
	var lat []float64
	good := 0
	for _, r := range rr.res[0] {
		emb += r.EMBTime
		total += r.TotalTime
		dense += r.DenseTime
		stall += r.EMBStall
		for _, c := range r.EMBBreakdown.Components() {
			comps[c.Name] += c.Duration
		}
		lat = append(lat, r.TotalTime)
		if r.TotalTime <= latencyLimit {
			good++
		}
	}
	for _, r := range rr.res[1] {
		base += r.EMBTime
	}
	n := float64(len(rr.res[0]))
	o.sim(o.e2e, "sim_emb_ms_per_batch", 1e3*emb/n)
	o.sim(o.e2e, "sim_e2e_ms_per_batch", 1e3*total/n)
	o.sim(o.e2e, "sim_emb_speedup", base/emb)
	o.sim(o.e2e, "serve_p50_ms", 1e3*metrics.Percentile(lat, 50))
	o.sim(o.e2e, "serve_p99_ms", 1e3*metrics.Percentile(lat, 99))
	samples := float64(w.cfg.BatchSize)
	o.sim(o.e2e, "serve_max_rate_rps", samples*n/total)
	o.sim(o.e2e, "serve_goodput_rps", samples*float64(good)/total)
	o.sim(o.layer, "dlrm.sim_dense_ms_per_batch", 1e3*dense/n)
	o.sim(o.layer, "dlrm.sim_emb_stall_ms_per_batch", 1e3*stall/n)
	for name, comp := range map[string]string{
		"retrieval.sim_computation_ms_per_batch":   retrieval.CompComputation,
		"retrieval.sim_communication_ms_per_batch": retrieval.CompComm,
		"retrieval.sim_sync_unpack_ms_per_batch":   retrieval.CompSyncUnpack,
		"retrieval.sim_fused_kernel_ms_per_batch":  retrieval.CompFused,
	} {
		o.sim(o.layer, name, 1e3*comps[comp]/n)
	}
	if w.paper > 0 {
		s := base / emb
		o.note("paper accuracy: sim_emb_speedup %.3fx vs the paper's Table 1 %.2fx (relative error %+.1f%%)",
			s, w.paper, 100*(s-w.paper)/w.paper)
	}
}
