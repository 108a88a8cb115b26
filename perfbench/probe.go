package main

import (
	"fmt"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/sparse"
	"pgasemb/internal/tensor"
	"pgasemb/internal/workload"
)

// layerProbe attributes host cost and simulated traffic to single layers by
// calling each layer's public functions on shadow objects built from the
// workload's configuration and seed.
type layerProbe struct {
	cfg     retrieval.Config
	hw      retrieval.HardwareParams
	backend retrieval.Backend
	model   *dlrm.Model
	n       int // batches per measurement
}

// shadowWorkload rebuilds the generator configuration a System derives from
// cfg, so a shadow generator draws exactly the system's input stream.
func shadowWorkload(cfg retrieval.Config) workload.Config {
	return workload.Config{
		NumFeatures:          cfg.TotalTables,
		BatchSize:            cfg.BatchSize,
		MinPooling:           cfg.MinPooling,
		MaxPooling:           cfg.MaxPooling,
		PerFeatureMaxPooling: cfg.PerFeatureMaxPooling,
		NullProbability:      cfg.NullProbability,
		IndexSpace:           int64(cfg.Rows),
		Distribution:         cfg.Distribution,
		ZipfExponent:         cfg.ZipfExponent,
		HotSetDriftEvery:     cfg.HotSetDriftEvery,
		NumDense:             13,
		Seed:                 cfg.Seed,
	}
}

// materialises reports whether the system draws whole batches (indices) or
// only pooling summaries.
func materialises(cfg retrieval.Config) bool {
	return cfg.Functional || cfg.CacheFraction > 0 || cfg.Dedup || cfg.AdaptivePlacement
}

func (p *layerProbe) run(o *outcome, tr *tracer) error {
	n := float64(p.n)
	cfg := p.cfg
	cfg.Batches = p.n

	var spec *retrieval.SystemSpec
	var sys *retrieval.System
	var err error
	c := measure(func() {
		tr.do("retrieval.NewSystemSpec+NewRun", "retrieval", func() {
			if spec, err = retrieval.NewSystemSpec(cfg, p.hw); err == nil {
				sys, err = spec.NewRunWithSeed(cfg.Seed)
			}
		})
	})
	if err != nil {
		return fmt.Errorf("probe set-up: %w", err)
	}
	o.layer["retrieval.spec_s"] = c.d.Seconds()

	gen, err := workload.NewGenerator(shadowWorkload(cfg))
	if err != nil {
		return fmt.Errorf("probe generator: %w", err)
	}
	genCost := measure(func() {
		tr.do("workload.Generator.Next", "workload", func() {
			for i := 0; i < p.n; i++ {
				if materialises(cfg) {
					gen.NextBatch()
				} else {
					gen.NextSummary()
				}
			}
		})
	})
	o.layer["workload.gen_ms_per_batch"] = ms(genCost.d) / n
	o.layer["workload.alloc_mb_per_batch"] = float64(genCost.bytes) / 1e6 / n

	var bd *retrieval.BatchData
	inCost := measure(func() {
		tr.do("retrieval.System.NextBatchData", "retrieval", func() {
			for i := 0; i < p.n && err == nil; i++ {
				bd, err = sys.NextBatchData()
			}
		})
	})
	if err != nil {
		return fmt.Errorf("probe input: %w", err)
	}
	o.layer["retrieval.input_ms_per_batch"] = ms(inCost.d) / n
	o.layer["retrieval.plan_ms_per_batch"] = ms(inCost.d-genCost.d) / n
	o.layer["retrieval.plan_allocs_per_batch"] = (float64(inCost.allocs) - float64(genCost.allocs)) / n

	o.layer["embedding.reference_ms_per_batch"] = 0
	o.layer["dlrm.dense_ms_per_batch"] = 0
	if cfg.Functional {
		if err := p.dataPlane(o, tr, sys, bd.Sparse, gen.NextDense()); err != nil {
			return err
		}
	}
	if err := p.runLoop(o, tr, spec); err != nil {
		return err
	}
	return p.counters(o, tr, spec)
}

// dataPlane times the serial reference EMB layer and the dense forward pass
// on one batch.
func (p *layerProbe) dataPlane(o *outcome, tr *tracer, sys *retrieval.System, batch *sparse.Batch, dense *tensor.Tensor) error {
	var refs []*tensor.Tensor
	var err error
	c := measure(func() {
		tr.do("retrieval.Reference", "embedding", func() { refs, err = retrieval.Reference(sys, batch) })
	})
	if err != nil {
		return fmt.Errorf("probe reference: %w", err)
	}
	o.layer["embedding.reference_ms_per_batch"] = ms(c.d)
	c = measure(func() {
		tr.do("dlrm.Model.Forward", "tensor", func() {
			for g, emb := range refs {
				lo, hi := sys.Minibatch(g)
				p.model.Forward(dense.Narrow(0, lo, hi-lo).Contiguous(), emb)
			}
		})
	})
	o.layer["dlrm.dense_ms_per_batch"] = ms(c.d)
	return nil
}

// runLoop times steady-state RunBatch through retrieval.BenchLoop: the cost
// of 1+k iterations minus the cost of 1 is k batches of RunBatch, without
// the loop's own input generation and wiring. The difference is the median
// of three measurements.
func (p *layerProbe) runLoop(o *outcome, tr *tracer, spec *retrieval.SystemSpec) error {
	sys, err := spec.NewRunWithSeed(p.cfg.Seed)
	if err != nil {
		return fmt.Errorf("probe run: %w", err)
	}
	k := 16
	if p.cfg.Functional {
		k = 4
	}
	loop := func(iters int) (hostCost, int64) {
		ev := sys.Env.EventsFired()
		c := measure(func() {
			tr.do(fmt.Sprintf("retrieval.BenchLoop(%d)", iters), "retrieval", func() {
				if err == nil {
					err = retrieval.BenchLoop(sys, p.backend, iters)
				}
			})
		})
		return c, sys.Env.EventsFired() - ev
	}
	loop(1) // warm the run's arenas
	// Grow k until the k batches take at least as long as the loop's own
	// input generation, or the difference drowns in its noise.
	for k < 1<<15 {
		one, _ := loop(1)
		many, _ := loop(1 + k)
		if d := many.d - one.d; d >= one.d {
			break
		}
		k *= 4
	}
	var times, allocs []float64
	var events int64
	for rep := 0; rep < 3; rep++ {
		one, ev1 := loop(1)
		many, evMany := loop(1 + k)
		times = append(times, float64(many.d-one.d)/float64(k))
		allocs = append(allocs, (float64(many.allocs)-float64(one.allocs))/float64(k))
		events = evMany - ev1
	}
	if err != nil {
		return fmt.Errorf("probe BenchLoop: %w", err)
	}
	runNS := median(times)
	perBatch := float64(events) / float64(k)
	o.layer["retrieval.run_ms_per_batch"] = runNS / 1e6
	o.layer["retrieval.run_allocs_per_batch"] = median(allocs)
	o.sim(o.layer, "sim.events_per_batch", perBatch)
	o.layer["sim.host_ns_per_event"] = ratio(runNS, perBatch)
	tr.count("sim", map[string]float64{"events_per_batch": perBatch})
	return nil
}

// counters runs n EMB-only batches on a fresh run and reads the transports'
// simulated traffic counters.
func (p *layerProbe) counters(o *outcome, tr *tracer, spec *retrieval.SystemSpec) error {
	sys, err := spec.NewRunWithSeed(p.cfg.Seed)
	if err != nil {
		return fmt.Errorf("probe counters: %w", err)
	}
	var res *retrieval.Result
	tr.do("retrieval.System.Run", "retrieval", func() { res, err = sys.Run(p.backend) })
	if err != nil {
		return fmt.Errorf("probe counters: %w", err)
	}
	n := float64(p.n)
	var puts int64
	var payload, wire float64
	for g := 0; g < sys.PGAS.NumPEs(); g++ {
		pe := sys.PGAS.PE(g)
		puts += pe.Puts()
		payload += pe.PayloadBytes()
		wire += pe.WireBytes()
	}
	owner := make([]float64, len(res.OwnerKeys))
	for g, k := range res.OwnerKeys {
		owner[g] = float64(k)
	}
	set := func(layer, name string, v float64) {
		o.sim(o.layer, layer+"."+name, v)
	}
	vals := map[string]map[string]float64{
		"nvlink": {"comm_mb_per_batch": res.CommTrace.Total() / 1e6 / n},
		"pgas":   {"puts_per_batch": float64(puts) / n, "payload_over_wire": ratio(payload, wire)},
		"fabric": {
			"nic_wire_mb_per_batch": res.NICWireBytes / 1e6 / n,
			"nic_msgs_per_batch":    float64(res.NICMessages) / n,
			"nic_payload_over_wire": ratio(res.NICPayloadBytes, res.NICWireBytes),
		},
		"retrieval": {"dedup_unique_frac": res.DedupStats.UniqueFraction(), "owner_imbalance": metrics.Imbalance(owner)},
	}
	for _, layer := range []string{"nvlink", "pgas", "fabric", "retrieval"} {
		for name, v := range vals[layer] {
			set(layer, name, v)
		}
		tr.count(layer, vals[layer])
	}
	return nil
}
