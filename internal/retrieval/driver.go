package retrieval

import (
	"context"
	"fmt"

	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// The run driver. Every way of executing batches on the simulated machine —
// System.RunContext, BenchLoop, and the dlrm package's inference Pipeline and
// Trainer — is a per-GPU body over Drive, which owns everything the bodies
// share: batch generation, one rebalance epoch at a time under adaptive
// placement, one simulated process per GPU, the GPU-panic-to-error
// conversion, the lockstep barrier with its fault-schedule hook, the event
// loop under the caller's context, and the rebalances between epochs.

// GPUBody is one GPU's share of an epoch: it runs the epoch's batch steps on
// GPU g's simulated process p, in whatever per-batch schedule its caller
// models. The driver adds the final rendezvous after the body returns, so
// the epoch's elapsed time is the slowest GPU's makespan.
type GPUBody func(p *sim.Proc, g int, ep *Epoch)

// Epoch is one event-loop run over a slice of a run's batches — the unit the
// driver starts GPU processes for. Adaptive-placement runs are a sequence of
// epochs with rebalances between them; every other run is one epoch.
type Epoch struct {
	s    *System
	name string
	// First is the run index of the epoch's first batch.
	First   int
	batches []*BatchData
	// n is the number of batch steps; step i executes batches[i%len]
	// (BenchLoop cycles one pre-generated batch per pipeline slot).
	n       int
	barrier *sim.Barrier
	// win is the sliding-window rendezvous of the pipelined EMB schedule
	// (nil at pipeline depth 1).
	win *sim.Window
	err error
}

// Len returns the epoch's number of batch steps.
func (ep *Epoch) Len() int { return ep.n }

// Batch returns batch step i's input.
func (ep *Epoch) Batch(i int) *BatchData { return ep.batches[i%len(ep.batches)] }

// Await is the all-GPU barrier.
func (ep *Epoch) Await(p *sim.Proc) { ep.barrier.Await(p) }

// Enter starts lockstep batch step i: every GPU meets at the barrier, then
// the fault schedule's factors for that batch are installed on the machine.
func (ep *Epoch) Enter(p *sim.Proc, i int) {
	ep.barrier.Await(p)
	ep.s.ApplyFaults(ep.First + i)
}

// Drive runs Cfg.Batches batches of body on every GPU and returns the elapsed
// simulated time and the last epoch's batches. Batches are drawn one
// rebalance epoch at a time when adaptive placement is on (so each epoch's
// route plans are compiled against the placement that executes it, and the
// controller decides between epochs with the epoch's statistics folded in,
// charging the migration on the simulated clock), and all at once otherwise.
// name labels the run in errors. The run stops with ctx.Err() when ctx is
// cancelled, checked between batches during generation and periodically
// inside the event loop; a cancelled System is left mid-simulation and must
// be discarded.
func (s *System) Drive(ctx context.Context, name string, body GPUBody) (sim.Duration, []*BatchData, error) {
	start := s.Env.Now()
	var batches []*BatchData
	for done := 0; done < s.Cfg.Batches; {
		n := s.Cfg.Batches - done
		if every := s.Cfg.RebalanceEvery; s.placementEnabled() && every > 0 && every < n {
			n = every
		}
		batches = make([]*BatchData, n)
		for i := range batches {
			if err := ctx.Err(); err != nil {
				return 0, nil, err
			}
			bd, err := s.NextBatchData()
			if err != nil {
				return 0, nil, err
			}
			batches[i] = bd
		}
		if err := s.startEpoch(name, batches, done, body).run(ctx, n); err != nil {
			return 0, nil, err
		}
		done += n
		if done < s.Cfg.Batches && s.placementEnabled() && s.placeCtl.Due(done) {
			if err := s.rebalanceNow(ctx); err != nil {
				return 0, nil, err
			}
		}
	}
	return s.Env.Now() - start, batches, nil
}

// startEpoch spawns one simulated process per GPU running body over batches,
// whose first is the run's batch first. The processes start when run drives
// the event loop.
func (s *System) startEpoch(name string, batches []*BatchData, first int, body GPUBody) *Epoch {
	ep := &Epoch{s: s, name: name, First: first, batches: batches, barrier: sim.NewBarrier(s.Env, s.Cfg.GPUs)}
	if depth := s.PipelineDepth(); depth > 1 {
		ep.win = sim.NewWindow(s.Env, s.Cfg.GPUs, depth)
	}
	for g := 0; g < s.Cfg.GPUs; g++ {
		g := g
		s.Env.Go(fmt.Sprintf("gpu%d", g), func(p *sim.Proc) {
			defer func() {
				if r := recover(); r != nil && ep.err == nil {
					ep.err = fmt.Errorf("retrieval: GPU %d: %v", g, r)
				}
			}()
			body(p, g, ep)
			ep.barrier.Await(p)
		})
	}
	return ep
}

// run drives the epoch's n batch steps to completion. It may be called once:
// the processes finish with the epoch.
func (ep *Epoch) run(ctx context.Context, n int) error {
	ep.n = n
	if _, err := ep.s.Env.RunContext(ctx); err != nil {
		return fmt.Errorf("retrieval: %s run: %w", ep.name, err)
	}
	return ep.err
}

// embBody is the EMB layer's per-GPU schedule, recording into perGPU[g]:
// lockstep batch steps through the barrier, or at pipeline depth > 1 the
// sliding window, which lets a GPU run up to depth-1 batches ahead of the
// slowest one so a fast GPU's next exchange overlaps a slow GPU's current
// batch. Fault schedules force depth 1, so the window never sees a fault.
func (s *System) embBody(b Backend, perGPU []*trace.Breakdown) GPUBody {
	return func(p *sim.Proc, g int, ep *Epoch) {
		if win := ep.win; win != nil {
			for i := 0; i < ep.n; i++ {
				win.Enter(p, i)
				b.RunBatch(s, p, g, ep.Batch(i), perGPU[g])
				win.Retire(g)
			}
			return
		}
		for i := 0; i < ep.n; i++ {
			ep.Enter(p, i)
			b.RunBatch(s, p, g, ep.Batch(i), perGPU[g])
		}
	}
}
