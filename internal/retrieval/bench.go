package retrieval

import (
	"context"
	"fmt"

	"pgasemb/internal/trace"
)

// BenchLoop drives n barrier-synchronised batches of backend b over ONE
// pre-generated batch, for Go benchmarks of the per-batch hot path. It is
// the EMB schedule of System.RunContext on the run driver's epoch, so step i
// enters like run batch i, fault schedule included. Input
// generation, cache/dedup classification and buffer attachment run once,
// outside the measured loop, so what the loop exercises is exactly the
// steady-state RunBatch path — the code the per-run arenas keep
// allocation-free.
//
// The batch's input and classification state is reused read-only by every
// iteration; output buffers are rewritten in place, which every table-wise
// backend tolerates (they overwrite). RowWisePGAS is the exception — its
// remote atomic-adds ACCUMULATE into the final tensor, so in functional mode
// its outputs are only meaningful for n == 1; timing-only benchmarks (the
// default here) are unaffected.
//
// With Config.PipelineDepth > 1 the loop drives the window-pipelined
// schedule instead: one pre-generated batch per staging slot (cycled
// round-robin), with the sliding-window rendezvous in place of the lockstep
// barrier — the same per-slot hot path the pipelined DLRM scheduler runs,
// still allocation-free in steady state.
func BenchLoop(s *System, b Backend, n int) error {
	if n <= 0 {
		return fmt.Errorf("retrieval: BenchLoop needs a positive batch count, got %d", n)
	}
	ep, err := prepareBenchLoop(s, b)
	if err != nil {
		return err
	}
	return ep.run(context.Background(), n)
}

// prepareBenchLoop is BenchLoop's half before its measurement boundary: it
// generates and classifies one batch per pipeline slot and spawns the GPU
// processes over the EMB schedule; the returned epoch's run drives them.
// Allocation tests time only run, so the one-time setup never shows up in
// allocs/op however small b.N is (under -race b.N shrinks enough for
// setup/N to round up to 1).
func prepareBenchLoop(s *System, b Backend) (*Epoch, error) {
	if err := ValidateBackend(b, s.Cfg); err != nil {
		return nil, err
	}
	bds := make([]*BatchData, s.PipelineDepth())
	for i := range bds {
		bd, err := s.NextBatchData()
		if err != nil {
			return nil, err
		}
		bds[i] = bd
	}
	bks := make([]*trace.Breakdown, s.Cfg.GPUs)
	for g := range bks {
		bks[g] = &trace.Breakdown{}
	}
	return s.startEpoch(b.Name()+" bench", bds, 0, s.embBody(b, bks)), nil
}

// PlanCompileLoop drives n route-plan compilations over ONE materialised
// batch, for Go benchmarks of the host-side classifier passes (cache view,
// dedup key sets, node-level dedup, replica serve map). Input generation runs
// once outside the loop, so what the loop measures is exactly the per-batch
// compile cost the pipelined scheduler pays on the host while the device
// works on the previous batch.
func PlanCompileLoop(s *System, n int) error {
	if n <= 0 {
		return fmt.Errorf("retrieval: PlanCompileLoop needs a positive count, got %d", n)
	}
	bd := &BatchData{}
	bd.Sparse = s.gen.NextBatch()
	bd.Summary = summaryFromBatch(bd.Sparse)
	for i := 0; i < n; i++ {
		s.compileRoutePlan(bd)
	}
	return nil
}
