package retrieval

import (
	"fmt"

	"pgasemb/internal/sim"
	"pgasemb/internal/trace"
)

// Hybrid is a size-adaptive backend: for every (owner, consumer) pair of a
// batch it picks the cheaper transport — one-sided PGAS stores (paying the
// per-message header tax at link rate) or participation in the bulk-
// synchronous all-to-all (paying channel pacing, per-chunk latency and an
// amortised launch overhead). The rule is evaluated once per batch into the
// route plan's per-pair transport, from the plan and the machine's
// calibrated parameters only, so every GPU follows the same routing matrix
// without an agreement protocol.
//
// Three execution modes fall out per batch:
//
//   - every pair prefers stores -> the fused executor's all-store schedule
//     (identical to pgas-fused)
//   - every pair prefers the collective (single-node only; node-staged and
//     cross-node pairs always ride the one-sided path) -> the baseline's
//     un-chunked bulk kernel
//   - otherwise the fused executor's mixed schedule: the chunked kernel
//     streams store-routed pairs as one-sided stores and collective-routed
//     pairs into the send buffer, then all ranks enter one all-to-all
//     carrying only the collective-routed traffic.
//
// On the calibrated V100 machine the header tax never exceeds the collective
// overheads at paper scales, so hybrid == pgas-fused there; the crossover
// engages when HeaderBytes grows or ChannelBandwidth approaches link rate
// (see hybrid_test.go).
type Hybrid struct {
	pgas PGASFused
	base Baseline
}

// Name implements Backend.
func (b *Hybrid) Name() string { return "hybrid" }

// ValidateConfig implements ConfigValidator.
func (b *Hybrid) ValidateConfig(cfg Config) error {
	if cfg.Sharding != TableWise {
		return fmt.Errorf("requires table-wise sharding; use the row-wise backends for row-wise configurations")
	}
	return nil
}

// prefersCollective is hybrid's per-pair cost rule: whether the (owner src
// -> consumer dst) pair should ride the all-to-all instead of one-sided
// stores. Node-staged and cross-node pairs never do: node staging has no
// collective counterpart (a pair-addressed segment cannot share rows across
// a node's consumers), and cross-node stores are proxy-coalesced onto the
// NICs — per-pair collective pricing does not describe them. Replicated
// batches ride stores throughout: failover re-routes pairs per batch, and
// the rule prices owner pairs. For the rest, both transports move the same
// vectors (the plan's CollectiveVecs), so the comparison reduces to wire
// economics: per-vector header tax at pair link rate versus channel pacing +
// per-chunk latency + the rank's launch overhead amortised over its peers.
// Mirrors collective.Comm's transferTime.
func prefersCollective(plan *RoutePlan, src, dst int) bool {
	s := plan.sys
	if plan.Serve != nil || plan.Class(src, dst) == RouteNodeWire {
		return false
	}
	if s.multiNode() && s.NodeOf(src) != s.NodeOf(dst) {
		return false
	}
	vecs := plan.CollectiveVecs(src, dst)
	if vecs == 0 {
		return false
	}
	// Both transports carry the ENCODED payload under a wire codec, but the
	// per-message header tax is unchanged — so reduced precision shifts the
	// crossover toward the one-sided path (headers amortise over fewer
	// payload bytes).
	vb := s.Cfg.WireVectorBytes()
	link := s.Fab.PairBandwidth(src, dst)
	pgasT := float64(vecs) * s.Fab.WireBytes(vb) / link

	payload := float64(vecs) * float64(vb)
	cp := s.Comm.Params()
	bw := cp.ChannelBandwidth
	if link < bw {
		bw = link
	}
	chunks := int(payload) / cp.ChunkBytes
	if int(payload)%cp.ChunkBytes != 0 {
		chunks++
	}
	collT := payload/bw + sim.Duration(chunks)*cp.PerChunkLatency +
		cp.LaunchOverhead/sim.Duration(s.Cfg.GPUs-1)
	return collT < pgasT
}

// RunBatch routes the batch's pairs by prefersCollective and dispatches: the
// baseline's bulk kernel when every data-moving pair rides the collective,
// the fused executor (all-store or mixed, per the plan) otherwise.
func (b *Hybrid) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	if anyColl, allColl := bd.Plan.routeTransports(prefersCollective); anyColl && allColl {
		b.base.RunBatch(s, p, g, bd, bk)
		return
	}
	b.pgas.RunBatch(s, p, g, bd, bk)
}
