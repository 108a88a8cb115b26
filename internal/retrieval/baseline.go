package retrieval

import (
	"fmt"

	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/tensor"
	"pgasemb/internal/trace"
)

// Component names used in result breakdowns (the bars of Figures 6 and 9).
const (
	CompComputation = "Computation"
	CompComm        = "Communication"
	CompSyncUnpack  = "Sync+Unpack"
	CompFused       = "Fused Kernel" // PGAS: compute + overlapped comm + quiet
)

// Baseline is the paper's §IV reference implementation: an
// EmbeddingBagCollection forward kernel, a stream synchronisation, an NCCL
// all_to_all_single, and the unpack/rearrangement of received segments into
// the data-parallel layout.
//
// DirectPlacement is the A1 ablation: the collective is kept, but received
// data is assumed to land directly in its final location (no unpack step),
// isolating how much of PGAS's win comes from unpack elimination alone.
type Baseline struct {
	DirectPlacement bool
}

// Name implements Backend.
func (b *Baseline) Name() string {
	if b.DirectPlacement {
		return "baseline-direct-placement"
	}
	return "baseline"
}

// ValidateConfig implements ConfigValidator.
func (b *Baseline) ValidateConfig(cfg Config) error {
	if cfg.Sharding != TableWise {
		return fmt.Errorf("requires table-wise sharding; use RowWiseBaseline for row-wise configurations")
	}
	return nil
}

// RunBatch runs the baseline's three phases over the (shard, consumer) pairs
// GPU g serves: its own shard for every consumer, plus any mirrored shard
// the plan's replica routing assigned to it.
func (b *Baseline) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	cfg := s.Cfg
	dev := s.Devs[g]
	stream := dev.Stream("emb")

	// Hot-row cache discounts: vectors this GPU skips (a hit at their
	// consumer) and vectors this consumer pools from its own cache. Both are
	// zero when the cache is disabled (plan.Cache == nil). All routing
	// decisions come from the batch's compiled plan; the views only supply
	// counts.
	plan := bd.Plan
	view := plan.Cache
	dv := plan.Dedup
	hitVecs, hitIdx := view.HitAt(g)
	vb := float64(cfg.VectorBytes())

	// --- Phase 1: lookup + pooling kernel over every served pair, writing
	// each pooled vector into the consumer-major send buffer — minus skipped
	// hit vectors, plus the consumer-side cache gathers (which read the small
	// hot working set at near-streaming efficiency).
	var totalIdx int64
	for c := 0; c < cfg.GPUs; c++ {
		clo, chi := s.Minibatch(c)
		for o := 0; o < cfg.GPUs; o++ {
			if plan.ServeGPU(o, c) != g {
				continue
			}
			totalIdx += s.localIndexTotal(bd.Summary, o, clo, chi)
			if view != nil && o != c {
				totalIdx -= view.WireIdx[o][c]
			}
		}
	}
	var kernel sim.Duration
	if dv == nil {
		items := plan.servedVecs(g) + hitVecs
		readBytes := float64(totalIdx)*vb + // gathered table rows
			dev.HotReadEquivalent(float64(hitIdx)*vb) // gathered cached rows
		streamBytes := float64(totalIdx+hitIdx)*8 + // index reads
			float64(items)*vb // output stores
		kernel = dev.GatherKernelCost(readBytes, streamBytes, items)
	} else {
		// Deduplicated: decompose the kernel per destination pair. Wire pairs
		// gather and stage each unique row once (no pooling — the consumer
		// expands); gather-dedup pairs stage unique rows and serve duplicate
		// references from the hot working set; dense pairs keep the original
		// cost shape. The conservative index-stream term is unchanged.
		// (Dedup and replication are exclusive, so g serves its own shard.)
		readBytes := dev.HotReadEquivalent(float64(hitIdx) * vb)
		streamBytes := float64(totalIdx+hitIdx)*8 + float64(hitVecs)*vb
		items := hitVecs
		for d := 0; d < cfg.GPUs; d++ {
			missIdx := dv.MissIdx[g][d]
			uniq := dv.Uniq[g][d]
			dense := int(dv.DenseVecs[g][d])
			switch {
			case plan.CollectiveClass(g, d) == RouteWire:
				readBytes += float64(uniq) * vb
				streamBytes += float64(uniq) * vb
				items += int(uniq)
			case plan.GatherDedup(g, d):
				readBytes += float64(uniq)*vb + dev.HotReadEquivalent(float64(missIdx-uniq)*vb)
				streamBytes += float64(dense+int(uniq)) * vb
				items += dense
			default:
				readBytes += float64(missIdx) * vb
				streamBytes += float64(dense) * vb
				items += dense
			}
		}
		kernel = dev.GatherKernelCost(readBytes, streamBytes, items)
	}

	_, kernelEnd := stream.Launch(p, kernel)
	p.WaitUntil(kernelEnd)
	bk.Accumulate(CompComputation, kernel+dev.Params().KernelLaunch)

	// Host-side synchronisation before the collective can be issued.
	syncStart := p.Now()
	stream.Synchronize(p)
	bk.Accumulate(CompSyncUnpack, p.Now()-syncStart)

	if cfg.GPUs == 1 {
		if cfg.Functional {
			// Single GPU: the send buffer is the whole output; land it
			// without a collective.
			s.unpackCollective(g, bd, s.packCollective(g, bd, true)[g], true)
		}
		return
	}

	// Owner-side wire encode: compress every remote segment before the
	// collective ships it. A pure streaming kernel priced from the plan's
	// counts, so timing and functional runs charge identically.
	if cfg.WireCodecActive() {
		encStart := p.Now()
		sent, _ := plan.CollectiveCodecVecs(g)
		if sent > 0 {
			wvb := float64(cfg.WireVectorBytes())
			enc := dev.EncodeKernelCost(float64(sent)*vb, float64(sent)*wvb)
			_, encEnd := stream.Launch(p, enc)
			p.WaitUntil(encEnd)
			stream.Synchronize(p)
		}
		bk.Accumulate(CompComputation, p.Now()-encStart)
	}

	// --- Phase 2: all_to_all_single. The collective is stream-ordered:
	// under a pipelined schedule it cannot launch past dense kernels already
	// queued on the compute stream (the exchange gate), which is why the
	// baseline overlaps only its pre-collective phases with the previous
	// batch's dense compute.
	commStart := p.Now()
	recvBuf := s.exchangeCollective(p, g, bd, true)
	bk.Accumulate(CompComm, p.Now()-commStart)

	// --- Phase 3: unpack the received source-major segments into the
	// (mini, TotalTables, d) layout the interaction layer expects.
	unpackStart := p.Now()
	// Consumer-side wire decode: dequantize every received segment back to
	// fp32 before unpack/expansion. Runs under DirectPlacement too — the
	// ablation removes the rearrangement, not the dequantize.
	if cfg.WireCodecActive() {
		_, recv := plan.CollectiveCodecVecs(g)
		if recv > 0 {
			wvb := float64(cfg.WireVectorBytes())
			dec := dev.DecodeKernelCost(float64(recv)*wvb, float64(recv)*vb)
			_, decEnd := stream.Launch(p, dec)
			p.WaitUntil(decEnd)
			stream.Synchronize(p)
		}
	}
	if !b.DirectPlacement {
		// Only dense incoming segments need the rearrangement kernel; wire
		// segments go through the expansion kernel below instead. When every
		// source deduplicated, the unpack launch (and its fixed cost)
		// disappears entirely.
		if remoteBytes, segments := plan.collectiveDenseArrivals(g, true); segments > 0 {
			unpack := dev.UnpackKernelCost(remoteBytes, segments)
			_, unpackEnd := stream.Launch(p, unpack)
			p.WaitUntil(unpackEnd)
			stream.Synchronize(p)
		}
	}
	if dv != nil {
		// Inverse expansion of wire segments: every miss-bag reference
		// re-reads its unique row from the small received set (L2-resident),
		// pooling into the final vectors. Runs under DirectPlacement too —
		// expansion builds pooled outputs, it is not the rearrangement the
		// ablation removes.
		var refs int64
		outVecs := 0
		for o := 0; o < cfg.GPUs; o++ {
			if plan.CollectiveClass(o, g) != RouteWire {
				continue
			}
			refs += dv.MissIdx[o][g]
			outVecs += int(dv.DenseVecs[o][g])
		}
		if outVecs > 0 {
			expand := dev.ExpandKernelCost(refs, outVecs, cfg.VectorBytes())
			_, expandEnd := stream.Launch(p, expand)
			p.WaitUntil(expandEnd)
			stream.Synchronize(p)
		}
	}
	if cfg.Functional {
		// In the DirectPlacement ablation this copy models what a scattering
		// NIC would have done; it costs no simulated time there.
		s.unpackCollective(g, bd, recvBuf, true)
	}
	bk.Accumulate(CompSyncUnpack, p.Now()-unpackStart)
}

// The all-to-all transport, shared by the baseline (every served pair rides
// it: all == true) and the fused executor's mixed schedule (only the pairs
// the plan routes via the collective). Send buffers are consumer-major, and
// within a consumer's segment shard-ascending and sample-major — the order
// unpackCollective consumes on the receiving side.

// viaCollective reports whether the (shard o -> consumer c) pair rides the
// all-to-all: every pair when all is set, otherwise the plan's transport.
func (p *RoutePlan) viaCollective(o, c int, all bool) bool {
	return all || p.ViaCollective(o, c)
}

// packCollective pools (functional mode) every pair GPU g serves over the
// all-to-all into its send buffer and returns the per-consumer segments (nil
// for consumers with no such pair). Wire pairs ship their unique rows once,
// in first-seen order, for the consumer to expand; dense pairs ship their
// cache-missed pooled vectors.
func (s *System) packCollective(g int, bd *BatchData, all bool) [][]float32 {
	cfg := s.Cfg
	sc := s.scratchFor(g, bd)
	plan := bd.Plan
	view := plan.Cache
	dv := plan.Dedup
	floats := 0
	for c := 0; c < cfg.GPUs; c++ {
		for o := 0; o < cfg.GPUs; o++ {
			if plan.ServeGPU(o, c) == g && plan.viaCollective(o, c, all) {
				floats += plan.CollectiveVecs(o, c) * cfg.Dim
			}
		}
	}
	pack := scratchSlice(&sc.packBuf, floats)
	sendSegs := scratchSlice(&sc.sendSegs, cfg.GPUs)
	at := 0
	for c := 0; c < cfg.GPUs; c++ {
		start, routed := at, false
		clo, chi := s.Minibatch(c)
		for o := 0; o < cfg.GPUs; o++ {
			if plan.ServeGPU(o, c) != g || !plan.viaCollective(o, c, all) {
				continue
			}
			routed = true
			coll := s.colls[o]
			if plan.CollectiveClass(o, c) == RouteWire {
				for _, key := range dv.Keys[o][c] {
					row := int(uint32(key))
					w := coll.Tables[key>>32].Weights.Data()
					copy(pack[at:at+cfg.Dim], w[row*cfg.Dim:(row+1)*cfg.Dim])
					at += cfg.Dim
				}
				continue
			}
			part := bd.Parts[o]
			for smp := clo; smp < chi; smp++ {
				for fi := range part.Features {
					if view != nil && o != c && view.Hit[o][fi*cfg.BatchSize+smp] {
						continue
					}
					coll.Tables[fi].LookupPooled(part.Features[fi].Bag(smp), pack[at:at+cfg.Dim])
					at += cfg.Dim
				}
			}
		}
		sendSegs[c] = nil
		if routed {
			sendSegs[c] = pack[start:at]
		}
	}
	return sendSegs
}

// exchangeCollective runs GPU g's all_to_all_single over the pairs riding
// the collective and returns the functional receive buffer (source-major;
// nil in timing mode, where the plan supplies segment sizes at wire
// precision). Every rank enters, even with all-zero segments — the
// bulk-synchronous contract. The launch waits on the exchange gate first, so
// a pipelined schedule's gate stall lands in the caller's communication
// phase.
func (s *System) exchangeCollective(p *sim.Proc, g int, bd *BatchData, all bool) []float32 {
	cfg := s.Cfg
	sc := s.scratchFor(g, bd)
	plan := bd.Plan
	s.awaitExchangeGate(p, g)
	if cfg.Functional {
		sendSegs := s.packCollective(g, bd, all)
		recvSegs := scratchSlice(&sc.recvSegs, cfg.GPUs)
		recvFloats := 0
		for o := 0; o < cfg.GPUs; o++ {
			if plan.viaCollective(o, g, all) {
				recvFloats += plan.CollectiveVecs(o, g) * cfg.Dim
			}
		}
		recvBuf := scratchSlice(&sc.recvBuf, recvFloats)
		at := 0
		for src := 0; src < cfg.GPUs; src++ {
			start, routed := at, false
			for o := 0; o < cfg.GPUs; o++ {
				if plan.ServeGPU(o, g) == src && plan.viaCollective(o, g, all) {
					at += plan.CollectiveVecs(o, g) * cfg.Dim
					routed = true
				}
			}
			recvSegs[src] = nil
			if routed {
				recvSegs[src] = recvBuf[start:at]
			}
		}
		s.Comm.AllToAllSingle(p, g, sendSegs, recvSegs)
		return recvBuf
	}
	sendBytes := scratchSlice(&sc.sendBytes, cfg.GPUs)
	recvBytes := scratchSlice(&sc.recvBytes, cfg.GPUs)
	wvb := float64(cfg.WireVectorBytes())
	for peer := 0; peer < cfg.GPUs; peer++ {
		sendBytes[peer] = 0
		recvBytes[peer] = 0
		if peer == g {
			continue
		}
		for o := 0; o < cfg.GPUs; o++ {
			if plan.ServeGPU(o, peer) == g && plan.viaCollective(o, peer, all) {
				sendBytes[peer] += float64(plan.CollectiveVecs(o, peer)) * wvb
			}
			if plan.ServeGPU(o, g) == peer && plan.viaCollective(o, g, all) {
				recvBytes[peer] += float64(plan.CollectiveVecs(o, g)) * wvb
			}
		}
	}
	s.Comm.AllToAllSingleSizes(p, g, sendBytes, recvBytes)
	return nil
}

// collectiveDenseArrivals returns the dense (non-wire) bytes GPU g receives
// from remote sources over the all-to-all and the number of sources sending
// them: the work of the unpack kernel that rearranges them into the final
// layout.
func (p *RoutePlan) collectiveDenseArrivals(g int, all bool) (bytes float64, segments int) {
	s := p.sys
	vb := float64(s.Cfg.VectorBytes())
	for src := 0; src < s.Cfg.GPUs; src++ {
		if src == g {
			continue
		}
		vecs, sends := 0, false
		for o := 0; o < s.Cfg.GPUs; o++ {
			if p.ServeGPU(o, g) == src && p.viaCollective(o, g, all) && p.CollectiveClass(o, g) != RouteWire {
				vecs += p.CollectiveVecs(o, g)
				sends = true
			}
		}
		if sends {
			bytes += float64(vecs) * vb
			segments++
		}
	}
	return bytes, segments
}

// unpackCollective lands GPU g's arrivals at their final addresses
// final[sample][globalFeature][d], consuming the all-to-all's receive buffer
// in packCollective's order: wire segments are expanded (re-pooled) from
// their unique rows, dense segments copied around cache-hit slots (those
// never travelled — they were pooled from the cache at classification time).
// Pairs that rode one-sided stores are expanded from their staging buffers;
// their dense outputs already sit at their final addresses.
func (s *System) unpackCollective(g int, bd *BatchData, recvBuf []float32, all bool) {
	cfg := s.Cfg
	plan := bd.Plan
	view := plan.Cache
	dv := plan.Dedup
	dst := bd.Final[g].Data()
	lo, hi := s.Minibatch(g)
	myNode := s.NodeOf(g)
	at := 0
	for src := 0; src < cfg.GPUs; src++ {
		for o := 0; o < cfg.GPUs; o++ {
			if plan.ServeGPU(o, g) != src {
				continue
			}
			if !plan.viaCollective(o, g, all) {
				switch plan.Class(o, g) {
				case RouteNodeWire:
					s.functionalExpand(g, o, bd.NodeStage[o][myNode], dv.NodeExpand[o][g], bd.Summary, view, dst)
				case RouteWire:
					s.functionalExpand(g, o, bd.DedupStage[o][g], dv.Expand[o][g], bd.Summary, view, dst)
				}
				continue
			}
			if plan.CollectiveClass(o, g) == RouteWire {
				rows := recvBuf[at : at+int(dv.Uniq[o][g])*cfg.Dim]
				at += len(rows)
				s.functionalExpand(g, o, rows, dv.Expand[o][g], bd.Summary, view, dst)
				continue
			}
			var hitRow []bool
			if view != nil && o != g {
				hitRow = view.Hit[o]
			}
			for smp := lo; smp < hi; smp++ {
				for fi, globalFID := range s.Plan[o] {
					if hitRow != nil && hitRow[fi*cfg.BatchSize+smp] {
						continue
					}
					to := dst[((smp-lo)*cfg.TotalTables+globalFID)*cfg.Dim:]
					copy(to[:cfg.Dim], recvBuf[at:at+cfg.Dim])
					at += cfg.Dim
				}
			}
		}
	}
}

// Reference computes the expected per-GPU EMB outputs serially: the full
// (B, TotalTables, d) result partitioned into per-GPU minibatches. Backends
// in functional mode must reproduce it bit-exactly. It errors on a
// timing-only system, which holds no weights.
func Reference(s *System, batch *sparse.Batch) ([]*tensor.Tensor, error) {
	cfg := s.Cfg
	if !cfg.Functional {
		return nil, fmt.Errorf("retrieval: Reference needs functional mode (timing-only systems hold no weights)")
	}
	full := tensor.New(cfg.BatchSize, cfg.TotalTables, cfg.Dim)
	data := full.Data()
	if cfg.Sharding == RowWise {
		coll := s.globalColl
		for fi, fid := range coll.FeatureIDs {
			fb := batch.FeatureByID(fid)
			tbl := coll.Tables[fi]
			for smp := 0; smp < cfg.BatchSize; smp++ {
				off := (smp*cfg.TotalTables + fid) * cfg.Dim
				tbl.LookupPooled(fb.Bag(smp), data[off:off+cfg.Dim])
			}
		}
	} else {
		for g := 0; g < cfg.GPUs; g++ {
			coll := s.colls[g]
			for fi, fid := range s.Plan[g] {
				fb := batch.FeatureByID(fid)
				tbl := coll.Tables[fi]
				for smp := 0; smp < cfg.BatchSize; smp++ {
					off := (smp*cfg.TotalTables + fid) * cfg.Dim
					tbl.LookupPooled(fb.Bag(smp), data[off:off+cfg.Dim])
				}
			}
		}
	}
	outs := make([]*tensor.Tensor, cfg.GPUs)
	for g := 0; g < cfg.GPUs; g++ {
		lo, hi := s.Minibatch(g)
		outs[g] = full.Narrow(0, lo, hi-lo).Contiguous()
	}
	return outs, nil
}
