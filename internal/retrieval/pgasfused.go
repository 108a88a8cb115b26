package retrieval

import (
	"fmt"

	"pgasemb/internal/embedding"
	"pgasemb/internal/gpu"
	"pgasemb/internal/pgas"
	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/trace"
)

// AggregatorConfig enables the paper's future-work aggregated-store variant
// (§V): one-sided stores to the same destination are batched into
// FlushBytes-sized messages, bounded by MaxWait.
type AggregatorConfig struct {
	FlushBytes int
	MaxWait    sim.Duration
}

// PGASFused is the paper's contribution: a single fused kernel per GPU that
// pools each output embedding and immediately issues a one-sided PGAS store
// to the GPU that owns the output's sample (Listing 2), followed by quiet.
// There is no separate communication phase, no packing into collective
// buffers, and no unpack step — remote writes land at their final address.
//
// StageRemote is the A2 ablation: stores overlap with compute as usual but
// land in a rank-ordered staging buffer on the destination, so the unpack
// step returns — isolating how much of the win is overlap alone.
//
// Aggregate, when non-nil, routes remote stores through the asynchronous
// aggregator (future-work variant A3).
type PGASFused struct {
	StageRemote bool
	Aggregate   *AggregatorConfig
}

// Name implements Backend.
func (b *PGASFused) Name() string {
	switch {
	case b.StageRemote:
		return "pgas-overlap-only"
	case b.Aggregate != nil:
		return "pgas-aggregated"
	default:
		return "pgas-fused"
	}
}

// ValidateConfig implements ConfigValidator.
func (b *PGASFused) ValidateConfig(cfg Config) error {
	if cfg.Sharding != TableWise {
		return fmt.Errorf("requires table-wise sharding; use RowWisePGAS for row-wise configurations")
	}
	if cfg.Replicas > 1 && (b.StageRemote || b.Aggregate != nil) {
		return fmt.Errorf("shard replication supports the fused store path only (staging and aggregation " +
			"address fixed owners; replica failover re-routes pairs per batch)")
	}
	return nil
}

// RunBatch runs the fused executor over the (shard, consumer) pairs GPU g
// serves, following the plan's per-pair transport. On its own the plan
// routes every pair over one-sided stores; when a transport rule (the hybrid
// backend's) moved some pairs onto the all-to-all, the same chunked kernel
// streams those into the send buffer instead and the batch ends with the
// collective exchange.
func (b *PGASFused) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	cfg := s.Cfg
	dev := s.Devs[g]
	stream := dev.Stream("emb-fused")
	sc := s.scratchFor(g, bd)
	pe := s.PGAS.PE(g)
	pe.SetSlot(bd.Slot)
	fg := s.LocalTables(g)
	lo, hi := s.Minibatch(g)
	mini := hi - lo

	var agg *pgas.Aggregator
	if b.Aggregate != nil {
		agg = pgas.NewAggregator(pe, b.Aggregate.FlushBytes, b.Aggregate.MaxWait)
	}

	batchStart := p.Now()
	p.Wait(dev.Params().KernelLaunch)

	vecBytes := cfg.VectorBytes()
	fvb := float64(vecBytes)
	wireVecBytes := cfg.WireVectorBytes() // per-vector payload on the transport

	// Hot-row cache discounts (zero when plan.Cache is nil): the kernel's
	// occupancy is set by the whole batch's real item count — skipped hit
	// vectors removed, consumer-side cache gathers added. With dedup, wire
	// pairs contribute their unique rows as items instead of dense vectors.
	// All routing decisions come from the batch's compiled plan.
	plan := bd.Plan
	view := plan.Cache
	dv := plan.Dedup
	batchHitVecs, _ := view.HitAt(g)
	kernelItems := plan.servedVecs(g) + batchHitVecs
	if dv != nil {
		for d := 0; d < cfg.GPUs; d++ {
			if plan.Class(g, d) == RouteWire {
				kernelItems += int(dv.Uniq[g][d]) - int(dv.DenseVecs[g][d])
			}
		}
		if dv.NodeWire != nil {
			for node := range dv.NodeWire[g] {
				if plan.NodeWire(g, node) {
					kernelItems += int(dv.NodeUniq[g][node]) - int(dv.NodeDense[g][node])
				}
			}
		}
	}
	peers := plan.storePeers(g)
	stores := scratchSlice(&sc.stores, cfg.GPUs)

	var scratch []float32
	var cursors, nodeCursors []int
	if cfg.Functional {
		scratch = scratchSlice(&sc.vec, cfg.Dim)
		if dv != nil {
			cursors = scratchSlice(&sc.cursors, cfg.GPUs)
			for i := range cursors {
				cursors[i] = 0
			}
			if dv.NodeWire != nil {
				nodeCursors = scratchSlice(&sc.nodeCursors, s.cluster.Nodes)
				for i := range nodeCursors {
					nodeCursors[i] = 0
				}
			}
		}
	}

	// Owner-side wire encode: remote-bound vectors are compressed as they
	// leave. Priced once for the batch from the plan's counts — a streaming
	// kernel folded into the fused window, identical in both modes.
	if cfg.WireCodecActive() && cfg.GPUs > 1 {
		if sent, _ := plan.OneSidedCodecVecs(g); sent > 0 {
			p.Wait(dev.EncodeKernelCost(float64(sent)*fvb, float64(sent)*float64(wireVecBytes)))
		}
	}

	// The fused kernel walks the batch in sample-range chunks; each chunk
	// pays its share of compute time, then its remote outputs leave as
	// one-sided stores while the next chunk computes — the fine-grained
	// overlap of §III-B.
	chunks := cfg.ChunksPerKernel
	for k := 0; k < chunks; k++ {
		s0 := cfg.BatchSize * k / chunks
		s1 := cfg.BatchSize * (k + 1) / chunks
		if s0 == s1 {
			continue
		}
		p.Wait(s.fusedChunkCost(g, bd, s0, s1, kernelItems, peers, stores))

		if cfg.Functional {
			s.fusedChunkStores(g, bd, s0, s1, scratch, cursors, nodeCursors, agg)
			continue
		}
		for c, vecs := range stores {
			if vecs == 0 {
				continue
			}
			target := c
			if plan.Class(g, c) == RouteNodeWire {
				// Node-level wire dedup: the chunk's new node keys are
				// addressed at the destination node's stage-lane GPU.
				// (Dedup and replication are exclusive: g owns the pair.)
				target = s.stageGPU(g, s.NodeOf(c))
			}
			if agg != nil {
				agg.StoreBytes(s.PGAS.PE(target), vecs*wireVecBytes)
			} else {
				pe.PutVectors(s.PGAS.PE(target), vecs, wireVecBytes)
			}
		}
	}

	if agg != nil {
		agg.FlushAll()
	}
	pe.QuietSlot(p, bd.Slot)
	bk.Accumulate(CompFused, p.Now()-batchStart)

	if plan.mixedTransport() {
		b.finishMixed(s, p, g, bd, bk, stream)
		return
	}

	if bd.dedupBarrier != nil {
		// Quiet drained only OUR pipes; expansion consumes rows streamed by
		// every owner, so all PEs rendezvous first.
		expandStart := p.Now()
		bd.dedupBarrier.Await(p)
		refs, outVecs := s.expansionLoad(p, g, bd)
		if outVecs > 0 {
			expand := dev.ExpandKernelCost(refs, outVecs, vecBytes)
			stream.Launch(p, expand) // drains before the final Synchronize
			if cfg.Functional {
				s.unpackCollective(g, bd, nil, false)
			}
		}
		bk.Accumulate(CompSyncUnpack, p.Now()-expandStart)
	}

	if b.StageRemote && cfg.GPUs > 1 {
		// A2 ablation: remote stores landed rank-ordered; rearrange.
		// (Staging addresses fixed owners, so replication is rejected by
		// ValidateConfig and g's peers are the shard owners.)
		unpackStart := p.Now()
		var remoteBytes float64
		if dv == nil {
			remoteBytes = float64(mini*(cfg.TotalTables-fg)-batchHitVecs) * fvb
		} else {
			myNode := s.NodeOf(g)
			for src := 0; src < cfg.GPUs; src++ {
				if src == g {
					continue
				}
				switch plan.Class(src, g) {
				case RouteNodeWire:
					// Node-staged rows land on the stage-lane GPU only.
					if s.stageGPU(src, myNode) == g {
						remoteBytes += float64(dv.NodeUniq[src][myNode]) * fvb
					}
				case RouteWire:
					remoteBytes += float64(dv.Uniq[src][g]) * fvb
				default:
					remoteBytes += float64(dv.DenseVecs[src][g]) * fvb
				}
			}
		}
		unpack := dev.UnpackKernelCost(remoteBytes, cfg.GPUs-1)
		_, unpackEnd := stream.Launch(p, unpack)
		p.WaitUntil(unpackEnd)
		bk.Accumulate(CompSyncUnpack, p.Now()-unpackStart)
	}

	// Consumer-side wire decode: everything one-sidedly landed here is
	// dequantized back to fp32 before the next layer reads it.
	if cfg.WireCodecActive() && cfg.GPUs > 1 {
		decStart := p.Now()
		if _, recv := plan.OneSidedCodecVecs(g); recv > 0 {
			dec := dev.DecodeKernelCost(float64(recv)*float64(wireVecBytes), float64(recv)*fvb)
			_, decEnd := stream.Launch(p, dec)
			p.WaitUntil(decEnd)
		}
		bk.Accumulate(CompSyncUnpack, p.Now()-decStart)
	}

	syncStart := p.Now()
	stream.Synchronize(p)
	bk.Accumulate(CompSyncUnpack, p.Now()-syncStart)
}

// finishMixed ends a batch whose pairs split across both transports. Quiet
// has drained this rank's stores; ALL ranks now enter one all-to-all
// carrying only the collective-routed pairs — its entry rendezvous doubles as
// the post-store barrier, so staged dedup rows are complete before any
// consumer expands. Then the collective's dense segments are unpacked and one
// expansion kernel re-pools every wire pairing, whichever transport
// delivered its rows.
func (b *PGASFused) finishMixed(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown, stream *gpu.Stream) {
	cfg := s.Cfg
	dev := s.Devs[g]
	plan := bd.Plan
	commStart := p.Now()
	recvBuf := s.exchangeCollective(p, g, bd, false)
	bk.Accumulate(CompComm, p.Now()-commStart)

	unpackStart := p.Now()
	// Consumer-side wire decode first: both arrival paths carry encoded
	// rows, dequantized back to fp32 before unpack/expansion reads them.
	if cfg.WireCodecActive() {
		if _, recv := plan.OneSidedCodecVecs(g); recv > 0 {
			dec := dev.DecodeKernelCost(float64(recv)*float64(cfg.WireVectorBytes()), float64(recv)*float64(cfg.VectorBytes()))
			_, decEnd := stream.Launch(p, dec)
			p.WaitUntil(decEnd)
		}
	}
	if denseBytes, denseSegs := plan.collectiveDenseArrivals(g, false); denseSegs > 0 {
		unpack := dev.UnpackKernelCost(denseBytes, denseSegs)
		_, unpackEnd := stream.Launch(p, unpack)
		p.WaitUntil(unpackEnd)
	}
	if plan.Dedup != nil {
		// Expansion cost is transport-independent: the same references
		// re-pool from the same unique-row working set whether the rows
		// arrived in a collective segment or a PGAS staging buffer.
		if refs, outVecs := s.expansionLoad(p, g, bd); outVecs > 0 {
			expand := dev.ExpandKernelCost(refs, outVecs, cfg.VectorBytes())
			_, expandEnd := stream.Launch(p, expand)
			p.WaitUntil(expandEnd)
		}
	}
	if cfg.Functional {
		s.unpackCollective(g, bd, recvBuf, false)
	}
	stream.Synchronize(p)
	bk.Accumulate(CompSyncUnpack, p.Now()-unpackStart)
}

// expansionLoad returns consumer g's expansion work — the pooled-index
// references and output vectors of every wire pairing it receives — after
// redistributing node-staged rows from their stage-lane GPU over NVLink
// (still wire-encoded; consumers decode before the final sync) and waiting
// for the last of them to land.
func (s *System) expansionLoad(p *sim.Proc, g int, bd *BatchData) (refs int64, outVecs int) {
	plan := bd.Plan
	dv := plan.Dedup
	myNode := s.NodeOf(g)
	var redist sim.Time
	for src := 0; src < s.Cfg.GPUs; src++ {
		if src == g {
			continue
		}
		switch plan.Class(src, g) {
		case RouteNodeWire:
			refs += dv.MissIdx[src][g]
			outVecs += int(dv.DenseVecs[src][g])
			if lane := s.stageGPU(src, myNode); lane != g {
				bytes := float64(dv.NodeUniq[src][myNode]) * s.Fab.WireBytes(s.Cfg.WireVectorBytes())
				if done := s.Fab.Pipe(lane, g).Offer(bytes); done > redist {
					redist = done
				}
			}
		case RouteWire:
			refs += dv.MissIdx[src][g]
			outVecs += int(dv.DenseVecs[src][g])
		}
	}
	if redist > p.Now() {
		p.WaitUntil(redist)
	}
	return refs, outVecs
}

// fusedChunkCost prices one chunk of the fused kernel pair by pair over the
// (shard, consumer) pairs GPU g serves: own-minibatch outputs store to HBM
// (with gather dedup when it wins), dense remote pairs gather their cache
// misses and issue one store per vector, and wire pairs gather and issue
// only the keys first seen in this chunk. Pairs riding the all-to-all stream
// their outputs into the HBM send buffer instead of issuing stores, and the
// per-peer store overhead covers store-routed peers only. Chunk items sum
// exactly to the kernel's occupancy item count. stores[c] receives the
// vectors the chunk issues to consumer c as one-sided stores.
func (s *System) fusedChunkCost(g int, bd *BatchData, s0, s1, kernelItems, peers int, stores []int) sim.Duration {
	cfg := s.Cfg
	dev := s.Devs[g]
	plan := bd.Plan
	fvb := float64(cfg.VectorBytes())
	var readBytes, streamBytes float64
	var items, issues int
	var chunkIdx int64
	for c := range stores {
		stores[c] = 0
	}
	for c := 0; c < cfg.GPUs; c++ {
		clo, chi := s.Minibatch(c)
		c0, c1 := clampRange(s0, s1, clo, chi)
		if c1 <= c0 {
			continue
		}
		for o := 0; o < cfg.GPUs; o++ {
			if plan.ServeGPU(o, c) != g {
				continue
			}
			vecs := (c1 - c0) * s.LocalTables(o)
			pairIdx := s.localIndexTotal(bd.Summary, o, c0, c1)
			if c == g {
				chunkIdx += pairIdx
				if plan.GatherDedup(o, c) {
					nk := int64(plan.NewKeysIn(o, c, c0, c1))
					readBytes += float64(nk)*fvb + dev.HotReadEquivalent(float64(pairIdx-nk)*fvb)
					streamBytes += float64(nk) * fvb
				} else {
					readBytes += float64(pairIdx) * fvb
				}
				streamBytes += float64(vecs) * fvb
				items += vecs
				continue
			}
			hitV, hitI := plan.OwnerChunkHits(bd.Summary, o, c0, c1)
			missIdx := pairIdx - hitI
			chunkIdx += missIdx
			coll := plan.ViaCollective(o, c)
			switch plan.Class(o, c) {
			case RouteNodeWire:
				nk := plan.NodeNewKeysIn(o, s.NodeOf(c), c0, c1)
				readBytes += float64(nk) * fvb
				items += nk
				issues += nk
				stores[c] += nk
				continue
			case RouteWire:
				nk := plan.NewKeysIn(o, c, c0, c1)
				readBytes += float64(nk) * fvb
				items += nk
				if coll {
					streamBytes += float64(nk) * fvb
				} else {
					issues += nk
					stores[c] += nk
				}
				continue
			}
			missVecs := vecs - hitV
			if plan.GatherDedup(o, c) {
				nk := int64(plan.NewKeysIn(o, c, c0, c1))
				readBytes += float64(nk)*fvb + dev.HotReadEquivalent(float64(missIdx-nk)*fvb)
				streamBytes += float64(nk) * fvb
			} else {
				readBytes += float64(missIdx) * fvb
			}
			items += missVecs
			if coll {
				streamBytes += float64(missVecs) * fvb
			} else {
				issues += missVecs
				stores[c] += missVecs
			}
		}
	}
	hitVecs, hitIdx := plan.ConsumerChunkHits(bd.Summary, g, s0, s1)
	readBytes += dev.HotReadEquivalent(float64(hitIdx) * fvb)
	streamBytes += float64(chunkIdx+hitIdx)*8 + float64(hitVecs)*fvb
	items += hitVecs
	return dev.GatherKernelChunkCost(readBytes, streamBytes, items, kernelItems) +
		dev.RemoteIssueCost(issues) +
		sim.Duration(peers)*dev.Params().RemotePeerChunkOverhead
}

// clampRange returns [a0, a1) ∩ [b0, b1) as a (possibly empty) range.
func clampRange(a0, a1, b0, b1 int) (int, int) {
	if b0 > a0 {
		a0 = b0
	}
	if b1 < a1 {
		a1 = b1
	}
	return a0, a1
}

// fusedChunkStores pools every output in [s0, s1) that GPU g serves over
// one-sided stores and stores it at its final address on the consumer (a
// local copy for its own minibatch) — except cache-hit vectors, which the
// consumer already pooled locally, and wire pairs, where only the unique rows
// first referenced in this chunk are streamed (in canonical first-seen
// order) into the consumer's staging buffer; the consumer expands them after
// the dedup barrier. Pairs riding the all-to-all are packed after the kernel.
func (s *System) fusedChunkStores(g int, bd *BatchData, s0, s1 int, scratch []float32, cursors, nodeCursors []int, agg *pgas.Aggregator) {
	cfg := s.Cfg
	plan := bd.Plan
	view := plan.Cache
	dv := plan.Dedup
	pe := s.PGAS.PE(g)
	for smp := s0; smp < s1; smp++ {
		c := sparse.OwnerOfSample(cfg.BatchSize, cfg.GPUs, smp)
		clo, _ := s.Minibatch(c)
		for o := 0; o < cfg.GPUs; o++ {
			if plan.ServeGPU(o, c) != g || plan.ViaCollective(o, c) {
				continue
			}
			coll := s.colls[o]
			switch plan.Class(o, c) {
			case RouteNodeWire:
				// Node-level wire dedup: stream the node keys this sample
				// introduces into the destination node's staging buffer, via
				// its stage-lane PE (one NIC crossing per node-unique row).
				node := s.NodeOf(c)
				nlo, _ := s.nodeSampleRange(node)
				cur := nodeCursors[node]
				n := int(dv.NodeNewAt[o][node][smp-nlo])
				lane := s.PGAS.PE(s.stageGPU(o, node))
				s.storeRows(pe, lane, coll, dv.NodeKeys[o][node][cur:cur+n], bd.NodeStage[o][node][cur*cfg.Dim:], agg)
				nodeCursors[node] = cur + n
			case RouteWire:
				// Stream the keys this sample introduces; everything else in
				// its bags is already staged (only first references ship).
				cur := cursors[c]
				n := int(dv.NewAt[o][c][smp-clo])
				s.storeRows(pe, s.PGAS.PE(c), coll, dv.Keys[o][c][cur:cur+n], bd.DedupStage[o][c][cur*cfg.Dim:], agg)
				cursors[c] = cur + n
			default:
				dstData := bd.Final[c].Data()
				part := bd.Parts[o]
				for fi := range part.Features {
					if view != nil && view.Hit[o][fi*cfg.BatchSize+smp] {
						continue
					}
					fb := &part.Features[fi]
					coll.Tables[fi].LookupPooled(fb.Bag(smp), scratch)
					off := ((smp-clo)*cfg.TotalTables + fb.FeatureID) * cfg.Dim
					store(pe, agg, s.PGAS.PE(c), dstData[off:off+cfg.Dim], scratch)
				}
			}
		}
	}
}

// storeRows streams the unique rows named by keys out of coll's tables into
// consecutive slots of a staging buffer on target, one store per row.
func (s *System) storeRows(pe, target *pgas.PE, coll *embedding.Collection, keys []uint64, stage []float32, agg *pgas.Aggregator) {
	d := s.Cfg.Dim
	for i, key := range keys {
		row := int(uint32(key))
		w := coll.Tables[key>>32].Weights.Data()
		store(pe, agg, target, stage[i*d:(i+1)*d], w[row*d:(row+1)*d])
	}
}

// store issues one functional one-sided store, through the aggregator when
// the backend batches stores.
func store(pe *pgas.PE, agg *pgas.Aggregator, target *pgas.PE, dst, src []float32) {
	if agg != nil {
		agg.Store(target, dst, src)
	} else {
		pe.PutFloat32s(target, dst, src)
	}
}

// overlap returns |[a0,a1) ∩ [b0,b1)|.
func overlap(a0, a1, b0, b1 int) int {
	lo, hi := a0, a1
	if b0 > lo {
		lo = b0
	}
	if b1 < hi {
		hi = b1
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}
