package retrieval

import (
	"pgasemb/internal/cache"
	"pgasemb/internal/embedding"
	"pgasemb/internal/fault"
	"pgasemb/internal/metrics"
	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/workload"
)

// Route-plan compilation. Every batch's key classification — which output
// vectors are cache hits, which (owner, consumer) pairs ship unique rows
// instead of dense pooled vectors, which pairs ride node-level staging — used
// to be consulted ad hoc by each backend in each mode. It now happens in ONE
// host-side pass per batch: NextBatchData compiles a RoutePlan, and backends
// only ask the plan how a pair is routed. Timing and functional execution
// therefore follow the same decisions by construction, and a new
// classification feature is wired once, here, instead of once per backend
// per mode.
//
// The plan is a pure function of the workload seed, the cache state and the
// machine shape — never of simulated-process interleaving — so every GPU's
// process reads identical routes, which is what lets backends make
// whole-machine decisions (e.g. the hybrid backend's per-pair transport
// choice) without any cross-process agreement protocol.

// PairClass is the route of one (owner, consumer) pair.
type PairClass uint8

const (
	// RouteLocal marks the diagonal: the owner's own minibatch, pooled
	// straight into local HBM.
	RouteLocal PairClass = iota
	// RouteDense ships one pooled vector per (sample, table) — the paper's
	// base scheme, minus cache hits.
	RouteDense
	// RouteWire ships the pair's unique rows once; the consumer expands
	// (pair-level index deduplication).
	RouteWire
	// RouteNodeWire ships each row once per destination NODE, staged on a
	// lane GPU and redistributed over NVLink (multi-node machines, one-sided
	// transports only — a pair-addressed collective cannot use it).
	RouteNodeWire
)

// String labels the class for diagnostics.
func (c PairClass) String() string {
	switch c {
	case RouteLocal:
		return "local"
	case RouteDense:
		return "dense"
	case RouteWire:
		return "wire"
	case RouteNodeWire:
		return "node-wire"
	default:
		return "unknown"
	}
}

// RoutePlan is one batch's compiled classification: the hot-row cache view,
// the deduplication view, the replica routing, and the per-pair route and
// transport queries every backend shares. Cache and Dedup are nil when the
// corresponding feature is off.
//
// Backends walk the batch as served (shard, consumer) pairs: shard o's
// vectors for consumer c are gathered by ServeGPU(o, c) and travel by the
// pair's transport — one-sided stores from the fused kernel, or the bulk
// all-to-all. The two paper schemes are the uniform transports (pgas-fused
// stores every pair, the baseline's bulk kernel sends every pair through the
// collective); the hybrid backend assigns the transport per pair.
type RoutePlan struct {
	sys   *System
	Cache *CacheView
	Dedup *DedupView

	// Serve is the batch's replica routing (nil unless Config.Replicas > 1):
	// Serve[o][c] is the GPU that serves shard o's vectors to consumer c; see
	// computeServe.
	Serve [][]int

	// collective[src*GPUs+dst] marks the pairs that ride the all-to-all
	// instead of one-sided stores (nil: every pair rides stores). Filled once
	// per batch by routeTransports, which also records whether any (and
	// whether every) data-moving pair rides the collective.
	collective       []bool
	anyColl, allColl bool
}

// ServeGPU returns the GPU serving shard o to consumer c (o itself without
// replication).
func (p *RoutePlan) ServeGPU(o, c int) int {
	if p.Serve == nil {
		return o
	}
	return p.Serve[o][c]
}

// ViaCollective reports whether the (shard src -> consumer dst) pair rides
// the bulk all-to-all rather than one-sided stores. Every pair rides stores
// unless a transport rule routed the batch (see routeTransports).
func (p *RoutePlan) ViaCollective(src, dst int) bool {
	return p.collective != nil && p.collective[src*p.sys.Cfg.GPUs+dst]
}

// routeTransports assigns every off-diagonal pair its transport — the
// all-to-all where rule reports true, one-sided stores otherwise — and
// reports whether any pair that moves data rides the collective and whether
// every one does (zero-vector pairs are transport-indifferent and excluded
// from the all-collective tally). The rule runs once per batch: the first GPU
// process to ask evaluates it and the rest read the stored matrix, which is
// what each would have derived anyway — the plan is a pure function of the
// batch and the machine.
func (p *RoutePlan) routeTransports(rule func(p *RoutePlan, src, dst int) bool) (anyColl, allColl bool) {
	if p.collective != nil {
		return p.anyColl, p.allColl
	}
	G := p.sys.Cfg.GPUs
	p.collective = make([]bool, G*G)
	p.allColl = G > 1
	for src := 0; src < G; src++ {
		for dst := 0; dst < G; dst++ {
			if src == dst {
				continue
			}
			coll := rule(p, src, dst)
			p.collective[src*G+dst] = coll
			if p.CollectiveVecs(src, dst) == 0 && p.Class(src, dst) != RouteNodeWire {
				continue
			}
			if coll {
				p.anyColl = true
			} else {
				p.allColl = false
			}
		}
	}
	return p.anyColl, p.allColl
}

// mixedTransport reports whether the batch's pairs split across both
// transports, so the fused executor must run the all-to-all as well.
func (p *RoutePlan) mixedTransport() bool { return p.anyColl && !p.allColl }

// servedVecs returns the output vectors GPU g produces for the batch: every
// (shard, consumer) pair it serves, minus the pair's cache-hit vectors (the
// consumer pools those itself).
func (p *RoutePlan) servedVecs(g int) int {
	s := p.sys
	vecs := 0
	for c := 0; c < s.Cfg.GPUs; c++ {
		lo, hi := s.Minibatch(c)
		for o := 0; o < s.Cfg.GPUs; o++ {
			if p.ServeGPU(o, c) != g {
				continue
			}
			vecs += (hi - lo) * s.LocalTables(o)
			if p.Cache != nil && o != c {
				vecs -= p.Cache.WireVecs[o][c]
			}
		}
	}
	return vecs
}

// storePeers returns how many remote consumers GPU g serves over one-sided
// stores — the peers the fused kernel pays a per-chunk store overhead for.
func (p *RoutePlan) storePeers(g int) int {
	G := p.sys.Cfg.GPUs
	peers := 0
	for c := 0; c < G; c++ {
		if c == g {
			continue
		}
		for o := 0; o < G; o++ {
			if p.ServeGPU(o, c) == g && !p.ViaCollective(o, c) {
				peers++
				break
			}
		}
	}
	return peers
}

// Class returns the (owner src → consumer dst) route under a one-sided
// transport, where node-level wire dedup supersedes the pair-level decision.
func (p *RoutePlan) Class(src, dst int) PairClass {
	if src == dst {
		return RouteLocal
	}
	dv := p.Dedup
	if dv == nil {
		return RouteDense
	}
	if p.sys.nodeWirePair(dv, src, dst) {
		return RouteNodeWire
	}
	if dv.Wire[src][dst] {
		return RouteWire
	}
	return RouteDense
}

// CollectiveClass returns the pair's route under a pair-addressed collective:
// the all-to-all's segments are addressed per (owner, consumer), so node-level
// staging never applies and the pair-level wire decision stands.
func (p *RoutePlan) CollectiveClass(src, dst int) PairClass {
	if src == dst {
		return RouteLocal
	}
	if dv := p.Dedup; dv != nil && dv.Wire[src][dst] {
		return RouteWire
	}
	return RouteDense
}

// NodeWire reports whether owner src ships node-deduplicated rows to node.
func (p *RoutePlan) NodeWire(src, node int) bool {
	dv := p.Dedup
	return dv != nil && dv.NodeWire != nil && dv.NodeWire[src][node]
}

// CollectiveVecs returns how many vectors owner src contributes to consumer
// dst's receive segment of the pair-addressed all-to-all: the contiguous
// local segment on the diagonal, the pair's unique rows on a wire route, the
// cache-missed dense vectors otherwise.
func (p *RoutePlan) CollectiveVecs(src, dst int) int {
	s := p.sys
	dlo, dhi := s.Minibatch(dst)
	mini := dhi - dlo
	if src == dst {
		return mini * s.LocalTables(src)
	}
	if dv := p.Dedup; dv != nil {
		if dv.Wire[src][dst] {
			return int(dv.Uniq[src][dst])
		}
		return int(dv.DenseVecs[src][dst])
	}
	vecs := mini * s.LocalTables(src)
	if v := p.Cache; v != nil {
		vecs -= v.WireVecs[src][dst]
	}
	return vecs
}

// CollectiveCodecVecs returns the vectors GPU g encodes into and decodes out
// of the pair-addressed all-to-all when a wire codec is active: every pair it
// serves to a remote consumer (sent) and every pair a remote GPU serves to it
// (recv). Pairs served consumer-locally stay HBM traffic and are never
// encoded.
func (p *RoutePlan) CollectiveCodecVecs(g int) (sent, recv int64) {
	G := p.sys.Cfg.GPUs
	for o := 0; o < G; o++ {
		for c := 0; c < G; c++ {
			if c != g && p.ServeGPU(o, c) == g {
				sent += int64(p.CollectiveVecs(o, c))
			}
		}
		if p.ServeGPU(o, g) != g {
			recv += int64(p.CollectiveVecs(o, g))
		}
	}
	return sent, recv
}

// OneSidedCodecVecs returns the vectors GPU g encodes (as the server issuing
// one-sided stores) and decodes (as a consumer, before expand/unpack) when a
// wire codec is active. Node-wire routes ship each node-deduplicated row
// once per destination node (counted once on the send side), and every
// consumer on the node decodes the full staged set its expansion references.
// Per pair both transports move the same vectors, so the tally also covers a
// batch whose pairs split across stores and the all-to-all.
func (p *RoutePlan) OneSidedCodecVecs(g int) (sent, recv int64) {
	s := p.sys
	G := s.Cfg.GPUs
	for o := 0; o < G; o++ {
		for c := 0; c < G; c++ {
			if c != g && p.ServeGPU(o, c) == g && p.Class(o, c) != RouteNodeWire {
				sent += int64(p.CollectiveVecs(o, c))
			}
		}
		switch {
		case p.ServeGPU(o, g) == g:
		case p.Class(o, g) == RouteNodeWire:
			recv += p.Dedup.NodeUniq[o][s.NodeOf(g)]
		default:
			recv += int64(p.CollectiveVecs(o, g))
		}
	}
	if dv := p.Dedup; dv != nil && dv.NodeWire != nil {
		for node, wire := range dv.NodeWire[g] {
			if wire {
				sent += dv.NodeUniq[g][node]
			}
		}
	}
	return sent, recv
}

// GatherDedup reports whether the pair's owner-side gather stages each unique
// row once and serves duplicate references from the staged working set
// (timing model only; output data is unchanged).
func (p *RoutePlan) GatherDedup(src, dst int) bool {
	dv := p.Dedup
	return dv != nil && dv.Gather[src][dst]
}

// NewKeysIn returns the pair's unique keys first seen in sample range
// [s0, s1), clamped to the consumer's minibatch. Wire and gather-dedup routes
// only.
func (p *RoutePlan) NewKeysIn(src, dst, s0, s1 int) int {
	return p.Dedup.newKeysIn(p.sys, src, dst, s0, s1)
}

// NodeNewKeysIn returns owner src's node-level unique keys first seen in
// sample range [s0, s1), clamped to the node's sample range. Node-wire routes
// only.
func (p *RoutePlan) NodeNewKeysIn(src, node, s0, s1 int) int {
	return p.sys.nodeNewKeysIn(p.Dedup, src, node, s0, s1)
}

// OwnerChunkHits returns the cache-hit vectors (and pooled indices) owner g
// skips within sample range [s0, s1); see cacheChunkOwner.
func (p *RoutePlan) OwnerChunkHits(sum *workload.Summary, g, s0, s1 int) (vecs int, idx int64) {
	return p.sys.cacheChunkOwner(p.Cache, sum, g, s0, s1)
}

// ConsumerChunkHits returns the cache-hit vectors (and pooled indices)
// consumer g pools locally within [s0, s1); see cacheChunkConsumer.
func (p *RoutePlan) ConsumerChunkHits(sum *workload.Summary, g, s0, s1 int) (vecs int, idx int64) {
	return p.sys.cacheChunkConsumer(p.Cache, sum, g, s0, s1)
}

// planScratch is the per-run arena for plan COMPILATION: working state that
// never outlives one compileRoutePlan call (per-batch outputs — the views,
// key lists, expansion maps, staging buffers — must stay per-batch
// allocations, because a run pre-generates every batch before executing).
// NextBatchData runs host-side on one goroutine, so no synchronisation.
type planScratch struct {
	seen       map[uint64]int32     // pair/node unique-key index
	fbs        []*sparse.FeatureBag // one owner's feature bags
	expTmp     [][]int32            // node classifier's per-consumer expansion holder
	rowScratch []int32              // cache classifier's hashed-bag scratch
}

// compileRoutePlan runs the classifier passes for one batch and attaches the
// resulting plan to bd.
func (s *System) compileRoutePlan(bd *BatchData) {
	plan := &RoutePlan{sys: s}
	bd.Plan = plan
	if s.cacheEnabled() {
		// Cache classification first: hit vectors never enter the dedup key
		// sets, so the dedup pass below sees only cache misses.
		plan.Cache = s.classifyCache(bd)
	} else if s.hotMirrorActive() {
		// Mirrored hot tables ride the same view: their vectors are
		// guaranteed local hits for every consumer, so every backend's
		// cache-skip path serves mirror reads unchanged. (Cache and adaptive
		// placement are mutually exclusive by Config validation.)
		plan.Cache = s.classifyHotMirror(bd)
	}
	if s.dedupEnabled() {
		plan.Dedup = s.classifyDedup(bd)
		s.attachDedup(bd, plan.Dedup)
	}
	if s.Cfg.Replicas > 1 {
		plan.Serve = s.computeServe(s.batchSeq + s.faultOffset)
	}
}

// Replicated shards (Config.Replicas > 1): shard o's tables are mirrored on
// GPUs (o+k) mod GPUs for k < Replicas, and the route-plan compiler picks,
// per batch and per (shard, consumer) pair, which replica serves — the
// consumer itself when it holds a mirror (the remote read becomes a local
// gather), otherwise the replica with the best degradation-aware path. The
// selection is a pure function of (fault schedule, batch index, machine
// shape), so every GPU derives the same Serve matrix host-side and no
// agreement protocol runs on the simulated machine. Backends need no replica
// code of their own: they walk served pairs through ServeGPU, which is the
// identity without replication.
//
// Functionally, mirrors alias the primary shard's collection (s.colls[o]):
// replication changes which GPU reads the weights, never the weights
// themselves, so replicated results are bit-exact against the serial
// reference under any fault schedule by construction.
//
// computeServe builds the batch's replica routing: Serve[o][c] is the GPU
// serving shard o to consumer c. Ties between equally healthy replicas break
// toward the smallest replica offset k, keeping the choice deterministic.
func (s *System) computeServe(batch int) [][]int {
	cfg := s.Cfg
	G := cfg.GPUs
	sched := s.HW.Faults
	serve := make([][]int, G)
	for o := 0; o < G; o++ {
		row := make([]int, G)
		for c := 0; c < G; c++ {
			best, bestBW := o, -1.0
			for k := 0; k < cfg.Replicas; k++ {
				r := (o + k) % G
				if r == c {
					// A consumer-local mirror always wins: no wire at all.
					best = c
					break
				}
				if bw := s.replicaPathBW(sched, batch, r, c); bw > bestBW {
					best, bestBW = r, bw
				}
			}
			row[c] = best
		}
		serve[o] = row
	}
	return serve
}

// replicaPathBW scores the replica r -> consumer c path: the effective
// bandwidth of the pair's wire after the batch's degradations. Same-node
// pairs ride NVLink (link count x per-link rate x link health); cross-node
// pairs ride the NICs, throttled by the unhealthier of the egress and
// ingress rails.
func (s *System) replicaPathBW(sched *fault.Schedule, batch, r, c int) float64 {
	if s.multiNode() && s.NodeOf(r) != s.NodeOf(c) {
		egress := sched.NICFactor(batch, s.NodeOf(r), s.Net.Rail(r))
		ingress := sched.NICFactor(batch, s.NodeOf(c), s.Net.Rail(c))
		health := egress
		if ingress < health {
			health = ingress
		}
		return s.HW.NIC.Bandwidth * health
	}
	links := float64(s.Fab.Topology().Links(r, c))
	return links * s.HW.Link.LinkBandwidth * sched.LinkFactor(batch, r, c)
}

// classifyCache probes every remote-owned output vector of the batch against
// the consumer's cache, admits missed rows, and (in functional mode) pools
// hit vectors into bd.Final immediately — with the cache contents as of this
// classification, so later evictions cannot corrupt earlier batches.
func (s *System) classifyCache(bd *BatchData) *CacheView {
	s.ensureCaches()
	cfg := s.Cfg
	B := cfg.BatchSize
	view := &CacheView{
		Hit:      make([][]bool, cfg.GPUs),
		WireVecs: make([][]int, cfg.GPUs),
		WireIdx:  make([][]int64, cfg.GPUs),
	}
	for p := 0; p < cfg.GPUs; p++ {
		view.Hit[p] = make([]bool, len(s.Plan[p])*B)
		view.WireVecs[p] = make([]int, cfg.GPUs)
		view.WireIdx[p] = make([]int64, cfg.GPUs)
	}
	rowScratch := s.planScr.rowScratch
	defer func() { s.planScr.rowScratch = rowScratch }()
	for g := 0; g < cfg.GPUs; g++ {
		c := s.Caches.GPU(g)
		lo, hi := s.Minibatch(g)
		for p := 0; p < cfg.GPUs; p++ {
			if p == g {
				continue
			}
			for fi, fid := range s.Plan[p] {
				fb := bd.Sparse.FeatureByID(fid)
				var w []float32
				if cfg.Functional {
					w = s.colls[p].Tables[fi].Weights.Data()
				}
				for smp := lo; smp < hi; smp++ {
					bag := fb.Bag(smp)
					if len(bag) == 0 {
						continue // zero vector; nothing to gather or send
					}
					rowScratch = rowScratch[:0]
					hit := true
					for _, raw := range bag {
						row := int32(embedding.HashIndex(raw, cfg.Rows))
						rowScratch = append(rowScratch, row)
						if !c.Touch(cache.Key{Feature: int32(fid), Row: row}) {
							hit = false
						}
					}
					if !hit {
						// Lazy refill: admit the whole bag (resident rows are
						// refreshed, missing ones inserted), off the critical
						// path alongside the miss fetch the batch pays anyway.
						for _, row := range rowScratch {
							var vec []float32
							if cfg.Functional {
								vec = w[int(row)*cfg.Dim : (int(row)+1)*cfg.Dim]
							}
							c.Admit(cache.Key{Feature: int32(fid), Row: row}, vec)
						}
						continue
					}
					view.Hit[p][fi*B+smp] = true
					view.WireVecs[p][g]++
					view.WireIdx[p][g] += int64(len(bag))
					if cfg.Functional {
						off := ((smp-lo)*cfg.TotalTables + fid) * cfg.Dim
						out := bd.Final[g].Data()[off : off+cfg.Dim]
						poolFromCache(c, int32(fid), rowScratch, out)
					}
				}
			}
		}
	}
	return view
}

// classifyDedup scans the materialised batch and builds the dedup view,
// folding the batch's savings into the run's counters.
func (s *System) classifyDedup(bd *BatchData) *DedupView {
	cfg := s.Cfg
	B, G := cfg.BatchSize, cfg.GPUs
	vb := float64(cfg.VectorBytes())
	view := bd.Plan.Cache
	dv := &DedupView{
		MissIdx:   make([][]int64, G),
		Uniq:      make([][]int64, G),
		DenseVecs: make([][]int64, G),
		Wire:      make([][]bool, G),
		Gather:    make([][]bool, G),
		NewAt:     make([][][]int32, G),
		Keys:      make([][][]uint64, G),
		Expand:    make([][][]int32, G),
	}
	ctr := metrics.DedupCounters{Batches: 1}
	seen := s.seenScratch()
	for src := 0; src < G; src++ {
		fg := len(s.Plan[src])
		dv.MissIdx[src] = make([]int64, G)
		dv.Uniq[src] = make([]int64, G)
		dv.DenseVecs[src] = make([]int64, G)
		dv.Wire[src] = make([]bool, G)
		dv.Gather[src] = make([]bool, G)
		dv.NewAt[src] = make([][]int32, G)
		dv.Keys[src] = make([][]uint64, G)
		dv.Expand[src] = make([][]int32, G)
		fbs := s.ownerScratch(bd, src)
		for dst := 0; dst < G; dst++ {
			dlo, dhi := s.Minibatch(dst)
			clear(seen)
			newAt := make([]int32, dhi-dlo)
			var missIdx, denseVecs int64
			var keys []uint64
			var expand []int32
			for smp := dlo; smp < dhi; smp++ {
				var newHere int32
				for fi := 0; fi < fg; fi++ {
					if src != dst && view != nil && view.Hit[src][fi*B+smp] {
						continue
					}
					denseVecs++
					for _, raw := range fbs[fi].Bag(smp) {
						key := uint64(fi)<<32 | uint64(uint32(embedding.HashIndex(raw, cfg.Rows)))
						pos, ok := seen[key]
						if !ok {
							pos = int32(len(seen))
							seen[key] = pos
							newHere++
							if cfg.Functional {
								keys = append(keys, key)
							}
						}
						missIdx++
						if cfg.Functional {
							expand = append(expand, pos)
						}
					}
				}
				newAt[smp-dlo] = newHere
			}
			uniq := int64(len(seen))
			wire := src != dst && uniq < denseVecs
			dv.MissIdx[src][dst] = missIdx
			dv.Uniq[src][dst] = uniq
			dv.DenseVecs[src][dst] = denseVecs
			dv.Wire[src][dst] = wire
			dv.Gather[src][dst] = !wire && s.Devs[src].GatherDedupWins(uniq, missIdx)
			dv.NewAt[src][dst] = newAt
			if cfg.Functional && wire {
				dv.Keys[src][dst] = keys
				dv.Expand[src][dst] = expand
			}
			if src != dst {
				ctr.EligibleIdx += missIdx
				ctr.EligibleVecs += denseVecs
				ctr.UniqueRows += uniq
				if wire {
					ctr.WireRows += uniq
					ctr.WireSavedBytes += float64(denseVecs-uniq) * vb
				} else {
					ctr.WireVecs += denseVecs
				}
			}
		}
	}
	if s.multiNode() {
		s.classifyNodeDedup(bd, dv)
	}
	s.dedupStats = s.dedupStats.Add(ctr)
	return dv
}

// classifyNodeDedup runs the second classification level on multi-node
// machines: per (owner GPU, remote node), the union of the owner's pair key
// sets over the node's consumers, in the same canonical scan order (consumer
// GPUs ascending — which is samples ascending, since a node's minibatches
// are contiguous). A node-level wire win means the owner ships each unique
// row across the NIC once for the whole node; the pair-level decision is
// superseded for those pairs (one-sided transports only — a pair-addressed
// collective's segments cannot share rows across consumers).
func (s *System) classifyNodeDedup(bd *BatchData, dv *DedupView) {
	cfg := s.Cfg
	B, G, N := cfg.BatchSize, cfg.GPUs, s.cluster.Nodes
	per := s.cluster.GPUsPerNode
	view := bd.Plan.Cache
	dv.NodeUniq = make([][]int64, G)
	dv.NodeDense = make([][]int64, G)
	dv.NodeWire = make([][]bool, G)
	dv.NodeNewAt = make([][][]int32, G)
	dv.NodeKeys = make([][][]uint64, G)
	dv.NodeExpand = make([][][]int32, G)
	seen := s.seenScratch()
	expTmp := scratchSlice(&s.planScr.expTmp, per)
	for src := 0; src < G; src++ {
		fg := len(s.Plan[src])
		dv.NodeUniq[src] = make([]int64, N)
		dv.NodeDense[src] = make([]int64, N)
		dv.NodeWire[src] = make([]bool, N)
		dv.NodeNewAt[src] = make([][]int32, N)
		dv.NodeKeys[src] = make([][]uint64, N)
		dv.NodeExpand[src] = make([][]int32, G)
		fbs := s.ownerScratch(bd, src)
		srcNode := s.NodeOf(src)
		for node := 0; node < N; node++ {
			if node == srcNode {
				continue
			}
			nlo, nhi := s.nodeSampleRange(node)
			clear(seen)
			newAt := make([]int32, nhi-nlo)
			var keys []uint64
			var dense int64
			for li := 0; li < per; li++ {
				dst := node*per + li
				dlo, dhi := s.Minibatch(dst)
				var expand []int32
				for smp := dlo; smp < dhi; smp++ {
					var newHere int32
					for fi := 0; fi < fg; fi++ {
						if view != nil && view.Hit[src][fi*B+smp] {
							continue
						}
						dense++
						for _, raw := range fbs[fi].Bag(smp) {
							key := uint64(fi)<<32 | uint64(uint32(embedding.HashIndex(raw, cfg.Rows)))
							pos, ok := seen[key]
							if !ok {
								pos = int32(len(seen))
								seen[key] = pos
								newHere++
								if cfg.Functional {
									keys = append(keys, key)
								}
							}
							if cfg.Functional {
								expand = append(expand, pos)
							}
						}
					}
					newAt[smp-nlo] = newHere
				}
				expTmp[li] = expand
			}
			uniq := int64(len(seen))
			wire := uniq < dense
			dv.NodeUniq[src][node] = uniq
			dv.NodeDense[src][node] = dense
			dv.NodeWire[src][node] = wire
			dv.NodeNewAt[src][node] = newAt
			if cfg.Functional && wire {
				dv.NodeKeys[src][node] = keys
				for li := 0; li < per; li++ {
					dv.NodeExpand[src][node*per+li] = expTmp[li]
				}
			}
		}
	}
}

// seenScratch returns the run's reusable unique-key map (cleared per use by
// the classifier loops).
func (s *System) seenScratch() map[uint64]int32 {
	if s.planScr.seen == nil {
		s.planScr.seen = make(map[uint64]int32)
	}
	return s.planScr.seen
}

// ownerScratch fills the run's per-owner classifier scratch: src's feature
// bags, in plan order.
func (s *System) ownerScratch(bd *BatchData, src int) []*sparse.FeatureBag {
	fbs := scratchSlice(&s.planScr.fbs, len(s.Plan[src]))
	for fi, fid := range s.Plan[src] {
		fbs[fi] = bd.Sparse.FeatureByID(fid)
	}
	return fbs
}

// attachDedup allocates the batch's cross-GPU expansion plumbing: the
// consumer-side staging buffers the owners stream unique rows into
// (functional wire pairs), and the post-quiet barrier one-sided backends
// rendezvous on before expanding — quiet only drains a PE's OWN pipes, so a
// consumer must not expand until every owner has finished streaming. The
// baseline never awaits the barrier (its collective is already a global
// synchronisation point); an unawaited barrier is inert.
func (s *System) attachDedup(bd *BatchData, dv *DedupView) {
	if s.Cfg.GPUs <= 1 {
		return
	}
	bd.dedupBarrier = sim.NewBarrier(s.Env, s.Cfg.GPUs)
	if !s.Cfg.Functional {
		return
	}
	bd.DedupStage = make([][][]float32, s.Cfg.GPUs)
	for src := range bd.DedupStage {
		bd.DedupStage[src] = make([][]float32, s.Cfg.GPUs)
		for dst := range bd.DedupStage[src] {
			if dv.Wire[src][dst] && !s.nodeWirePair(dv, src, dst) {
				bd.DedupStage[src][dst] = make([]float32, int(dv.Uniq[src][dst])*s.Cfg.Dim)
			}
		}
	}
	if dv.NodeWire != nil {
		// Node-level staging: one buffer per (owner, destination node), held
		// by the node's stage-lane GPU.
		bd.NodeStage = make([][][]float32, s.Cfg.GPUs)
		for src := range bd.NodeStage {
			bd.NodeStage[src] = make([][]float32, s.cluster.Nodes)
			for node := range bd.NodeStage[src] {
				if dv.NodeWire[src][node] {
					bd.NodeStage[src][node] = make([]float32, int(dv.NodeUniq[src][node])*s.Cfg.Dim)
				}
			}
		}
	}
}
