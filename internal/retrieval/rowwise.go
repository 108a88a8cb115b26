package retrieval

import (
	"fmt"

	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/trace"
)

// Row-wise sharding (RecShard-style) splits every table's rows across all
// GPUs. Each GPU computes a PARTIAL pooled sum for every (sample, feature)
// pair — the contribution of its row range — and the partials are reduced
// across GPUs into the sample owners' minibatches. Compared to table-wise
// sharding this balances skewed tables but multiplies the exchanged volume
// by roughly the GPU count; the paper's future-work section singles out its
// input-distribution cost as the next thing to fuse into the kernel.
//
// RowWiseBaseline uses a ring reduce-scatter whose output lands directly in
// the data-parallel layout (row-wise needs no unpack — features are already
// globally ordered in the partial buffer), so its overheads are compute and
// communication volume.
//
// RowWisePGAS pushes each partial as a one-sided remote ATOMIC ADD to the
// sample's owner the moment it is pooled — the same fusion as the forward
// table-wise scheme, but with accumulate semantics on the destination.

// RowWiseBaseline is the collective (reduce-scatter) row-wise EMB forward.
type RowWiseBaseline struct{}

// Name implements Backend.
func (b *RowWiseBaseline) Name() string { return "rowwise-baseline" }

// ValidateConfig implements ConfigValidator.
func (b *RowWiseBaseline) ValidateConfig(cfg Config) error { return validateRowWise(cfg) }

func validateRowWise(cfg Config) error {
	if cfg.Sharding != RowWise {
		return fmt.Errorf("requires Config.Sharding == RowWise; use the table-wise backends otherwise")
	}
	return nil
}

// rowWiseKernelCost prices the partial-pooling kernel: the GPU scans the
// full batch's indices (to find those hashing into its row range), gathers
// its expected 1/P share of the rows, and writes a full partial buffer.
func rowWiseKernelCost(s *System, g int, bd *BatchData) sim.Duration {
	cfg := s.Cfg
	dev := s.Devs[g]
	totalIdx := s.globalIndexTotal(bd.Summary, 0, cfg.BatchSize)
	readBytes := float64(totalIdx) / float64(cfg.GPUs) * float64(cfg.VectorBytes())
	streamBytes := float64(totalIdx)*8 + // scan ALL indices
		float64(cfg.BatchSize)*float64(cfg.TotalTables)*float64(cfg.VectorBytes())
	return dev.GatherKernelCost(readBytes, streamBytes, cfg.BatchSize*cfg.TotalTables)
}

// RunBatch implements Backend.
func (b *RowWiseBaseline) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	cfg := s.Cfg
	dev := s.Devs[g]
	stream := dev.Stream("emb-rowwise")

	kernel := rowWiseKernelCost(s, g, bd)
	var partials []float32
	if cfg.Functional {
		partials = b.functionalPartials(s, g, bd)
	}
	_, kernelEnd := stream.Launch(p, kernel)
	p.WaitUntil(kernelEnd)
	bk.Accumulate(CompComputation, kernel+dev.Params().KernelLaunch)

	syncStart := p.Now()
	stream.Synchronize(p)
	bk.Accumulate(CompSyncUnpack, p.Now()-syncStart)

	if cfg.GPUs == 1 {
		if cfg.Functional {
			copy(bd.Final[g].Data(), partials)
		}
		return
	}

	// Reduce-scatter: partials sum across GPUs; each GPU keeps its
	// minibatch's rows — which are already in the final layout, so there
	// is no unpack step in the row-wise scheme.
	commStart := p.Now()
	if cfg.Functional {
		shardSizes := make([]int, cfg.GPUs)
		for peer := 0; peer < cfg.GPUs; peer++ {
			plo, phi := s.Minibatch(peer)
			shardSizes[peer] = (phi - plo) * cfg.TotalTables * cfg.Dim
		}
		s.Comm.ReduceScatterV(p, g, partials, bd.Final[g].Data(), shardSizes)
	} else {
		// Ring pacing follows the largest minibatch (matches ReduceScatterV).
		maxMini := (cfg.BatchSize + cfg.GPUs - 1) / cfg.GPUs
		shardBytes := float64(maxMini) * float64(cfg.TotalTables) * float64(cfg.VectorBytes())
		s.Comm.ReduceScatterSizes(p, g, shardBytes)
	}
	bk.Accumulate(CompComm, p.Now()-commStart)
}

// functionalPartials computes GPU g's partial buffer (B, F, d) over its row
// shard.
func (b *RowWiseBaseline) functionalPartials(s *System, g int, bd *BatchData) []float32 {
	cfg := s.Cfg
	coll := s.globalColl
	rlo, rhi := s.RowShard(g)
	sc := s.scratchFor(g, bd)
	out := scratchSlice(&sc.partials, cfg.BatchSize*cfg.TotalTables*cfg.Dim)
	clear(out) // arena reuse: samples with no row in this shard must stay zero
	scratch := scratchSlice(&sc.vec, cfg.Dim)
	for fi, fid := range coll.FeatureIDs {
		fb := bd.Sparse.FeatureByID(fid)
		tbl := coll.Tables[fi]
		for smp := 0; smp < cfg.BatchSize; smp++ {
			if tbl.LookupPooledPartial(fb.Bag(smp), scratch, rlo, rhi) == 0 {
				continue
			}
			off := (smp*cfg.TotalTables + fid) * cfg.Dim
			copy(out[off:off+cfg.Dim], scratch)
		}
	}
	return out
}

// RowWisePGAS is the one-sided atomic-accumulate row-wise EMB forward.
type RowWisePGAS struct{}

// Name implements Backend.
func (b *RowWisePGAS) Name() string { return "rowwise-pgas" }

// ValidateConfig implements ConfigValidator.
func (b *RowWisePGAS) ValidateConfig(cfg Config) error { return validateRowWise(cfg) }

// RunBatch implements Backend.
func (b *RowWisePGAS) RunBatch(s *System, p *sim.Proc, g int, bd *BatchData, bk *trace.Breakdown) {
	cfg := s.Cfg
	dev := s.Devs[g]
	stream := dev.Stream("emb-rowwise-fused")
	pe := s.PGAS.PE(g)
	pe.SetSlot(bd.Slot)
	peers := cfg.GPUs - 1
	vecBytes := cfg.VectorBytes()

	batchStart := p.Now()
	p.Wait(dev.Params().KernelLaunch)

	kernelTotal := rowWiseKernelCost(s, g, bd) // same gather work; stores leave as atomics
	var scratch []float32
	if cfg.Functional {
		scratch = scratchSlice(&s.scratchFor(g, bd).vec, cfg.Dim)
	}
	chunks := cfg.ChunksPerKernel
	for k := 0; k < chunks; k++ {
		s0 := cfg.BatchSize * k / chunks
		s1 := cfg.BatchSize * (k + 1) / chunks
		if s0 == s1 {
			continue
		}
		lo, hi := s.Minibatch(g)
		remoteVecs := ((s1 - s0) - overlap(s0, s1, lo, hi)) * cfg.TotalTables
		frac := float64(s1-s0) / float64(cfg.BatchSize)
		cost := kernelTotal*frac +
			dev.RemoteIssueCost(remoteVecs) +
			sim.Duration(peers)*dev.Params().RemotePeerChunkOverhead
		p.Wait(cost)

		if cfg.Functional {
			b.functionalChunk(s, g, bd, s0, s1, scratch)
			continue
		}
		for peer := 0; peer < cfg.GPUs; peer++ {
			if peer == g {
				continue
			}
			plo, phi := s.Minibatch(peer)
			vecs := overlap(s0, s1, plo, phi) * cfg.TotalTables
			pe.PutVectors(s.PGAS.PE(peer), vecs, vecBytes)
		}
	}
	pe.QuietSlot(p, bd.Slot)
	bk.Accumulate(CompFused, p.Now()-batchStart)

	syncStart := p.Now()
	stream.Synchronize(p)
	bk.Accumulate(CompSyncUnpack, p.Now()-syncStart)
}

// functionalChunk pools each partial over this GPU's row range and pushes
// it as a one-sided atomic add into the owner's final tensor. Empty
// partials (no bag row in this shard) send nothing — the sparsity the
// one-sided scheme exploits for free.
func (b *RowWisePGAS) functionalChunk(s *System, g int, bd *BatchData, s0, s1 int, scratch []float32) {
	cfg := s.Cfg
	pe := s.PGAS.PE(g)
	coll := s.globalColl
	rlo, rhi := s.RowShard(g)
	for smp := s0; smp < s1; smp++ {
		owner := sparse.OwnerOfSample(cfg.BatchSize, cfg.GPUs, smp)
		olo, _ := s.Minibatch(owner)
		dstData := bd.Final[owner].Data()
		for fi, fid := range coll.FeatureIDs {
			fb := bd.Sparse.FeatureByID(fid)
			if coll.Tables[fi].LookupPooledPartial(fb.Bag(smp), scratch, rlo, rhi) == 0 {
				continue
			}
			off := ((smp-olo)*cfg.TotalTables + fid) * cfg.Dim
			pe.AtomicAddFloat32s(s.PGAS.PE(owner), dstData[off:off+cfg.Dim], scratch)
		}
	}
}
