// Package embedding implements DLRM embedding tables and their retrieval
// operations: the hash → lookup → pool pipeline of the paper's Figure 3,
// grouped into collections (PyTorch's EmbeddingBagCollection), plus the
// sharding planners that place tables on GPUs for model parallelism.
package embedding

import (
	"fmt"
	"math"
	"sort"

	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
	"pgasemb/internal/tensor"
)

// HashIndex maps a raw categorical value into [0, rows) — the hash function
// H of the paper's §II-A that bounds table memory at the cost of
// collisions. A splitmix64 finaliser gives good avalanche so collisions are
// uniform.
func HashIndex(raw int64, rows int) int {
	if rows <= 0 {
		panic(fmt.Sprintf("embedding: hash into %d rows", rows))
	}
	z := uint64(raw) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(rows))
}

// Table is one embedding table: Rows learned vectors of dimension Dim.
type Table struct {
	Rows, Dim int
	Weights   *tensor.Tensor // (Rows, Dim)
}

// NewTable allocates a table initialised uniformly in
// [-1/sqrt(Dim), 1/sqrt(Dim)), the DLRM benchmark's initialisation.
func NewTable(rows, dim int, rng *sim.RNG) *Table {
	if rows <= 0 || dim <= 0 {
		panic(fmt.Sprintf("embedding: invalid table %dx%d", rows, dim))
	}
	scale := float32(1 / math.Sqrt(float64(dim)))
	return &Table{
		Rows:    rows,
		Dim:     dim,
		Weights: tensor.New(rows, dim).RandomUniform(rng, -scale, scale),
	}
}

// Bytes returns the table's device-memory footprint.
func (t *Table) Bytes() int64 { return int64(t.Rows) * int64(t.Dim) * 4 }

// LookupPooled hashes every raw index in bag, gathers the rows and
// sum-pools them into out (length Dim) — the paper's pooling operation. An
// empty bag yields zeros — the NULL case of the paper's Figure 3.
func (t *Table) LookupPooled(bag []int64, out []float32) {
	if len(out) != t.Dim {
		panic(fmt.Sprintf("embedding: output length %d != dim %d", len(out), t.Dim))
	}
	for i := range out {
		out[i] = 0
	}
	w := t.Weights.Data()
	for _, raw := range bag {
		row := HashIndex(raw, t.Rows)
		vec := w[row*t.Dim : (row+1)*t.Dim]
		for i, v := range vec {
			out[i] += v
		}
	}
}

// LookupPooledPartial is the row-wise-sharded lookup: it pools ONLY the bag
// entries whose hashed row falls in [rowLo, rowHi) — one GPU's row shard —
// into out. Summing the partials across all shards reproduces LookupPooled
// exactly. It reports how many rows contributed, so callers can skip empty
// partials on the wire.
func (t *Table) LookupPooledPartial(bag []int64, out []float32, rowLo, rowHi int) int {
	if len(out) != t.Dim {
		panic(fmt.Sprintf("embedding: output length %d != dim %d", len(out), t.Dim))
	}
	if rowLo < 0 || rowHi < rowLo || rowHi > t.Rows {
		panic(fmt.Sprintf("embedding: row shard [%d, %d) outside table (%d rows)", rowLo, rowHi, t.Rows))
	}
	for i := range out {
		out[i] = 0
	}
	w := t.Weights.Data()
	hits := 0
	for _, raw := range bag {
		row := HashIndex(raw, t.Rows)
		if row < rowLo || row >= rowHi {
			continue
		}
		hits++
		vec := w[row*t.Dim : (row+1)*t.Dim]
		for i, v := range vec {
			out[i] += v
		}
	}
	return hits
}

// RowShardRange returns the row interval [lo, hi) GPU g owns when rows are
// split across gpus (remainders to the lowest GPUs, like MinibatchRange).
func RowShardRange(rows, gpus, g int) (lo, hi int) {
	if gpus <= 0 || g < 0 || g >= gpus {
		panic(fmt.Sprintf("embedding: bad row shard request rows=%d gpus=%d g=%d", rows, gpus, g))
	}
	base := rows / gpus
	rem := rows % gpus
	lo = g*base + minInt(g, rem)
	size := base
	if g < rem {
		size++
	}
	return lo, lo + size
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// AccumulateGrad adds grad into the rows a bag's lookup touched — the
// backward pass of sum pooling, used by the backward-pass extension
// experiments.
func (t *Table) AccumulateGrad(bag []int64, grad []float32) {
	if len(grad) != t.Dim {
		panic(fmt.Sprintf("embedding: grad length %d != dim %d", len(grad), t.Dim))
	}
	w := t.Weights.Data()
	for _, raw := range bag {
		row := HashIndex(raw, t.Rows)
		vec := w[row*t.Dim : (row+1)*t.Dim]
		for i, g := range grad {
			vec[i] += g
		}
	}
}

// Collection is a set of same-dimension tables for a set of global feature
// IDs — one GPU's shard under table-wise model parallelism.
type Collection struct {
	FeatureIDs []int
	Tables     []*Table
	Dim        int
}

// NewCollection builds a collection with one fresh rows x dim table per
// feature ID.
func NewCollection(featureIDs []int, rows, dim int, rng *sim.RNG) *Collection {
	c := &Collection{
		FeatureIDs: append([]int(nil), featureIDs...),
		Tables:     make([]*Table, len(featureIDs)),
		Dim:        dim,
	}
	for i := range featureIDs {
		c.Tables[i] = NewTable(rows, dim, rng)
	}
	return c
}

// Bytes returns the collection's total table footprint.
func (c *Collection) Bytes() int64 {
	var sum int64
	for _, t := range c.Tables {
		sum += t.Bytes()
	}
	return sum
}

// tableFor returns the table index for a global feature ID, or -1.
func (c *Collection) tableFor(featureID int) int {
	for i, id := range c.FeatureIDs {
		if id == featureID {
			return i
		}
	}
	return -1
}

// Forward runs the EMB layer forward pass over a (partitioned) batch whose
// features must all belong to this collection. The result has shape
// (batchSize, numLocalFeatures, Dim) with features ordered as in the batch.
func (c *Collection) Forward(batch *sparse.Batch) *tensor.Tensor {
	out := tensor.New(batch.Size, len(batch.Features), c.Dim)
	data := out.Data()
	for fi := range batch.Features {
		fb := &batch.Features[fi]
		ti := c.tableFor(fb.FeatureID)
		if ti < 0 {
			panic(fmt.Sprintf("embedding: feature %d not in collection", fb.FeatureID))
		}
		tbl := c.Tables[ti]
		for s := 0; s < batch.Size; s++ {
			off := (s*len(batch.Features) + fi) * c.Dim
			tbl.LookupPooled(fb.Bag(s), data[off:off+c.Dim])
		}
	}
	return out
}

// TableWisePlan assigns totalTables tables to gpus in contiguous blocks —
// the paper's "simple table sharding scheme (partitioning by tables)".
// Remainder tables go to the lowest GPUs, so shard sizes differ by at most
// one.
func TableWisePlan(totalTables, gpus int) [][]int {
	if totalTables < 0 || gpus <= 0 {
		panic(fmt.Sprintf("embedding: bad plan request (%d tables, %d gpus)", totalTables, gpus))
	}
	plan := make([][]int, gpus)
	base := totalTables / gpus
	rem := totalTables % gpus
	next := 0
	for g := 0; g < gpus; g++ {
		n := base
		if g < rem {
			n++
		}
		ids := make([]int, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, next)
			next++
		}
		plan[g] = ids
	}
	return plan
}

// RoundRobinPlan assigns table t to GPU t % gpus — an alternative placement
// with identical load for uniform workloads, used in sharding ablations.
func RoundRobinPlan(totalTables, gpus int) [][]int {
	if totalTables < 0 || gpus <= 0 {
		panic(fmt.Sprintf("embedding: bad plan request (%d tables, %d gpus)", totalTables, gpus))
	}
	plan := make([][]int, gpus)
	for g := range plan {
		plan[g] = []int{}
	}
	for t := 0; t < totalTables; t++ {
		g := t % gpus
		plan[g] = append(plan[g], t)
	}
	return plan
}

// GreedyPlan assigns tables to GPUs by longest-processing-time-first bin
// packing on the given per-table loads (e.g. expected pooling factors):
// tables are placed heaviest-first onto the currently least-loaded GPU.
// This is the load-balancing step a RecShard-style planner performs when
// features are heterogeneous; with uniform loads it degenerates to a
// balanced assignment like TableWisePlan.
func GreedyPlan(loads []float64, gpus int) [][]int {
	if gpus <= 0 {
		panic(fmt.Sprintf("embedding: GreedyPlan with %d gpus", gpus))
	}
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })
	plan := make([][]int, gpus)
	for g := range plan {
		plan[g] = []int{}
	}
	totals := make([]float64, gpus)
	for _, t := range order {
		if loads[t] < 0 {
			panic(fmt.Sprintf("embedding: negative load for table %d", t))
		}
		best := 0
		for g := 1; g < gpus; g++ {
			if totals[g] < totals[best] {
				best = g
			}
		}
		plan[best] = append(plan[best], t)
		totals[best] += loads[t]
	}
	for g := range plan {
		sort.Ints(plan[g]) // deterministic, readable shard contents
	}
	return plan
}

// PlanLoads returns the summed load per GPU under a plan.
func PlanLoads(plan [][]int, loads []float64) []float64 {
	out := make([]float64, len(plan))
	for g, ids := range plan {
		for _, id := range ids {
			out[g] += loads[id]
		}
	}
	return out
}

// PlanShardSizes returns the per-GPU table counts of a plan.
func PlanShardSizes(plan [][]int) []int {
	sizes := make([]int, len(plan))
	for g, ids := range plan {
		sizes[g] = len(ids)
	}
	return sizes
}
