package retrieval

// Per-GPU scratch arenas. Every backend's RunBatch used to allocate its
// working buffers (pooling scratch, all-to-all segment tables, partial
// buffers) per call; over a serving run that is thousands of short-lived
// slices per second of simulated traffic. Each run now owns one gpuScratch
// per GPU, and RunBatch borrows from it instead of calling make.
//
// Safety: the simulator's processes never run concurrently (strict handoff),
// and scratch[g] is only touched by GPU g's process, so no synchronisation is
// needed. Buffers handed to a collective or the PGAS runtime are fully
// consumed before the call returns (functional copies are synchronous), and
// the inter-batch barrier keeps one batch's borrows from overlapping the
// next's.

// gpuScratch is one GPU's reusable per-batch working memory.
type gpuScratch struct {
	vec         []float32   // Dim-sized pooling scratch
	packBuf     []float32   // all-to-all send buffer (pooled vectors / unique rows)
	recvBuf     []float32   // all-to-all receive buffer
	sendSegs    [][]float32 // functional all-to-all segment tables
	recvSegs    [][]float32
	sendBytes   []float64 // timing all-to-all segment sizes
	recvBytes   []float64
	stores      []int     // fused kernel's per-consumer store counts (one chunk)
	cursors     []int     // pgas dedup wire-streaming cursors
	nodeCursors []int     // pgas node-dedup wire-streaming cursors
	partials    []float32 // row-wise partial-sum buffer
}

// scratchSlice returns (*buf)[:n], reallocating only when capacity is short,
// and stores the result back through buf. Contents are NOT cleared — callers
// that read before writing must zero it themselves.
func scratchSlice[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	s := (*buf)[:n]
	*buf = s
	return s
}
