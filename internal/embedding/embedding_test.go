package embedding

import (
	"math"
	"testing"
	"testing/quick"

	"pgasemb/internal/sim"
	"pgasemb/internal/sparse"
)

func TestHashIndexInRange(t *testing.T) {
	for _, rows := range []int{1, 2, 50, 1_000_000} {
		for raw := int64(-5); raw < 100; raw++ {
			h := HashIndex(raw, rows)
			if h < 0 || h >= rows {
				t.Fatalf("HashIndex(%d, %d) = %d", raw, rows, h)
			}
		}
	}
}

func TestHashIndexDeterministic(t *testing.T) {
	if HashIndex(12345, 1000) != HashIndex(12345, 1000) {
		t.Fatal("hash not deterministic")
	}
}

func TestHashIndexSpreads(t *testing.T) {
	const rows = 64
	counts := make([]int, rows)
	for raw := int64(0); raw < 64000; raw++ {
		counts[HashIndex(raw, rows)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-1000) > 5*math.Sqrt(1000) {
			t.Errorf("bucket %d count %d deviates >5 sigma", i, c)
		}
	}
}

func TestHashIndexInvalidRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rows=0 did not panic")
		}
	}()
	HashIndex(1, 0)
}

func TestNewTableInit(t *testing.T) {
	rng := sim.NewRNG(1)
	tbl := NewTable(100, 16, rng)
	if tbl.Bytes() != 100*16*4 {
		t.Fatalf("Bytes = %d", tbl.Bytes())
	}
	scale := 1 / math.Sqrt(16)
	w := tbl.Weights.Data()
	for _, v := range w {
		if float64(v) < -scale || float64(v) >= scale {
			t.Fatalf("weight %v outside ±1/sqrt(d)", v)
		}
	}
}

func TestNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid table did not panic")
		}
	}()
	NewTable(0, 4, sim.NewRNG(1))
}

// hashedRow returns the weight row a raw index lands on.
func hashedRow(tbl *Table, raw int64) []float32 {
	r := HashIndex(raw, tbl.Rows)
	return tbl.Weights.Data()[r*tbl.Dim : (r+1)*tbl.Dim]
}

func TestLookupPooledSum(t *testing.T) {
	tbl := NewTable(50, 4, sim.NewRNG(2))
	bag := []int64{7, 19, 7} // duplicate raw index counts twice
	out := make([]float32, 4)
	tbl.LookupPooled(bag, out)
	want := make([]float32, 4)
	for _, raw := range bag {
		for i, v := range hashedRow(tbl, raw) {
			want[i] += v
		}
	}
	for i := range want {
		if math.Abs(float64(out[i]-want[i])) > 1e-6 {
			t.Fatalf("sum pooling out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestLookupEmptyBagZeros(t *testing.T) {
	tbl := NewTable(50, 4, sim.NewRNG(5))
	out := []float32{9, 9, 9, 9}
	tbl.LookupPooled(nil, out)
	for _, v := range out {
		if v != 0 {
			t.Fatal("NULL bag must produce zeros")
		}
	}
}

func TestLookupValidation(t *testing.T) {
	tbl := NewTable(50, 4, sim.NewRNG(6))
	defer func() {
		if recover() == nil {
			t.Error("wrong out length did not panic")
		}
	}()
	tbl.LookupPooled([]int64{1}, make([]float32, 3))
}

func TestAccumulateGrad(t *testing.T) {
	tbl := NewTable(50, 2, sim.NewRNG(7))
	raw := int64(33)
	before := append([]float32(nil), hashedRow(tbl, raw)...)
	tbl.AccumulateGrad([]int64{raw, raw}, []float32{1, 10})
	after := hashedRow(tbl, raw)
	if math.Abs(float64(after[0]-(before[0]+2))) > 1e-6 || math.Abs(float64(after[1]-(before[1]+20))) > 1e-6 {
		t.Fatalf("grad accumulate wrong: before=%v after=%v", before, after)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong grad length did not panic")
			}
		}()
		tbl.AccumulateGrad([]int64{1}, make([]float32, 3))
	}()
}

func TestCollectionForward(t *testing.T) {
	rng := sim.NewRNG(8)
	c := NewCollection([]int{5, 9}, 20, 3, rng)
	if c.Bytes() != 2*20*3*4 {
		t.Fatalf("collection bytes = %d", c.Bytes())
	}
	batch := &sparse.Batch{
		Size: 2,
		Features: []sparse.FeatureBag{
			{FeatureID: 9, Offsets: []int32{0, 1, 3}, Indices: []int64{4, 5, 6}},
			{FeatureID: 5, Offsets: []int32{0, 0, 1}, Indices: []int64{7}},
		},
	}
	out := c.Forward(batch)
	if out.Dim(0) != 2 || out.Dim(1) != 2 || out.Dim(2) != 3 {
		t.Fatalf("forward shape %v", out.Shape())
	}
	// Sample 0, feature index 0 in batch order (= global feature 9), bag {4}.
	want := make([]float32, 3)
	c.Tables[1].LookupPooled([]int64{4}, want) // table for ID 9
	for i := 0; i < 3; i++ {
		if out.At(0, 0, i) != want[i] {
			t.Fatalf("forward (0,0,:) wrong at %d", i)
		}
	}
	// Sample 0, global feature 5 is NULL.
	for i := 0; i < 3; i++ {
		if out.At(0, 1, i) != 0 {
			t.Fatal("NULL bag not zero in forward output")
		}
	}
}

func TestCollectionForwardUnknownFeaturePanics(t *testing.T) {
	c := NewCollection([]int{0}, 10, 2, sim.NewRNG(9))
	batch := &sparse.Batch{
		Size:     1,
		Features: []sparse.FeatureBag{{FeatureID: 3, Offsets: []int32{0, 0}}},
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown feature did not panic")
		}
	}()
	c.Forward(batch)
}

func TestTableWisePlan(t *testing.T) {
	plan := TableWisePlan(96, 4)
	sizes := PlanShardSizes(plan)
	for _, s := range sizes {
		if s != 24 {
			t.Fatalf("sizes = %v", sizes)
		}
	}
	if plan[0][0] != 0 || plan[3][23] != 95 {
		t.Fatalf("plan blocks wrong: %v ... %v", plan[0], plan[3])
	}
	// Remainder case: 10 tables on 3 GPUs -> 4, 3, 3.
	plan = TableWisePlan(10, 3)
	sizes = PlanShardSizes(plan)
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("remainder sizes = %v", sizes)
	}
}

func TestRoundRobinPlan(t *testing.T) {
	plan := RoundRobinPlan(5, 2)
	if len(plan[0]) != 3 || len(plan[1]) != 2 {
		t.Fatalf("round robin sizes: %v", PlanShardSizes(plan))
	}
	if plan[0][1] != 2 || plan[1][0] != 1 {
		t.Fatalf("round robin contents: %v", plan)
	}
}

func TestPlansCoverAllTablesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		tables := rng.IntRange(0, 40)
		gpus := rng.IntRange(1, 6)
		for _, plan := range [][][]int{TableWisePlan(tables, gpus), RoundRobinPlan(tables, gpus)} {
			seen := make(map[int]bool)
			for _, ids := range plan {
				for _, id := range ids {
					if id < 0 || id >= tables || seen[id] {
						return false
					}
					seen[id] = true
				}
			}
			if len(seen) != tables {
				return false
			}
			// Balance: shard sizes differ by at most 1.
			sizes := PlanShardSizes(plan)
			minS, maxS := sizes[0], sizes[0]
			for _, s := range sizes {
				if s < minS {
					minS = s
				}
				if s > maxS {
					maxS = s
				}
			}
			if maxS-minS > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("TableWisePlan gpus=0 did not panic")
			}
		}()
		TableWisePlan(4, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RoundRobinPlan negative tables did not panic")
			}
		}()
		RoundRobinPlan(-1, 2)
	}()
}

func TestLookupPooledPartialSumsToFull(t *testing.T) {
	tbl := NewTable(64, 4, sim.NewRNG(21))
	bag := []int64{3, 17, 99, 256, 1024, 17}
	full := make([]float32, 4)
	tbl.LookupPooled(bag, full)
	sum := make([]float32, 4)
	part := make([]float32, 4)
	totalHits := 0
	for g := 0; g < 3; g++ {
		lo, hi := RowShardRange(64, 3, g)
		totalHits += tbl.LookupPooledPartial(bag, part, lo, hi)
		for i := range sum {
			sum[i] += part[i]
		}
	}
	for i := range full {
		if math.Abs(float64(sum[i]-full[i])) > 1e-5 {
			t.Fatalf("partials do not sum to full at %d: %v vs %v", i, sum[i], full[i])
		}
	}
	if totalHits != len(bag) {
		t.Fatalf("hits across shards = %d, want %d", totalHits, len(bag))
	}
}

func TestLookupPooledPartialEmptyShard(t *testing.T) {
	tbl := NewTable(100, 2, sim.NewRNG(22))
	out := []float32{9, 9}
	hits := tbl.LookupPooledPartial(nil, out, 0, 50)
	if hits != 0 || out[0] != 0 || out[1] != 0 {
		t.Fatal("empty bag partial must be zero with no hits")
	}
}

func TestLookupPooledPartialValidation(t *testing.T) {
	tbl := NewTable(100, 2, sim.NewRNG(23))
	cases := []func(){
		func() { tbl.LookupPooledPartial(nil, make([]float32, 3), 0, 50) },
		func() { tbl.LookupPooledPartial(nil, make([]float32, 2), -1, 50) },
		func() { tbl.LookupPooledPartial(nil, make([]float32, 2), 60, 50) },
		func() { tbl.LookupPooledPartial(nil, make([]float32, 2), 0, 101) },
	}
	for i, c := range cases {
		c := c
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			c()
		}()
	}
}

func TestRowShardRangeCoversRows(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		rows := rng.IntRange(1, 200)
		gpus := rng.IntRange(1, 7)
		end := 0
		for g := 0; g < gpus; g++ {
			lo, hi := RowShardRange(rows, gpus, g)
			if lo != end || hi < lo {
				return false
			}
			end = hi
		}
		return end == rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRowShardRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad shard request did not panic")
		}
	}()
	RowShardRange(10, 2, 2)
}

func TestGreedyPlanBalancesSkewedLoads(t *testing.T) {
	// Four heavy tables and eight light ones on two GPUs: blocks put all
	// heavy tables on GPU 0; greedy splits them evenly.
	loads := []float64{100, 100, 100, 100, 1, 1, 1, 1, 1, 1, 1, 1}
	greedy := GreedyPlan(loads, 2)
	gl := PlanLoads(greedy, loads)
	if gl[0] != gl[1] {
		t.Fatalf("greedy loads unbalanced: %v", gl)
	}
	block := TableWisePlan(len(loads), 2)
	bl := PlanLoads(block, loads)
	if bl[0] <= gl[0] {
		t.Fatalf("block plan should be worse than greedy under skew: block %v greedy %v", bl, gl)
	}
}

func TestGreedyPlanCoversAllTables(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := rng.IntRange(0, 30)
		gpus := rng.IntRange(1, 6)
		loads := make([]float64, n)
		for i := range loads {
			loads[i] = rng.Float64() * 100
		}
		plan := GreedyPlan(loads, gpus)
		seen := make(map[int]bool)
		for _, ids := range plan {
			for _, id := range ids {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPlanOptimalityBound(t *testing.T) {
	// LPT guarantee: makespan <= (4/3 - 1/3m) * OPT >= avg. Check the loose
	// form: max load <= 4/3 * (total/gpus) + max single load.
	rng := sim.NewRNG(77)
	loads := make([]float64, 40)
	var total, maxLoad float64
	for i := range loads {
		loads[i] = 1 + rng.Float64()*50
		total += loads[i]
		if loads[i] > maxLoad {
			maxLoad = loads[i]
		}
	}
	const gpus = 4
	pl := PlanLoads(GreedyPlan(loads, gpus), loads)
	worst := pl[0]
	for _, v := range pl {
		if v > worst {
			worst = v
		}
	}
	if worst > total/gpus*4/3+maxLoad {
		t.Fatalf("greedy makespan %v far above bound (avg %v, max item %v)", worst, total/gpus, maxLoad)
	}
}

func TestGreedyPlanPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("gpus=0 did not panic")
			}
		}()
		GreedyPlan([]float64{1}, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative load did not panic")
			}
		}()
		GreedyPlan([]float64{-1}, 2)
	}()
}
