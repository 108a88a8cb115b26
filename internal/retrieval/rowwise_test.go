package retrieval

import (
	"testing"

	"pgasemb/internal/tensor"
)

func rowWiseConfig(gpus int) Config {
	cfg := TestScaleConfig(gpus)
	cfg.Sharding = RowWise
	return cfg
}

func TestRowWiseConfigValidation(t *testing.T) {
	cfg := rowWiseConfig(2)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Rows = 1
	bad.GPUs = 2
	if bad.Validate() == nil {
		t.Fatal("row-wise with fewer rows than GPUs accepted")
	}
	if RowWise.String() != "row-wise" || TableWise.String() != "table-wise" {
		t.Fatal("sharding names wrong")
	}
}

// Row-wise outputs match the reference within float tolerance: the partial
// sums accumulate in shard order rather than bag order, so the result is
// mathematically identical but not bit-identical.
func verifyRowWise(t *testing.T, gpus int, b Backend) {
	t.Helper()
	s, err := NewSystem(rowWiseConfig(gpus), DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	want := mustReference(t, s, res.LastBatch)
	for g := 0; g < gpus; g++ {
		if !tensor.AllClose(res.Final[g], want[g], 1e-4) {
			t.Fatalf("%s: GPU %d differs from reference (max diff %g)",
				b.Name(), g, tensor.MaxAbsDiff(res.Final[g], want[g]))
		}
	}
}

func TestRowWiseBaselineMatchesReference(t *testing.T) {
	for gpus := 1; gpus <= 4; gpus++ {
		verifyRowWise(t, gpus, &RowWiseBaseline{})
	}
}

func TestRowWisePGASMatchesReference(t *testing.T) {
	for gpus := 1; gpus <= 4; gpus++ {
		verifyRowWise(t, gpus, &RowWisePGAS{})
	}
}

func TestRowWiseBackendsRequireRowWiseConfig(t *testing.T) {
	s, err := NewSystem(TestScaleConfig(2), DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(&RowWiseBaseline{}); err == nil {
		t.Fatal("row-wise backend on table-wise config should fail")
	}
}

func TestRowWisePGASFasterThanRowWiseBaseline(t *testing.T) {
	cfg := WeakScalingConfig(4)
	cfg.Sharding = RowWise
	cfg.Batches = 3
	run := func(b Backend) float64 {
		s, err := NewSystem(cfg, DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTime
	}
	base := run(&RowWiseBaseline{})
	pgas := run(&RowWisePGAS{})
	if pgas >= base {
		t.Fatalf("row-wise PGAS (%v) not faster than reduce-scatter (%v)", pgas, base)
	}
}

func TestRowWiseMovesMoreVolumeThanTableWise(t *testing.T) {
	// The scheme's structural cost: every GPU exchanges partials for ALL
	// features, so wire volume multiplies by roughly the GPU count.
	cfg := TestScaleConfig(4)
	cfg.Batches = 1
	sTW, _ := NewSystem(cfg, DefaultHardware())
	rTW, err := sTW.Run(&PGASFused{})
	if err != nil {
		t.Fatal(err)
	}
	cfgRW := cfg
	cfgRW.Sharding = RowWise
	sRW, err := NewSystem(cfgRW, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	rRW, err := sRW.Run(&RowWisePGAS{})
	if err != nil {
		t.Fatal(err)
	}
	if rRW.CommTrace.Total() <= rTW.CommTrace.Total() {
		t.Fatalf("row-wise volume (%v) should exceed table-wise (%v)",
			rRW.CommTrace.Total(), rTW.CommTrace.Total())
	}
}

func TestRowWiseMemoryBalanced(t *testing.T) {
	// Row-wise sharding exists to balance memory: every GPU should hold
	// roughly TotalBytes/P regardless of table count divisibility.
	cfg := rowWiseConfig(3)
	cfg.Functional = false
	s, err := NewSystem(cfg, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	var bytes []int64
	for g := 0; g < 3; g++ {
		bytes = append(bytes, s.Devs[g].Allocated())
	}
	for _, b := range bytes[1:] {
		diff := b - bytes[0]
		if diff < 0 {
			diff = -diff
		}
		// Within one table row plus one output sample of each other.
		if diff > 2*int64(cfg.TotalTables*cfg.Dim*4) {
			t.Fatalf("row-wise memory unbalanced: %v", bytes)
		}
	}
}

func TestRowWiseDeterministic(t *testing.T) {
	run := func() []float32 {
		s, err := NewSystem(rowWiseConfig(3), DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(&RowWisePGAS{})
		if err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), res.Final[0].Data()...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row-wise PGAS nondeterministic at element %d", i)
		}
	}
}
