package main

import (
	"testing"

	"pgasemb/internal/cli/clitest"
)

func TestBadFlags(t *testing.T) { clitest.Check(t, "sweep", run) }

func TestSweepPointsAxes(t *testing.T) {
	for _, axis := range []string{"batch", "pooling", "dim", "tables", "chunks", "skew", "criteo", "pipeline"} {
		pts, err := sweepPoints(axis, 4)
		if err != nil {
			t.Fatalf("axis %q: %v", axis, err)
		}
		if len(pts) == 0 {
			t.Fatalf("axis %q produced no points", axis)
		}
		for _, pt := range pts {
			if err := pt.cfg.Validate(); err != nil {
				t.Fatalf("axis %q point %q invalid: %v", axis, pt.label, err)
			}
		}
	}
}

func TestSweepPointsUnknownAxis(t *testing.T) {
	if _, err := sweepPoints("nope", 4); err == nil {
		t.Fatal("unknown axis accepted")
	}
}

func TestSweepDimPointsFitMemory(t *testing.T) {
	// The dim sweep shrinks rows so even dim=256 stays within 32 GB.
	pts, err := sweepPoints("dim", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		perGPU := int64(pt.cfg.TotalTables/pt.cfg.GPUs) * int64(pt.cfg.Rows) * int64(pt.cfg.Dim) * 4
		if perGPU > 32<<30 {
			t.Fatalf("point %q needs %d bytes per GPU", pt.label, perGPU)
		}
	}
}

// TestGoldenPipeline pins the pipeline-depth axis's stdout.
func TestGoldenPipeline(t *testing.T) {
	clitest.Golden(t, "pipeline", run, "-axis", "pipeline", "-gpus", "2", "-batches", "2")
}

// TestGoldenChunks pins an EMB-only axis's stdout, as text and as CSV.
func TestGoldenChunks(t *testing.T) {
	clitest.Golden(t, "chunks", run, "-axis", "chunks", "-gpus", "2", "-batches", "1")
	clitest.Golden(t, "chunks_csv", run, "-axis", "chunks", "-gpus", "2", "-batches", "1", "-csv")
}
