package main

import (
	"testing"

	"pgasemb/internal/cli/clitest"
)

func TestBadFlags(t *testing.T) { clitest.Check(t, "multinode", run) }

// TestGolden pins the weak and strong multi-node tables, as text and CSV.
func TestGolden(t *testing.T) {
	args := []string{"-nodes", "2", "-gpus-per-node", "2", "-batches", "1", "-batchsize", "4096"}
	t.Run("text", func(t *testing.T) {
		t.Parallel()
		clitest.Golden(t, "multinode", run, args...)
	})
	t.Run("csv", func(t *testing.T) {
		t.Parallel()
		clitest.Golden(t, "multinode_csv", run, append(args, "-csv")...)
	})
}
