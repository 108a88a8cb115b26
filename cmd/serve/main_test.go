package main

import (
	"testing"

	"pgasemb/internal/cli/clitest"
)

func TestBadFlags(t *testing.T) { clitest.Check(t, "serve", run) }

// TestGolden pins a small two-backend serving sweep's table.
func TestGolden(t *testing.T) {
	clitest.Golden(t, "serving", run, "-gpus", "2", "-rate", "2000", "-cache", "0,0.02",
		"-duration", "250ms", "-backend", "baseline,pgas-fused", "-out", "")
}
