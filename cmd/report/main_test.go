package main

import (
	"testing"

	"pgasemb/internal/cli/clitest"
)

func TestBadFlags(t *testing.T) { clitest.Check(t, "report", run) }
