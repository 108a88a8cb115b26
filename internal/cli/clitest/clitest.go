// Package clitest holds the bad-flag table every command under cmd/ runs in
// its tests: each case must exit 2 before the command prints or runs
// anything, with a message prefixed by the command name and no panic.
package clitest

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgasemb/internal/cli"
)

// BadFlags maps each command to argument lists it must reject: an unknown
// backend, a non-positive count, an empty comma list, an unparsable number
// and the like.
var BadFlags = map[string][][]string{
	"benchdiff": {
		{"-tolerance", "-1"}, {"-tolerance", "nope"}, {"-nope"}, {"stray"},
	},
	"chaos": {
		{"-backend", "nope"}, {"-backend", "both"}, {"-backend", ","},
		{"-gpus", "0"}, {"-nodes", "-1"}, {"-rate", "0"}, {"-rate", "nope"},
		{"-duration", "0s"}, {"-profiles", ""}, {"-profiles", "nope"},
		{"-replicas", ""}, {"-replicas", "1.5"}, {"-parallel", "-1"},
	},
	"dlrminfer": {
		{"-backend", "nope"}, {"-backend", ""}, {"-gpus", "0"}, {"-batches", "0"},
		{"-pipeline", "0"}, {"-kind", "nope"}, {"-precision", "fp8"},
	},
	"multinode": {
		{"-backend", "nope"}, {"-backend", "baseline,pgas-fused"}, {"-backend", ""},
		{"-nodes", "0"}, {"-gpus-per-node", "0"}, {"-batches", "-1"},
		{"-precision", "fp8"},
	},
	"placement": {
		{"-backend", "pgas"}, {"-backend", ""}, {"-gpus", "0"}, {"-batches", "0"},
		{"-every", "0"}, {"-hot", "-1"}, {"-zipf", ","}, {"-zipf", "nope"},
		{"-policies", "nope"},
	},
	"precision": {
		{"-backend", "nope"}, {"-backend", ""}, {"-backends", "baseline"},
		{"-nodes", "0"}, {"-gpus-per-node", "0"}, {"-batchsize", "-1"},
	},
	"report": {
		{"-backend", "nope"}, {"-backend", "baseline,hybrid"}, {"-batches", "0"},
		{"-seeds", "-1"}, {"-out", ""}, {"-parallel", "-2"},
	},
	"serve": {
		{"-backend", "nope"}, {"-backend", "both"}, {"-backend", ""},
		{"-gpus", "0"}, {"-rate", ""}, {"-rate", "nope"}, {"-cache", ","},
		{"-arrival", "nope"}, {"-duration", "0s"}, {"-pipeline", "0"},
		{"-precision", "fp8"},
	},
	"sweep": {
		{"-axis", "nope"}, {"-gpus", "0"}, {"-batches", "0"}, {"-gpus", "x"},
	},
	"trainstep": {
		{"-gpus", "0"}, {"-batches", "-1"}, {"-nope"},
	},
}

// Check runs the named command's BadFlags cases through run.
func Check(t *testing.T, name string, run func(args []string, stdout, stderr io.Writer) int) {
	t.Helper()
	cases, ok := BadFlags[name]
	if !ok {
		t.Fatalf("clitest.BadFlags has no cases for %q", name)
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		msg := stderr.String()
		switch {
		case code != cli.ExitUsage:
			t.Errorf("%s %q: exit %d, want %d (stderr %q)", name, args, code, cli.ExitUsage, msg)
		case !strings.HasPrefix(msg, name+": "):
			t.Errorf("%s %q: stderr %q is not prefixed with %q", name, args, msg, name+": ")
		case strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine"):
			t.Errorf("%s %q: stderr carries a stack trace: %q", name, args, msg)
		case stdout.Len() > 0:
			t.Errorf("%s %q: printed %q before rejecting its flags", name, args, stdout.String())
		}
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ instead of comparing")

// Golden runs the command with args and compares its stdout byte for byte
// with the file testdata/<name>.golden; -update rewrites the file instead.
func Golden(t *testing.T, name string, run func(args []string, stdout, stderr io.Writer) int, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%q: exit %d: %s", args, code, stderr.String())
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run the test with -update to record it)", err)
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("%q: stdout differs from %s\n--- got\n%s--- want\n%s", args, path, got, want)
	}
}
