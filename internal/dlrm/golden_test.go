package dlrm

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pgasemb/internal/fault"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/dlrm_times.golden from the current code")

const goldenPath = "testdata/dlrm_times.golden"

// goldenConfig is the pinned runs' base shape: timing-only, a batch that does
// not divide evenly into kernel chunks, and enough batches that the
// pipelined schedule cycles through every staging slot.
func goldenConfig() retrieval.Config {
	cfg := retrieval.TestScaleConfig(4)
	cfg.Functional = false
	cfg.BatchSize = 36
	cfg.ChunksPerKernel = 5
	cfg.Batches = 4
	return cfg
}

// goldenRuns returns every pinned run as name -> golden line: each
// registered backend as the Pipeline's EMB layer and as the Trainer's
// forward pass (paired with both backward backends), at pipeline depth 1
// and 2, on a single node and a 2-node cluster, plus a
// replicated Pipeline under the flaky-link fault schedule.
func goldenRuns(t *testing.T) map[string]string {
	flaky, err := fault.Profile("flaky-link", 99)
	if err != nil {
		t.Fatal(err)
	}
	machines := []struct {
		name string
		hw   retrieval.HardwareParams
	}{
		{"single", retrieval.DefaultHardware()},
		{"cluster2", retrieval.ClusterHardware(2)},
	}
	backend := func(name string) retrieval.Backend {
		be, err := retrieval.NewBackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return be
	}
	runs := map[string]string{}
	add := func(name, line string) {
		if _, dup := runs[name]; dup {
			t.Fatalf("duplicate golden case %s", name)
		}
		runs[name] = line
	}
	pipeline := func(name string, cfg retrieval.Config, hw retrieval.HardwareParams, be retrieval.Backend) {
		pl, err := NewPipeline(cfg, hw, be)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := pl.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, goldenLine(name, []float64{res.TotalTime, res.EMBTime, res.DenseTime, res.EMBStall},
			[]string{"total", "emb", "dense", "stall"}, res.EMBBreakdown))
	}
	for _, name := range retrieval.RegisteredBackends() {
		for _, m := range machines {
			for _, depth := range []int{1, 2} {
				cfg := goldenConfig()
				cfg.PipelineDepth = depth
				pipeline(fmt.Sprintf("pipeline/%s/%s/depth%d", name, m.name, depth), cfg, m.hw, backend(name))
				for _, bwd := range []retrieval.Backend{&retrieval.BackwardBaseline{}, &retrieval.BackwardPGAS{}} {
					label := fmt.Sprintf("trainer/%s+%s/%s/depth%d", name, bwd.Name(), m.name, depth)
					tr, err := NewTrainer(cfg, m.hw, backend(name), bwd)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					res, err := tr.Run()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					add(label, goldenLine(label, []float64{res.TotalTime, res.EMBForward, res.EMBBackward},
						[]string{"total", "emb_fwd", "emb_bwd"}, res.Breakdown))
				}
			}
			cfg := goldenConfig()
			cfg.Replicas = 2
			hw := m.hw
			hw.Faults = flaky
			if retrieval.ValidateBackend(backend(name), cfg) == nil {
				pipeline(fmt.Sprintf("pipeline/%s/%s/replicas2+flaky-link", name, m.name), cfg, hw, backend(name))
			}
		}
	}
	return runs
}

// goldenLine renders one run as "name key=bits ...": the exact float64 bits
// of the named totals and every component of the slowest-GPU breakdown.
func goldenLine(name string, vals []float64, keys []string, bk *trace.Breakdown) string {
	var b strings.Builder
	b.WriteString(name)
	bits := func(key string, v float64) {
		fmt.Fprintf(&b, " %s=%016x", key, math.Float64bits(v))
	}
	for i, v := range vals {
		bits(keys[i], v)
	}
	for _, c := range bk.SortedNames() {
		bits("max."+strings.ReplaceAll(c, " ", "_"), bk.Get(c))
	}
	return b.String()
}

// TestDLRMTimesGolden pins the Pipeline's and the Trainer's timing-mode
// results to the exact bits recorded in testdata/dlrm_times.golden: the
// run driver's schedules must leave every simulated time unchanged.
// Regenerate with -update only for an intended model change.
func TestDLRMTimesGolden(t *testing.T) {
	got := goldenRuns(t)
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)

	if *updateGolden {
		var out strings.Builder
		out.WriteString("# Timing-mode Pipeline and Trainer results (float64 bits); regenerate with\n")
		out.WriteString("# go test ./internal/dlrm -run TestDLRMTimesGolden -update\n")
		for _, n := range names {
			out.WriteString(got[n])
			out.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run the test with -update to record it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		w, ok := want[n]
		if !ok {
			t.Errorf("%s: no golden record", n)
			continue
		}
		if got[n] != w {
			t.Errorf("%s differs from golden:\n got %s\nwant %s", n, got[n], w)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("golden record %s has no case", n)
	}
}
