package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pgasemb/internal/dlrm"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
	"pgasemb/internal/workload"
)

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at test size, with its output directory under
// out, and parses its result line.
func runTiny(t *testing.T, name string, seed int, trace bool, out string) resultLine {
	t.Helper()
	args := []string{"--workload", name, "--seed", strconv.Itoa(seed), "--seconds", "0.01", "--tiny", "--out", out}
	if trace {
		args = append(args, "--trace", "1")
	}
	var stdout, stderr bytes.Buffer
	if code := mainErr(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s exited %d:\n%s\n%s", name, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, r.Correct, r.Attempted, r.Failed)
	}
	return r
}

func names(r resultLine) []string {
	var out []string
	for k := range r.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestEveryMetricPrintedWithUnit runs every workload at a tiny shape, traced
// and untraced, and checks that each catalogue metric is printed with its
// unit and nothing else is.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			out := t.TempDir()
			r := runTiny(t, w, 1, trace, out)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, d.Name, m.Unit, d.Unit)
				case !trace && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, m.Value)
				}
			}
			if trace {
				checkTraceLayers(t, w, filepath.Join(out, "traces", w+"-seed1.json"))
			}
		}
	}
}

// checkTraceLayers checks that a trace file parses as Chrome trace-event
// JSON and has spans for every layer the workload executes.
func checkTraceLayers(t *testing.T, workload, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct{ Cat, Ph string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: trace is not JSON: %v", workload, err)
	}
	spans := map[string]bool{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" {
			spans[e.Cat] = true
		}
	}
	want := []string{"workload", "retrieval", "sim", "dlrm", "nvlink", "pgas", "fabric"}
	switch workload {
	case "serve-zipf-cache":
		want = append(want, "serve", "cache")
	case "functional-check":
		want = append(want, "embedding", "tensor")
	}
	for _, layer := range want {
		if !spans[layer] {
			t.Errorf("%s: trace has no span for layer %s", workload, layer)
		}
	}
}

// TestHostPart checks the child mode the host-rate measurement starts: it
// prints positive round rates and the fingerprint of its first round.
func TestHostPart(t *testing.T) {
	for _, w := range workloadNames {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", w, "--seconds", "0.01", "--tiny", "--host-part", "--out", t.TempDir()}
		if code := mainErr(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s exited %d: %s", w, code, stderr.String())
		}
		var c childResult
		if err := json.Unmarshal(stdout.Bytes(), &c); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		positive := len(c.Rates) > 0
		for _, r := range c.Rates {
			positive = positive && r > 0
		}
		if !positive || len(c.Fingerprint) == 0 || c.Attempted < 1 || c.Failed != 0 {
			t.Errorf("%s: child result %+v", w, c)
		}
	}
}

// TestSeedChangesInputsNotNames checks that a different seed draws different
// inputs while the set of metric names stays the same.
func TestSeedChangesInputsNotNames(t *testing.T) {
	configs := map[string]func(uint64) retrieval.Config{
		"paper-weak4":        func(s uint64) retrieval.Config { return paperWeak4(s, true).cfg },
		"cluster-zipf-dedup": func(s uint64) retrieval.Config { return clusterZipfDedup(s, true).cfg },
		"serve-zipf-cache":   func(s uint64) retrieval.Config { return serveZipfCache(s, true).base },
		"functional-check":   func(s uint64) retrieval.Config { return functionalCheck(s, true).cfg },
	}
	for _, w := range workloadNames {
		a, b := firstBatch(t, configs[w](mixSeed(1))), firstBatch(t, configs[w](mixSeed(2)))
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 drew the same first batch", w)
		}
		if n1, n2 := names(runTiny(t, w, 1, false, t.TempDir())), names(runTiny(t, w, 2, false, t.TempDir())); !reflect.DeepEqual(n1, n2) {
			t.Errorf("%s: metric names differ between seeds: %v vs %v", w, n1, n2)
		}
	}
}

func firstBatch(t *testing.T, cfg retrieval.Config) [][]int64 {
	t.Helper()
	gen, err := workload.NewGenerator(shadowWorkload(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]int64
	for _, f := range gen.NextBatch().Features {
		out = append(out, append([]int64(nil), f.Indices...))
	}
	return out
}

// TestShadowGeneratorMatchesSystem checks that the probe's shadow generator
// draws exactly the inputs the system under test draws.
func TestShadowGeneratorMatchesSystem(t *testing.T) {
	cfg := functionalCheck(mixSeed(3), true).cfg
	sys, err := retrieval.NewSystem(cfg, retrieval.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(shadowWorkload(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		bd, err := sys.NextBatchData()
		if err != nil {
			t.Fatal(err)
		}
		if want := gen.NextBatch(); !reflect.DeepEqual(bd.Sparse, want) {
			t.Fatalf("batch %d: shadow generator diverges from the system's input stream", i)
		}
	}
}

// TestPerturbedOutputsTripChecks feeds each correctness check a real output
// and a copy with one value changed.
func TestPerturbedOutputsTripChecks(t *testing.T) {
	w := functionalCheck(mixSeed(4), true)
	if _, err := w.setup(newTracer()); err != nil {
		t.Fatal(err)
	}
	pl := w.pls[0]
	res, err := pl.Sys.Run(w.backends[0])
	if err != nil {
		t.Fatal(err)
	}
	ref, err := retrieval.Reference(pl.Sys, res.LastBatch)
	if err != nil {
		t.Fatal(err)
	}
	if !allBitEqual(res.Final, ref) {
		t.Fatal("EMB outputs differ from the reference before perturbation")
	}
	bad := res.Final[0].Clone()
	bad.Data()[0] = math.Nextafter32(bad.Data()[0], float32(math.Inf(1)))
	if allBitEqual(append([]*tensor.Tensor{bad}, res.Final[1:]...), ref) {
		t.Error("EMB check passed a perturbed output")
	}

	pres, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	pref, err := dlrm.ReferencePredictions(pl, pres.LastSparse, pres.LastDense)
	if err != nil {
		t.Fatal(err)
	}
	got := stitch(pres.Predictions)
	if !bitEqual(got, pref) {
		t.Fatal("predictions differ from the reference before perturbation")
	}
	last := len(got.Data()) - 1
	got.Data()[last] = math.Nextafter32(got.Data()[last], 0)
	if bitEqual(got, pref) {
		t.Error("prediction check passed a perturbed output")
	}

	rr := &roundResult{res: [2][]*dlrm.PipelineResult{{pres}, {pres}}}
	moved := *pres
	moved.EMBTime = math.Nextafter(moved.EMBTime, 1)
	if sameRound(rr, &roundResult{res: [2][]*dlrm.PipelineResult{{&moved}, {pres}}}) {
		t.Error("determinism check passed a round with a changed EMB time")
	}
	if positive(math.NaN()) || positive(math.Inf(1)) || positive(0) {
		t.Error("sanity check passed a non-finite or zero simulated time")
	}

	sres := &serve.Result{Offered: 10, Completed: 9, Dropped: 1, Latencies: make([]sim.Duration, 9)}
	if !conserves(sres) {
		t.Fatal("conservation check failed a conserving result")
	}
	leak := *sres
	leak.Completed--
	leak.Latencies = leak.Latencies[:8]
	if conserves(&leak) {
		t.Error("conservation check passed a result that lost a request")
	}
}

// TestDeterminismGuard checks that a changed simulated value for a recorded
// seed is a failure and an unchanged one is not.
func TestDeterminismGuard(t *testing.T) {
	op := options{workload: "paper-weak4", seed: 7, out: t.TempDir(), tiny: true}
	first := newOutcome()
	first.simPrint["x"] = 1.5
	if err := guardDeterminism(op, first); err != nil || first.failed != 0 {
		t.Fatalf("first record: err %v, failed %d", err, first.failed)
	}
	same := newOutcome()
	same.simPrint["x"] = 1.5
	if err := guardDeterminism(op, same); err != nil || same.failed != 0 || same.attempted != 1 {
		t.Fatalf("repeat: err %v, attempted %d, failed %d", err, same.attempted, same.failed)
	}
	moved := newOutcome()
	moved.simPrint["x"] = math.Nextafter(1.5, 2)
	if err := guardDeterminism(op, moved); err != nil || moved.failed != 1 {
		t.Fatalf("changed value: err %v, failed %d", err, moved.failed)
	}
}

// TestMaxRate checks the ladder's capacity rule on synthetic rungs.
func TestMaxRate(t *testing.T) {
	w := &serveBench{ladder: []rung{{rate: 100}, {rate: 200}, {rate: 300}}}
	mk := func(p99 sim.Duration, offered, completed int) *serve.Result {
		lat := make([]sim.Duration, completed)
		for i := range lat {
			lat[i] = p99
		}
		return &serve.Result{Offered: offered, Completed: completed, Latencies: lat}
	}
	cases := []struct {
		name string
		rs   []*serve.Result
		want float64
	}{
		{"all pass", []*serve.Result{mk(0.05, 100, 100), mk(0.06, 100, 100), mk(0.07, 100, 100)}, 300},
		{"p99 crosses", []*serve.Result{mk(0.05, 100, 100), mk(0.08, 100, 100), mk(0.12, 100, 100)}, 250},
		{"backlog", []*serve.Result{mk(0.05, 100, 100), mk(0.06, 100, 100), mk(0.07, 100, 97)}, 200 + 100.0/3},
	}
	for _, c := range cases {
		if got := w.maxRate(c.rs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: max rate %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue checks BENCHMARK.json at the repository
// root against the metrics and workloads this program prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
	}
	if !reflect.DeepEqual(ws, workloadNames) {
		t.Errorf("workloads %v, program runs %v", ws, workloadNames)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%d metrics listed, program prints %d", len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if g := c.got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("metric %d: listed %+v, program prints %+v", i, g, d)
			}
		}
	}
}
