// Command perfbench is the repository's end-to-end benchmark: it runs one
// named workload through the simulator's public packages, checks the
// outputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and a Chrome trace-event JSON of the run's spans
// is written under --out. Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload paper-weak4 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for trace files and determinism records
	tiny     bool   // test-sized shapes
	hostPart bool   // a child process measuring only host throughput
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var op options
	var trace int
	fs.StringVar(&op.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&op.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&op.seconds, "seconds", 20, "host seconds to measure for")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&op.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for trace files and determinism records")
	fs.BoolVar(&op.tiny, "tiny", false, "run test-sized shapes (for the benchmark's own tests)")
	fs.BoolVar(&op.hostPart, "host-part", false, "measure host throughput only (the benchmark starts such child processes itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	op.trace = trace == 1
	if op.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	o, err := run(op)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", op.workload, err)
		return 1
	}
	if op.hostPart {
		line, err := json.Marshal(childResult{Rates: o.hostRates, Fingerprint: o.simPrint,
			Attempted: o.attempted, Failed: o.failed, Problems: o.problems})
		if err != nil {
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}
	if err := emit(stdout, op, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if o.failed > 0 {
		for _, p := range o.problems {
			fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", p)
		}
		return 1
	}
	return 0
}

// run executes one workload and the determinism guard.
func run(op options) (*outcome, error) {
	o := newOutcome()
	tr := newTracer()
	tr.on = op.trace
	heap := startHeapPeak()
	err := runWorkload(op, o, tr)
	o.e2e["heap_peak_mb"] = heap.stop()
	if err != nil || op.hostPart {
		return o, err
	}
	if err := guardDeterminism(op, o); err != nil {
		return nil, err
	}
	if op.trace {
		o.selfTimes = tr.selfTimes()
		path := filepath.Join(op.out, "traces", fmt.Sprintf("%s-seed%d.json", op.workload, op.seed))
		meta := map[string]any{"workload": op.workload, "seed": op.seed, "seconds": op.seconds}
		if err := tr.writeChrome(path, meta); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		o.note("trace written to %s (open in https://ui.perfetto.dev or chrome://tracing)", path)
	}
	return o, nil
}

// emit prints the human-readable report and, as the last line, the JSON
// result.
func emit(w io.Writer, op options, o *outcome) error {
	defs, vals := endToEnd, o.e2e
	if op.trace {
		defs, vals = perLayer, o.layer
	}
	fmt.Fprintf(w, "workload %s, seed %d, %d attempted, %d failed\n", op.workload, op.seed, o.attempted, o.failed)
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metricOut{}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			if !op.trace {
				return fmt.Errorf("%s: metric %s was not measured", op.workload, d.Name)
			}
			v = 0 // a layer this workload does not execute
		}
		out[d.Name] = metricOut{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-42s %16.6g %-8s %-6s better %s\n", d.Name, v, d.Unit, d.Clock, d.Better)
	}
	fmt.Fprintf(w, "  %-42s %16.6g %-8s %-6s better %s\n", "ops_failed_frac", ratio(float64(o.failed), float64(o.attempted)), "ratio", "count", "lower")
	if op.trace {
		layers := make([]string, 0, len(o.selfTimes))
		for l := range o.selfTimes {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Fprintf(w, "self time by layer (traced spans):\n")
		for _, l := range layers {
			fmt.Fprintf(w, "  %-12s %10.1f ms\n", l, ms(o.selfTimes[l]))
		}
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
