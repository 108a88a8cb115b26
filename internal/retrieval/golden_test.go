package retrieval

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
	"pgasemb/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/backend_times.golden from the current code")

const goldenPath = "testdata/backend_times.golden"

// goldenCase is one timing-mode run pinned by the golden file.
type goldenCase struct {
	name    string
	cfg     Config
	hw      HardwareParams
	backend Backend
}

// goldenConfig is the grid's base shape: small enough that the whole grid
// runs in well under a second, with a batch that does not divide evenly into
// kernel chunks, so chunks straddle consumer minibatches and every per-pair
// clamp in the chunked kernels is exercised.
func goldenConfig() Config {
	cfg := clusterTestConfig(4)
	cfg.Functional = false
	cfg.BatchSize = 36
	cfg.ChunksPerKernel = 5
	return cfg
}

// goldenCases enumerates the pinned runs: every registered backend on a
// single node and a 2-node cluster with plain, dedup+cache and fp16 traffic;
// replicated shards with and without a fault schedule; and the hybrid
// backend's all-collective and mixed modes, which no committed artifact
// reaches.
func goldenCases(t *testing.T) []goldenCase {
	flaky, err := fault.Profile("flaky-link", 99)
	if err != nil {
		t.Fatal(err)
	}
	machines := []struct {
		name string
		hw   HardwareParams
	}{
		{"single", DefaultHardware()},
		{"cluster2", ClusterHardware(2)},
	}
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"dedup+cache", func(c *Config) { c.Dedup = true; c.CacheFraction = 1e-8 }},
		{"fp16", func(c *Config) { c.WirePrecision = FP16 }},
		{"depth2", func(c *Config) { c.PipelineDepth = 2 }},
	}
	var cases []goldenCase
	add := func(name string, cfg Config, hw HardwareParams, be Backend) {
		if ValidateBackend(be, cfg) != nil {
			return // e.g. replicas with the staging ablation
		}
		cases = append(cases, goldenCase{name, cfg, hw, be})
	}
	backend := func(name string) Backend {
		be, err := NewBackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return be
	}
	for _, name := range RegisteredBackends() {
		for _, m := range machines {
			for _, v := range variants {
				cfg := goldenConfig()
				v.mut(&cfg)
				add(fmt.Sprintf("%s/%s/%s", name, m.name, v.name), cfg, m.hw, backend(name))
			}
			for _, prec := range []Precision{FP32, FP16} {
				for _, sched := range []*fault.Schedule{nil, flaky} {
					cfg := goldenConfig()
					cfg.Replicas = 2
					cfg.WirePrecision = prec
					hw := m.hw
					hw.Faults = sched
					label := "replicas2"
					if prec != FP32 {
						label += "+" + prec.String()
					}
					if sched != nil {
						label += "+flaky-link"
					}
					add(fmt.Sprintf("%s/%s/%s", name, m.name, label), cfg, hw, backend(name))
				}
			}
		}
		placed := goldenConfig()
		placed.AdaptivePlacement = true
		placed.RebalanceEvery = 1
		placed.HotTables = 1
		add(name+"/single/placement+mirror", placed, DefaultHardware(), backend(name))
	}
	agg := &PGASFused{Aggregate: &AggregatorConfig{FlushBytes: 4096, MaxWait: sim.Millisecond}}
	add("pgas-aggregated/cluster2/plain", goldenConfig(), ClusterHardware(2), agg)
	for _, nodes := range []int{0, 2} {
		for _, dedup := range []bool{false, true} {
			for _, cached := range []bool{false, true} {
				for _, prec := range []Precision{FP32, FP16} {
					cfg := goldenConfig()
					cfg.Dedup = dedup
					if cached {
						cfg.CacheFraction = 1e-8
					}
					cfg.WirePrecision = prec
					add(fmt.Sprintf("hybrid/taxed%d/dedup=%v,cache=%v,%s", nodes, dedup, cached, prec),
						cfg, headerTaxedHardware(nodes), &Hybrid{})
				}
			}
		}
	}
	return cases
}

// goldenLine renders one run as "name key=bits ...": the exact float64 bits
// of the total, every breakdown component (slowest-GPU and per-GPU), the
// communication volume and the NIC counters.
func goldenLine(name string, res *Result) string {
	var b strings.Builder
	b.WriteString(name)
	bits := func(key string, v float64) {
		fmt.Fprintf(&b, " %s=%016x", key, math.Float64bits(v))
	}
	bits("total", res.TotalTime)
	for _, c := range res.Breakdown.SortedNames() {
		bits("max."+strings.ReplaceAll(c, " ", "_"), res.Breakdown.Get(c))
	}
	for g, bk := range res.PerGPU {
		for _, c := range bk.SortedNames() {
			bits(fmt.Sprintf("gpu%d.%s", g, strings.ReplaceAll(c, " ", "_")), bk.Get(c))
		}
	}
	bits("comm_bytes", res.CommTrace.Total())
	bits("nic_wire", res.NICWireBytes)
	bits("nic_payload", res.NICPayloadBytes)
	fmt.Fprintf(&b, " nic_msgs=%d", res.NICMessages)
	return b.String()
}

// TestBackendTimesGolden pins every backend's timing-mode results to the
// exact bits recorded in testdata/backend_times.golden. Refactors of the
// executors must leave simulated time, breakdowns and traffic unchanged to
// the last bit; regenerate with -update only for an intended model change.
func TestBackendTimesGolden(t *testing.T) {
	got := map[string]string{}
	var names []string
	for _, c := range goldenCases(t) {
		s, err := NewSystem(c.cfg, c.hw)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := s.Run(c.backend)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, dup := got[c.name]; dup {
			t.Fatalf("duplicate golden case %s", c.name)
		}
		got[c.name] = goldenLine(c.name, res)
		names = append(names, c.name)
	}
	sort.Strings(names)

	if *updateGolden {
		var out strings.Builder
		out.WriteString("# Timing-mode results per backend case (float64 bits); regenerate with\n")
		out.WriteString("# go test ./internal/retrieval -run TestBackendTimesGolden -update\n")
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
		t.Fatal(err)
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
			t.Errorf("%s differs from golden:\n got %s\nwant %s", n, describeGolden(got[n]), describeGolden(w))
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("golden record %s has no case", n)
	}
}

// describeGolden decodes a golden line's bit fields for failure messages.
func describeGolden(line string) string {
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok || key == "nic_msgs" {
			continue
		}
		var u uint64
		if _, err := fmt.Sscanf(val, "%x", &u); err == nil {
			fields[i+1] = fmt.Sprintf("%s=%g", key, math.Float64frombits(u))
		}
	}
	return strings.Join(fields, " ")
}
