package retrieval

import (
	"fmt"
	"testing"

	"pgasemb/internal/trace"
)

// conservationVariant is one routing shape the conservation checks cover:
// each moves served load between GPUs (cache hits and mirror reads to the
// consumer, replica routing to a mirror) without changing what is served.
type conservationVariant struct {
	name   string
	mutate func(*Config)
}

var conservationVariants = []conservationVariant{
	{"plain", func(*Config) {}},
	{"cache", func(c *Config) { c.CacheFraction = 1e-8 }},
	{"hot-mirror", func(c *Config) { c.AdaptivePlacement, c.RebalanceEvery, c.HotTables = true, 2, 1 }},
	{"replicas-2", func(c *Config) { c.Replicas = 2 }},
}

// conservationMachines are the machines the checks below run on.
var conservationMachines = []struct {
	name string
	hw   HardwareParams
}{
	{"single", DefaultHardware()},
	{"cluster2", ClusterHardware(2)},
}

// forEachConservationRun runs every registered backend on the skewed
// placement shape under every conservation variant, on a single-node
// machine and a 2-node cluster, and hands each finished run to check.
// Backend/variant pairs the backend rejects up front are left out.
func forEachConservationRun(t *testing.T, check func(t *testing.T, machine string, s *System, res *Result)) {
	for _, name := range RegisteredBackends() {
		for _, m := range conservationMachines {
			for _, v := range conservationVariants {
				cfg := placementGateConfig()
				cfg.Functional = false
				v.mutate(&cfg)
				be, err := NewBackendByName(name)
				if err != nil {
					t.Fatal(err)
				}
				if ValidateBackend(be, cfg) != nil {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/%s", name, m.name, v.name), func(t *testing.T) {
					s, err := NewSystem(cfg, m.hw)
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Run(be)
					if err != nil {
						t.Fatal(err)
					}
					check(t, m.name, s, res)
				})
			}
		}
	}
}

// TestOwnerKeysConservePooledIndices checks that served keys equal requested
// keys: summed over GPUs, Result.OwnerKeys is exactly the run's pooled-index
// total, whichever GPU each key was charged to.
func TestOwnerKeysConservePooledIndices(t *testing.T) {
	forEachConservationRun(t, func(t *testing.T, _ string, s *System, res *Result) {
		ref, err := NewSystem(s.Cfg, s.HW)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for i := 0; i < s.Cfg.Batches; i++ {
			bd, err := ref.NextBatchData()
			if err != nil {
				t.Fatal(err)
			}
			want += bd.Summary.TotalIndices()
		}
		var got int64
		for _, k := range res.OwnerKeys {
			got += k
		}
		if got != want || want == 0 {
			t.Fatalf("owner keys sum to %d (%v), the run pooled %d indices", got, res.OwnerKeys, want)
		}
	})
}

// TestNICPayloadWithinWire checks that the NIC never delivers more payload
// than it puts on the wire (headers only add bytes), and that the 2-node
// runs actually cross the NIC.
func TestNICPayloadWithinWire(t *testing.T) {
	forEachConservationRun(t, func(t *testing.T, machine string, _ *System, res *Result) {
		if res.NICPayloadBytes > res.NICWireBytes {
			t.Fatalf("NIC payload %g bytes exceeds wire %g bytes", res.NICPayloadBytes, res.NICWireBytes)
		}
		if crossed := res.NICWireBytes > 0; crossed != (machine == "cluster2") {
			t.Fatalf("NIC wire bytes %g on the %s machine", res.NICWireBytes, machine)
		}
	})
}

// TestCommTraceIsOneSidedThenCollective pins Result.CommTrace for every
// backend: the one-sided (PGAS) intervals in issue order followed by the
// collective's. The baseline issues no one-sided traffic, so its trace is
// the collective's interval list unchanged.
func TestCommTraceIsOneSidedThenCollective(t *testing.T) {
	for _, name := range RegisteredBackends() {
		for _, m := range conservationMachines {
			t.Run(name+"/"+m.name, func(t *testing.T) {
				cfg := clusterTestConfig(4)
				cfg.Functional = false
				s, err := NewSystem(cfg, m.hw)
				if err != nil {
					t.Fatal(err)
				}
				be, err := NewBackendByName(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(be)
				if err != nil {
					t.Fatal(err)
				}
				oneSided := s.PGAS.TotalTrace().Intervals()
				want := append(append([]trace.Interval(nil), oneSided...), s.Comm.Volume().Intervals()...)
				got := res.CommTrace.Intervals()
				if len(got) != len(want) || len(want) == 0 {
					t.Fatalf("trace has %d intervals, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("interval %d = %+v, want %+v", i, got[i], want[i])
					}
				}
				if name == "baseline" && len(oneSided) != 0 {
					t.Fatalf("baseline issued %d one-sided intervals", len(oneSided))
				}
			})
		}
	}
}
