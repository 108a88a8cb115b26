package experiments

import (
	"context"
	"fmt"

	"pgasemb/internal/fault"
	"pgasemb/internal/metrics"
	"pgasemb/internal/retrieval"
	"pgasemb/internal/serve"
	"pgasemb/internal/sim"
)

// ChaosOptions tunes the resilience sweep: backend × fault profile × replica
// count, each point one full serving simulation under that fault schedule.
// Options.GPUs sizes the machine unless Base is set, Options.Nodes > 0 joins
// nodes over the NIC fabric, and Options.Backends defaults to baseline and
// pgas-fused; the sweep overwrites the hardware's Faults field.
type ChaosOptions struct {
	Options
	// Profiles names the fault profiles to sweep (see fault.Profiles).
	// Default: none, flaky-link, straggler — the profiles that bite on a
	// single-node machine. NIC and proxy profiles need Nodes > 0 to have any
	// effect.
	Profiles []string
	// Replicas are the shard replication factors to sweep (default {1, 2}).
	Replicas []int
	// Rate is the arrival rate in requests/second (default 4000).
	Rate float64
	// Duration is each point's arrival window (default 1 simulated second).
	Duration sim.Duration
	// Base overrides the serving workload configuration (default
	// retrieval.ServingScaleConfig(GPUs)); its Replicas field is overwritten
	// by the sweep. Replication requires CacheFraction == 0 and Dedup off.
	Base *retrieval.Config
	// Serve carries the batching knobs and the degraded-serving policy; Rate
	// and Duration are overwritten by the sweep. A zero-valued Degrade
	// selects DefaultDegradePolicy so the sweep exercises the degradation
	// machinery; pass a policy with only QueueTimeout < 0 semantics via the
	// serve package directly if a truly inert policy is wanted.
	Serve serve.Config
}

// DefaultDegradePolicy is the degraded-serving policy the chaos sweep applies
// when none is given: fail queue heads older than 250ms (above the healthy
// tail of the default serving workload, so an unfaulted run rejects
// nothing), shed arrivals at 60% queue depth while a fault window is active,
// and freeze the hot-row caches during degraded dispatches.
func DefaultDegradePolicy() serve.DegradePolicy {
	return serve.DegradePolicy{
		QueueTimeout:    250 * sim.Millisecond,
		ShedAt:          0.6,
		StaleCacheServe: true,
	}
}

// ChaosPoint is one (backend, fault profile, replica count) serving run.
type ChaosPoint struct {
	Backend  string
	Profile  string
	Replicas int

	Offered   int
	Completed int
	Dropped   int // queue-full drops
	// Availability is Completed/Offered — the headline resilience number.
	Availability float64
	// Resilience carries the shed/reject counts and the proxy layer's
	// drop/retry volume.
	Resilience metrics.RetryCounters

	P50     sim.Duration
	P99     sim.Duration
	Goodput float64
}

// ChaosResult is the full sweep, in backend-major,
// profile-then-replicas order — deterministic for any Parallel.
type ChaosResult struct {
	Profiles []string
	Replicas []int
	Points   []ChaosPoint
}

// RunChaos executes the resilience sweep. Every grid point owns its server,
// so points are independent.
func RunChaos(ctx context.Context, opts ChaosOptions) (*ChaosResult, error) {
	profiles := listOr(opts.Profiles, []string{"none", "flaky-link", "straggler"})
	replicas := listOr(opts.Replicas, []int{1, 2})
	for _, r := range replicas {
		if r < 1 {
			return nil, fmt.Errorf("experiments: chaos sweep replica count %d must be >= 1", r)
		}
	}
	var cells []ChaosPoint
	for _, backend := range listOr(opts.Backends, defaultBackends) {
		for _, profile := range profiles {
			for _, r := range replicas {
				cells = append(cells, ChaosPoint{Backend: backend, Profile: profile, Replicas: r})
			}
		}
	}
	base := servingBase(opts.Base, opts.Options)
	hw := opts.hardware(opts.Nodes)
	scfg := opts.Serve
	scfg.Rate = positiveOr(opts.Rate, 4000)
	scfg.Duration = positiveOr(opts.Duration, sim.Second)
	if scfg.Degrade == (serve.DegradePolicy{}) {
		scfg.Degrade = DefaultDegradePolicy()
	}
	points, err := sweep(ctx, opts.Options, "chaos", cells, func(ctx context.Context, c ChaosPoint) (ChaosPoint, error) {
		cfg := base
		cfg.Replicas = c.Replicas
		phw := hw
		var err error
		if phw.Faults, err = fault.Profile(c.Profile, cfg.Seed); err != nil {
			return c, err
		}
		r, err := serveRun(ctx, c.Backend, cfg, phw, scfg)
		if err != nil {
			return c, fmt.Errorf("%s profile %s replicas %d: %w", c.Backend, c.Profile, c.Replicas, err)
		}
		return ChaosPoint{
			Backend:      r.Backend,
			Profile:      c.Profile,
			Replicas:     c.Replicas,
			Offered:      r.Offered,
			Completed:    r.Completed,
			Dropped:      r.Dropped,
			Availability: r.Availability(),
			Resilience:   r.Resilience,
			P50:          r.Percentile(50),
			P99:          r.Percentile(99),
			Goodput:      r.Goodput(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ChaosResult{Profiles: profiles, Replicas: replicas, Points: points}, nil
}

// Table renders the sweep.
func (r *ChaosResult) Table() *Table {
	t := &Table{
		Title: "Chaos: availability and tail latency under injected faults",
		Headers: []string{"backend", "profile", "replicas", "avail",
			"p50_ms", "p99_ms", "goodput_rps", "shed", "rejected", "dropped",
			"proxy_drops", "proxy_retries"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			p.Backend,
			p.Profile,
			fmt.Sprintf("%d", p.Replicas),
			fmt.Sprintf("%.3f", p.Availability),
			fmt.Sprintf("%.3f", float64(p.P50)/float64(sim.Millisecond)),
			fmt.Sprintf("%.3f", float64(p.P99)/float64(sim.Millisecond)),
			fmt.Sprintf("%.1f", p.Goodput),
			fmt.Sprintf("%d", p.Resilience.Shed),
			fmt.Sprintf("%d", p.Resilience.Rejected),
			fmt.Sprintf("%d", p.Dropped),
			fmt.Sprintf("%d", p.Resilience.Drops),
			fmt.Sprintf("%d", p.Resilience.Retries),
		})
	}
	return t
}
