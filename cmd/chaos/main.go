// Command chaos runs the fault-injection resilience sweep: every (backend,
// fault profile, replica count) point is a full online-serving simulation
// under that deterministic fault schedule — degraded links or NICs, GPU
// stragglers, proxy delivery drops — with the serving layer's degradation
// policy (queue-timeout rejection, health-aware shedding, stale-cache
// serving) active. It writes the availability/tail-latency table to the
// results directory as aligned text and CSV, plus a summary to stdout.
//
// Usage:
//
//	chaos [-profiles none,flaky-link,straggler] [-replicas 1,2] [-gpus 4]
//	      [-nodes 0] [-rate 4000] [-duration 1s] [-backend baseline,pgas-fused]
//	      [-parallel N] [-out results] [-timeout 0]
//
// -profiles, -replicas and -backend take comma-separated sweeps; -duration
// is SIMULATED time (the arrival window of each point). NIC and proxy-drop
// profiles (degraded-nic, lossy-proxy, mixed) need -nodes > 0 to have any
// effect. Independent points execute concurrently on -parallel workers; the
// table is byte-identical at any parallelism. -timeout bounds host
// wall-clock time.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"pgasemb/internal/cli"
	"pgasemb/internal/experiments"
	"pgasemb/internal/fault"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("chaos", stdout, stderr)
	profiles := c.Names("profiles", "none,flaky-link,straggler", "comma-separated fault profiles", fault.Profiles())
	replicas := c.Ints("replicas", "1,2", "comma-separated shard replication factors")
	gpus := c.Int("gpus", 4, "GPUs in the machine")
	nodes := c.Int("nodes", 0, "NVLink islands joined by the NIC fabric (0 = single node)")
	rate := c.Float64("rate", 4000, "arrival rate (requests/second)")
	duration := c.Duration("duration", time.Second, "simulated arrival window per sweep point")
	backends := c.Backends("baseline,pgas-fused")
	c.Parallel()
	c.Out("results")
	c.Timeout()
	c.Positive("gpus", "rate", "duration")
	c.NonNegative("nodes")
	return c.Run(args, func(ctx context.Context) error {
		opts := experiments.ChaosOptions{
			Options:  experiments.Options{GPUs: *gpus, Nodes: *nodes, Backends: *backends, Parallel: c.Workers()},
			Profiles: *profiles,
			Replicas: *replicas,
			Rate:     *rate,
			Duration: duration.Seconds(),
		}
		fmt.Fprintf(stdout, "== Chaos sweep (%d GPUs, %d nodes, %.0f req/s, %v simulated per point) ==\n",
			*gpus, *nodes, *rate, *duration)
		res, err := experiments.RunChaos(ctx, opts)
		if err != nil {
			return err
		}
		if err := c.Table("chaos", res.Table()); err != nil {
			return err
		}
		return nil
	})
}
