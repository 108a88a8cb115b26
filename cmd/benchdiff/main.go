// Command benchdiff compares two bench.json hot-path records — typically a
// freshly measured one against the committed results/bench.json — and fails
// when a tracked hot path regressed: ns/op beyond the tolerance, any
// allocs/op increase (the steady-state paths are pinned at zero), or a
// tracked path missing from the fresh record.
//
// Usage:
//
//	benchdiff [-old results/bench.json] [-new .bench-tmp/bench.json]
//	          [-tolerance 15]
//
// -tolerance is the allowed ns/op growth in percent. Allocation counts get
// no tolerance: any allocs/op increase fails. Hot paths that appear only in
// the new record are reported but never fail the diff, so adding a tracked
// path and regenerating the baseline in the same change works.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pgasemb/internal/cli"
	"pgasemb/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("benchdiff", stdout, stderr)
	oldPath := c.String("old", "results/bench.json", "committed baseline bench.json")
	newPath := c.String("new", ".bench-tmp/bench.json", "freshly measured bench.json")
	tolerance := c.Float64("tolerance", 15, "allowed ns/op growth in percent")
	c.NonNegative("tolerance")
	return c.Run(args, func(context.Context) error {
		oldRep, err := load(*oldPath)
		if err != nil {
			return err
		}
		newRep, err := load(*newPath)
		if err != nil {
			return err
		}
		if len(oldRep.HotPaths) == 0 {
			return fmt.Errorf("%s records no hot paths (regenerate it with `make bench`)", *oldPath)
		}

		fresh := make(map[string]experiments.HotPathBenchmark, len(newRep.HotPaths))
		for _, h := range newRep.HotPaths {
			fresh[h.Name] = h
		}
		seen := make(map[string]bool, len(oldRep.HotPaths))

		fmt.Fprintf(stdout, "%-42s %12s %12s %8s  %s\n", "hot path", "old ns/op", "new ns/op", "delta", "allocs")
		regressions := 0
		for _, old := range oldRep.HotPaths {
			seen[old.Name] = true
			now, ok := fresh[old.Name]
			if !ok {
				fmt.Fprintf(stdout, "%-42s %12.0f %12s %8s  FAIL: missing from %s\n",
					old.Name, old.NsPerOp, "-", "-", *newPath)
				regressions++
				continue
			}
			deltaPct := 0.0
			if old.NsPerOp > 0 {
				deltaPct = (now.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
			}
			verdict := "ok"
			if deltaPct > *tolerance {
				verdict = fmt.Sprintf("FAIL: ns/op grew %.1f%% (> %g%%)", deltaPct, *tolerance)
				regressions++
			}
			if now.AllocsPerOp > old.AllocsPerOp {
				verdict = fmt.Sprintf("FAIL: allocs/op %d -> %d", old.AllocsPerOp, now.AllocsPerOp)
				regressions++
			}
			fmt.Fprintf(stdout, "%-42s %12.0f %12.0f %+7.1f%%  %d->%d  %s\n",
				old.Name, old.NsPerOp, now.NsPerOp, deltaPct, old.AllocsPerOp, now.AllocsPerOp, verdict)
		}
		for _, h := range newRep.HotPaths {
			if !seen[h.Name] {
				fmt.Fprintf(stdout, "%-42s %12s %12.0f %8s  new (not in baseline)\n", h.Name, "-", h.NsPerOp, "-")
			}
		}

		if regressions > 0 {
			fmt.Fprintln(stdout)
			return fmt.Errorf("%d hot-path regression(s) vs %s", regressions, *oldPath)
		}
		fmt.Fprintf(stdout, "\nbenchdiff: %d hot paths within %g%% of %s, no alloc regressions\n",
			len(oldRep.HotPaths), *tolerance, *oldPath)
		return nil
	})
}

func load(path string) (*experiments.BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &experiments.BenchReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
