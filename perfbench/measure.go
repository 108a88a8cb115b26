package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// repeatSetup builds a workload's set-up several times and returns the
// median host time: at least three times and for at least setupSeconds, at
// most setupMaxReps times (once at test size, and in a host-rate child
// process, which does not report it). Each build replaces the last.
func repeatSetup(op options, build func() error) (float64, error) {
	var times []float64
	var total time.Duration
	for len(times) < setupMaxReps && (len(times) < 3 || total < setupSeconds) {
		runtime.GC()
		t := time.Now()
		if err := build(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t)
		total += d
		times = append(times, d.Seconds())
		if op.tiny || op.hostPart {
			break
		}
	}
	return median(times), nil
}

const (
	setupSeconds = 2 * time.Second
	setupMaxReps = 25
)

// hostProcs is how many processes share an untraced run's host-throughput
// measurement, so that the rate does not rest on one process alone.
const hostProcs = 2

// hostQuantile is the quantile of the pooled per-round rates that a run
// reports. On a shared host the rounds run in a slow state or in one up to
// 1.7 times faster, and which one fills a run changes from minute to
// minute; but nearly every run spends some rounds in the slow state, whose
// speed varies far less. The lower tail is therefore the steadier figure,
// and a change that slows every round still moves it in full.
const hostQuantile = 0.05

// hostRound measures host throughput for the given seconds in this process.
// It returns the rate of each timed round and the simulated values of its
// first round, which identify the work: every process must simulate them
// identically.
type hostRound func(seconds float64) (rates []float64, fingerprint map[string]float64, err error)

// childResult is what a host-rate child process prints.
type childResult struct {
	Rates       []float64          `json:"rates"`
	Fingerprint map[string]float64 `json:"fingerprint"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Problems    []string           `json:"problems"`
}

// hostRate measures host throughput in this process and, for an untraced
// full-size run, in hostProcs-1 child processes started one after another,
// each measuring an equal share of the time after building its own set-up.
// It returns the hostQuantile of all the processes' round rates, and checks
// that every child simulated its first round exactly as this process did.
// In a child (op.hostPart) it measures the whole time and records its round
// rates and fingerprint.
func hostRate(o *outcome, op options, own hostRound) (float64, error) {
	procs := hostProcs
	if op.tiny || op.trace || op.hostPart {
		procs = 1
	}
	share := op.seconds / float64(procs)
	rates, fp, err := own(share)
	if err != nil {
		return 0, err
	}
	if op.hostPart {
		o.simPrint, o.hostRates = fp, rates
		return quantile(rates, hostQuantile), nil
	}
	for i := 1; i < procs; i++ {
		c, err := runChild(op, share)
		if err != nil {
			return 0, fmt.Errorf("host-rate process %d: %w", i, err)
		}
		o.attempted += c.Attempted
		o.failed += c.Failed
		o.problems = append(o.problems, c.Problems...)
		o.check(reflect.DeepEqual(c.Fingerprint, fp), "determinism: process %d simulated %v, this process %v", i, c.Fingerprint, fp)
		rates = append(rates, c.Rates...)
	}
	return quantile(rates, hostQuantile), nil
}

// runChild runs this binary as a host-rate child and waits for it to end.
func runChild(op options, seconds float64) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", op.workload, "--seed", strconv.FormatUint(op.seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--out", op.out, "--host-part")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var c childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("reading its result: %w", err)
	}
	return &c, nil
}

// hostCost is the host time, heap allocations and bytes allocated by f.
type hostCost struct {
	d      time.Duration
	allocs uint64
	bytes  uint64
}

func measure(f func()) hostCost {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t := time.Now()
	f()
	d := time.Since(t)
	runtime.ReadMemStats(&b)
	return hostCost{d: d, allocs: b.Mallocs - a.Mallocs, bytes: b.TotalAlloc - a.TotalAlloc}
}

// timedLoop runs rounds until the measuring time is used up (at least one
// round; two with tracing on, so traced and untraced rounds alternate and
// their difference is the tracing overhead).
type timedLoop struct {
	seconds float64
	trace   bool

	elapsed         time.Duration
	roundRates      []float64 // batches per host second of each round
	plain, traced   time.Duration
	plainN, tracedN int
}

func (l *timedLoop) run(tr *tracer, round func(r int) (batches int, err error)) error {
	start := time.Now()
	for r := 0; ; r++ {
		tr.on = l.trace && r%2 == 1
		t := time.Now()
		n, err := round(r)
		d := time.Since(t)
		tr.on = l.trace
		if err != nil {
			return err
		}
		l.roundRates = append(l.roundRates, float64(n)/d.Seconds())
		if l.trace && r%2 == 1 {
			l.traced += d
			l.tracedN += n
		} else {
			l.plain += d
			l.plainN += n
		}
		l.elapsed = time.Since(start)
		minRounds := 1
		if l.trace {
			minRounds = 2
		}
		if r+1 >= minRounds && l.elapsed.Seconds() >= l.seconds {
			return nil
		}
	}
}

// rates returns batches per host second of each round after the first,
// which warms the run's arenas and caches (of the first round too when it
// is the only one).
func (l *timedLoop) rates() []float64 {
	if len(l.roundRates) > 1 {
		return l.roundRates[1:]
	}
	return l.roundRates
}

// overhead is the traced rounds' host time per batch over the untraced
// rounds', minus one.
func (l *timedLoop) overhead() float64 {
	if l.plainN == 0 || l.tracedN == 0 {
		return 0
	}
	return (l.traced.Seconds()/float64(l.tracedN))/(l.plain.Seconds()/float64(l.plainN)) - 1
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
