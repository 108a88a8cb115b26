package main

import (
	"fmt"
	"math"
	"time"

	"pgasemb/internal/tensor"
)

// outcome collects one workload run's metrics, checks and notes.
type outcome struct {
	e2e   map[string]float64
	layer map[string]float64
	// simPrint holds every simulated value of the run; the determinism guard
	// compares it across runs of one seed.
	simPrint  map[string]float64
	hostRates []float64 // a host-rate child's per-round rates
	attempted int
	failed    int
	problems  []string
	notes     []string
	selfTimes map[string]time.Duration
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, simPrint: map[string]float64{}}
}

// check counts one checked operation, and a failure when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

// fail records a failure without counting an attempt (the attempt was
// counted where the operation was made).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// sim records a simulated value both as a metric and in the determinism
// fingerprint.
func (o *outcome) sim(m map[string]float64, name string, v float64) {
	m[name] = v
	o.simPrint[name] = v
}

// positive reports whether a simulated time is finite and above zero.
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) }

// bitEqual reports whether two tensors have the same shape and
// bit-identical elements (NaN payloads and the sign of zero included).
func bitEqual(a, b *tensor.Tensor) bool {
	if a == nil || b == nil || fmt.Sprint(a.Shape()) != fmt.Sprint(b.Shape()) {
		return false
	}
	ad, bd := a.Contiguous().Data(), b.Contiguous().Data()
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}

// allBitEqual is bitEqual over per-GPU tensor lists.
func allBitEqual(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if !bitEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
