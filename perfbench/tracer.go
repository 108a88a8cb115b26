package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one host-time interval around a call into a layer.
type span struct {
	name, layer string
	start, dur  time.Duration // from the tracer's origin
	id, parent  int           // parent is -1 for a root span
	args        map[string]any
}

// counter is a set of values read from a layer at one instant.
type counter struct {
	layer  string
	at     time.Duration
	values map[string]float64
}

// tracer records spans in memory while enabled; do runs f untimed when it
// is not. Spans nest: a span started inside another's f is its child.
type tracer struct {
	on       bool
	origin   time.Time
	spans    []span
	counters []counter
	open     []int // stack of the spans currently running
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// do runs f inside a span named name, attributed to layer.
func (t *tracer) do(name, layer string, f func()) {
	if !t.on {
		f()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, layer: layer, start: time.Since(t.origin), id: id, parent: parent})
	t.open = append(t.open, id)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].dur = time.Since(t.origin) - t.spans[id].start
}

// count records the values read from a layer's counters, as a zero-length
// span (so the layer shows on the timeline) and a counter event.
func (t *tracer) count(layer string, values map[string]float64) {
	if !t.on {
		return
	}
	t.do(layer+".counters", layer, func() {})
	args := make(map[string]any, len(values))
	for k, v := range values {
		args[k] = v
	}
	t.spans[len(t.spans)-1].args = args
	t.counters = append(t.counters, counter{layer: layer, at: time.Since(t.origin), values: values})
}

// selfTimes returns each layer's self time: its spans' durations minus the
// parts of them their child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.layer] += s.dur
		if s.parent >= 0 {
			self[t.spans[s.parent].layer] -= s.dur
		}
	}
	return self
}

// writeChrome writes the spans and counters as Chrome trace-event JSON,
// which chrome://tracing and https://ui.perfetto.dev open directly.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(t.spans)+len(t.counters))
	for _, s := range t.spans {
		dur := us(s.dur)
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{Name: s.name, Cat: s.layer, Ph: "X", Ts: us(s.start), Dur: &dur, Pid: 1, Tid: 1, Args: args})
	}
	for _, c := range t.counters {
		args := make(map[string]any, len(c.values))
		keys := make([]string, 0, len(c.values))
		for k := range c.values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			args[k] = c.values[k]
		}
		events = append(events, event{Name: c.layer, Cat: c.layer, Ph: "C", Ts: us(c.at), Pid: 1, Tid: 1, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
