package main

import (
	"runtime/metrics"
	"time"
)

// heapPeak samples the Go heap's object bytes every millisecond until
// stopped, and keeps the largest value. Sampling allocates nothing, so it
// does not disturb the allocation counts the probe takes meanwhile.
type heapPeak struct {
	samples []metrics.Sample
	peak    uint64 // written by the sampler only; read after it exits
	quit    chan struct{}
	done    chan struct{}
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{
		samples: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	metrics.Read(h.samples)
	if v := h.samples[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stop ends sampling, waits for the sampler to exit and returns the peak in
// MB.
func (h *heapPeak) stop() float64 {
	close(h.quit)
	<-h.done
	h.sample()
	return float64(h.peak) / 1e6
}
