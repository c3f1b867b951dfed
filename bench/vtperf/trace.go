package main

import (
	"sync"
	"time"
)

// ownSpan is one span of the benchmark's own trace: the calls it makes
// into each layer (run → workload → set-up / pass → spawn, sweep,
// verify; probe → kernel/policy). Spans inside the program come from its
// -sweeptrace dump and are ingested as stage totals beside these.
type ownSpan struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartNs int64             `json:"start_ns"`
	DurNs   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. The benchmark's
// phases are sequential, so the open spans form a stack and a new span's
// parent is the innermost open one. A nil recorder records nothing: the
// end-to-end runs pass nil.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []ownSpan
	open  []int // indices into spans
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span; attrs are key, value pairs.
func (r *recorder) begin(name string, attrs ...string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := ownSpan{ID: len(r.spans) + 1, Name: name, StartNs: time.Since(r.t0).Nanoseconds()}
	if n := len(r.open); n > 0 {
		s.Parent = r.spans[r.open[n-1]].ID
	}
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.Attrs == nil {
			s.Attrs = map[string]string{}
		}
		s.Attrs[attrs[i]] = attrs[i+1]
	}
	r.spans = append(r.spans, s)
	r.open = append(r.open, len(r.spans)-1)
	return s.ID
}

// end closes span id and any span still open inside it.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Since(r.t0).Nanoseconds()
	for n := len(r.open); n > 0; n = len(r.open) {
		i := r.open[n-1]
		r.open = r.open[:n-1]
		r.spans[i].DurNs = now - r.spans[i].StartNs
		if r.spans[i].ID == id {
			return
		}
	}
}

// selfTimes returns each span name's total self time in seconds: its
// duration minus what its children cover.
func (r *recorder) selfTimes() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	childNs := map[int]int64{}
	for _, s := range r.spans {
		childNs[s.Parent] += s.DurNs
	}
	out := map[string]float64{}
	for _, s := range r.spans {
		out[s.Name] += float64(s.DurNs-childNs[s.ID]) / 1e9
	}
	return out
}
