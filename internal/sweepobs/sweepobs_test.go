package sweepobs

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testsupport"
)

// fakeClock drives a tracer deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// spanSamples scrapes the tracer's exposition through the independent
// parser: vtsweep_span_seconds_count/_sum{kind} are the per-kind span
// count and total seconds.
func spanSamples(t *testing.T, tr *Tracer) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := writeSpanSeconds(tr, &b); err != nil {
		t.Fatal(err)
	}
	samples, err := testsupport.ValidateExposition(b.String())
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, b.String())
	}
	return samples
}

// writeSpanSeconds builds the span histogram under the tracer's lock and
// writes it after, as the monitor's /metrics does.
func writeSpanSeconds(tr *Tracer, w io.Writer) error {
	var byKind map[string]*Histogram
	tr.View(func(_ int64, spans []Span) { byKind = SpanSeconds(spans) })
	return WriteSpanSeconds(w, byKind)
}

// newTestTracer returns a tracer on a fake clock.
func newTestTracer() (*Tracer, *fakeClock) {
	clk := newFakeClock()
	return NewClock(clk.now), clk
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(0, "experiment", "", "")
	if id != 0 {
		t.Fatalf("nil Begin = %d, want 0", id)
	}
	jid := tr.BeginJob(0, "bfs", "vt")
	if jid != 0 {
		t.Fatalf("nil BeginJob = %d, want 0", jid)
	}
	tr.SetAttr(id, "k", "v")
	tr.Event(0, "supervisor.panic", "bfs", "vt")
	tr.Record(0, "store.stage", "", "", time.Now(), time.Millisecond)
	tr.End(id)
	tr.EndJob(jid)
	if d := tr.Dump(); d != nil {
		t.Fatalf("nil Dump = %+v, want nil", d)
	}
	tr.View(func(int64, []Span) { t.Fatal("nil View called its function") })
}

func TestTracerNestingAndSlots(t *testing.T) {
	tr, clk := newTestTracer()

	eid := tr.Begin(0, "experiment", "fig-swaplat", "")
	j1 := tr.BeginJob(eid, "bfs", "vt")
	j2 := tr.BeginJob(eid, "spmv", "baseline")
	clk.advance(10 * time.Millisecond)

	ex := tr.Begin(j1, "execute", "bfs", "vt")
	tr.SetAttr(ex, "outcome", "ok")
	clk.advance(40 * time.Millisecond)
	tr.End(ex)

	tr.EndJob(j1)
	// Slot 0 freed: the next job must reuse it.
	j3 := tr.BeginJob(eid, "lud", "lat64")
	clk.advance(5 * time.Millisecond)
	tr.EndJob(j3)
	tr.EndJob(j2)
	tr.End(eid)

	d := tr.Dump()
	if d.Workers != 2 {
		t.Fatalf("Workers = %d, want 2 (slot reuse)", d.Workers)
	}
	byID := map[SpanID]Span{}
	for _, sp := range d.Spans {
		byID[sp.ID] = sp
	}
	if byID[j1].Slot != 0 || byID[j2].Slot != 1 || byID[j3].Slot != 0 {
		t.Fatalf("slots = %d,%d,%d, want 0,1,0", byID[j1].Slot, byID[j2].Slot, byID[j3].Slot)
	}
	if byID[ex].Slot != byID[j1].Slot {
		t.Fatalf("child slot %d != parent slot %d", byID[ex].Slot, byID[j1].Slot)
	}
	if byID[ex].Parent != j1 {
		t.Fatalf("execute parent = %d, want %d", byID[ex].Parent, j1)
	}
	if byID[ex].DurNS != 40*time.Millisecond.Nanoseconds() {
		t.Fatalf("execute dur = %d", byID[ex].DurNS)
	}
	if byID[ex].Attrs["outcome"] != "ok" {
		t.Fatalf("attrs = %v", byID[ex].Attrs)
	}

	st := spanSamples(t, tr)
	if n := st[`vtsweep_span_seconds_count{kind="job"}`]; n != 3 {
		t.Fatalf("job count = %v, want 3", n)
	}
	if n, sec := st[`vtsweep_span_seconds_count{kind="execute"}`], st[`vtsweep_span_seconds_sum{kind="execute"}`]; n != 1 || sec != 0.04 {
		t.Fatalf("execute totals = %v spans, %v s", n, sec)
	}
}

func TestTracerEventAndRecord(t *testing.T) {
	tr, clk := newTestTracer()
	j := tr.BeginJob(0, "bfs", "vt")
	tr.Event(j, "supervisor.panic", "bfs", "vt", "attempt", "1")
	start := clk.now()
	clk.advance(time.Millisecond)
	tr.Record(j, "store.commit", "bfs", "vt", start, 250*time.Microsecond)
	tr.EndJob(j)

	d := tr.Dump()
	var ev, rec *Span
	for i := range d.Spans {
		switch d.Spans[i].Kind {
		case "supervisor.panic":
			ev = &d.Spans[i]
		case "store.commit":
			rec = &d.Spans[i]
		}
	}
	if ev == nil || ev.Attrs["event"] != "true" || ev.Attrs["attempt"] != "1" || ev.DurNS != 0 {
		t.Fatalf("event span = %+v", ev)
	}
	if rec == nil || rec.DurNS != 250*time.Microsecond.Nanoseconds() || rec.StartNS != 0 {
		t.Fatalf("recorded span = %+v", rec)
	}
	if rec.Parent != j {
		t.Fatalf("recorded parent = %d, want %d", rec.Parent, j)
	}
}

func TestDumpMarksOpenSpans(t *testing.T) {
	tr, clk := newTestTracer()
	j := tr.BeginJob(0, "bfs", "vt")
	clk.advance(time.Second)
	d := tr.Dump()
	if len(d.Spans) != 1 {
		t.Fatalf("spans = %d", len(d.Spans))
	}
	sp := d.Spans[0]
	if sp.Attrs["open"] != "true" || sp.DurNS != time.Second.Nanoseconds() {
		t.Fatalf("open span = %+v", sp)
	}
	// The live tracer must not have been mutated by the dump.
	tr.EndJob(j)
	d2 := tr.Dump()
	if d2.Spans[0].Attrs["open"] == "true" {
		t.Fatalf("closed span still marked open: %+v", d2.Spans[0])
	}
}

// TestTracerConcurrent hammers begin/end/scrape from many goroutines;
// run under -race this is the lock-correctness test for the tracer.
func TestTracerConcurrent(t *testing.T) {
	tr := New()
	root := tr.Begin(0, "experiment", "", "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j := tr.BeginJob(root, "bfs", "vt")
				ex := tr.Begin(j, "execute", "bfs", "vt")
				tr.SetAttr(ex, "i", "x")
				tr.Event(j, "supervisor.panic", "bfs", "vt")
				tr.End(ex)
				tr.EndJob(j)
			}
		}()
	}
	// Concurrent scrapers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = tr.Dump()
				if err := writeSpanSeconds(tr, io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	tr.End(root)
	if n := spanSamples(t, tr)[`vtsweep_span_seconds_count{kind="job"}`]; n != 8*200 {
		t.Fatalf("job count = %v, want %d", n, 8*200)
	}
	d := tr.Dump()
	if d.Workers < 1 || d.Workers > 8 {
		t.Fatalf("workers = %d, want 1..8", d.Workers)
	}
}
