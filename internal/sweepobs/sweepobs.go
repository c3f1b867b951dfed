// Package sweepobs is the sweep-level observability layer of the
// harness: structured run-lifecycle tracing (one span tree per job),
// the span-derived histograms and label escaping of the /metrics
// exposition, and critical-path analysis over a finished sweep's trace.
//
// Where internal/telemetry watches the *simulator* (per-SM rings on a
// simulated-cycle clock), sweepobs watches the *harness*: every job the
// sweep runs emits wall-clock spans for planning, memo/store lookups,
// prefix-fork checkpoint traffic, simulation attempts, result-store
// transaction phases, and supervisor events. The span dump persists
// through the result store as a vtart artifact (so traces survive
// crashes and are queryable later), renders as a Perfetto trace (one
// pid per worker slot), and feeds `vtreport -tracepath` — which answers
// "where did the wall-clock go" for a whole sweep, local or fleet.
//
// Spans are job-lifecycle-grained — a handful per job, never per
// simulated cycle — so recording is a short mutex-guarded append, far
// off the simulation hot path. A nil *Tracer is the disabled state:
// every method is nil-receiver safe and free, which is the overhead
// contract the CI tracing-off benchcheck gate enforces.
package sweepobs

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// DumpSchemaVersion identifies the span-dump JSON layout.
const DumpSchemaVersion = 1

// SpanID identifies a span within one Tracer. 0 means "no span" and is
// what every recording method returns and accepts on a nil Tracer.
type SpanID int64

// Span is one recorded interval (or instant, when DurNS is 0 and the
// "event" attr is set). Times are wall-clock nanoseconds since the
// tracer started, so a dump is self-contained.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	// Kind is the span taxonomy name: "experiment", "plan", "job",
	// "store.get", "execute", "fork.ckload", "fork.ckstore",
	// "store.tx", "store.stage", "store.commit", "store.apply",
	// "store.replicate", "fork.capture", "supervisor.panic",
	// "supervisor.invariant", "supervisor.deadline".
	Kind     string `json:"kind"`
	Workload string `json:"workload,omitempty"`
	Variant  string `json:"variant,omitempty"`
	// Slot is the worker slot the span ran on: jobs acquire the lowest
	// free slot for their duration and children inherit it; -1 marks
	// process-level spans (experiment, plan).
	Slot    int               `json:"slot"`
	StartNS int64             `json:"start_ns"`
	DurNS   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// End returns the span's end time in nanoseconds since tracer start.
func (s Span) End() int64 { return s.StartNS + s.DurNS }

// Dump is the persistable span trace of one sweep.
type Dump struct {
	SchemaVersion int `json:"schema_version"`
	// StartTime is the tracer's wall-clock epoch (RFC3339Nano); span
	// StartNS offsets are relative to it.
	StartTime string `json:"start_time"`
	// WallNS is the tracer's age when the dump was taken.
	WallNS int64 `json:"wall_ns"`
	// Workers is the number of worker slots ever in use.
	Workers int    `json:"workers"`
	Spans   []Span `json:"spans"`
}

// Tracer records spans. Safe for concurrent use; nil is the disabled
// tracer (all methods no-op).
type Tracer struct {
	mu      sync.Mutex
	now     func() time.Time // NewClock's seam
	start   time.Time
	nextID  SpanID
	spans   []Span
	openIdx map[SpanID]int // open span -> index in spans
	slots   []bool         // worker-slot occupancy
	workers int            // high-water slot count
}

// New returns an enabled tracer whose clock starts now.
func New() *Tracer { return NewClock(time.Now) }

// NewClock returns an enabled tracer that reads time from now, starting
// at its first reading: tests drive a tracer on a fake clock.
func NewClock(now func() time.Time) *Tracer {
	return &Tracer{now: now, start: now(), openIdx: map[SpanID]int{}}
}

// View calls fn with the tracer's age and its spans in begin order,
// under the tracer's lock and without copying them: an open span has
// DurNS -1. fn must not keep spans or call the tracer. A nil tracer
// does not call fn.
func (t *Tracer) View(fn func(nowNS int64, spans []Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(t.sinceStart(), t.spans)
}

func (t *Tracer) sinceStart() int64 { return t.now().Sub(t.start).Nanoseconds() }

// begin appends an open span. Callers hold t.mu.
func (t *Tracer) begin(parent SpanID, kind, workload, variant string, slot int) SpanID {
	t.nextID++
	id := t.nextID
	if slot == -1 && parent != 0 {
		if pi, ok := t.openIdx[parent]; ok {
			slot = t.spans[pi].Slot
		}
	}
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Kind: kind,
		Workload: workload, Variant: variant,
		Slot: slot, StartNS: t.sinceStart(), DurNS: -1,
	})
	t.openIdx[id] = len(t.spans) - 1
	return id
}

// Begin opens a span of the given kind under parent (0 = root). The
// span inherits the parent's worker slot.
func (t *Tracer) Begin(parent SpanID, kind, workload, variant string) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.begin(parent, kind, workload, variant, -1)
}

// BeginJob opens a "job" span and binds it to the lowest free worker
// slot until EndJob. The harness calls it once per job, after the
// worker semaphore is acquired, so slot count never exceeds the worker
// bound and the Perfetto export gets one stable pid per slot.
func (t *Tracer) BeginJob(parent SpanID, workload, variant string) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	slot := 0
	for ; slot < len(t.slots) && t.slots[slot]; slot++ {
	}
	if slot == len(t.slots) {
		t.slots = append(t.slots, false)
	}
	t.slots[slot] = true
	if slot+1 > t.workers {
		t.workers = slot + 1
	}
	return t.begin(parent, "job", workload, variant, slot)
}

// SetAttr annotates an open span.
func (t *Tracer) SetAttr(id SpanID, k, v string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.openIdx[id]
	if !ok {
		return
	}
	if t.spans[i].Attrs == nil {
		t.spans[i].Attrs = map[string]string{}
	}
	t.spans[i].Attrs[k] = v
}

// end closes the span. Callers hold t.mu.
func (t *Tracer) end(id SpanID) {
	i, ok := t.openIdx[id]
	if !ok {
		return
	}
	delete(t.openIdx, id)
	sp := &t.spans[i]
	sp.DurNS = t.sinceStart() - sp.StartNS
	if sp.DurNS < 0 {
		sp.DurNS = 0
	}
}

// End closes a span opened by Begin.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.end(id)
}

// EndJob closes a job span and releases its worker slot.
func (t *Tracer) EndJob(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.openIdx[id]; ok {
		if s := t.spans[i].Slot; s >= 0 && s < len(t.slots) {
			t.slots[s] = false
		}
	}
	t.end(id)
}

// Event records an instant (zero-duration span with the "event" attr)
// under parent: supervisor panics, checkpoint captures.
// attrs are alternating key, value pairs.
func (t *Tracer) Event(parent SpanID, kind, workload, variant string, attrs ...string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.begin(parent, kind, workload, variant, -1)
	i := t.openIdx[id]
	t.spans[i].Attrs = map[string]string{"event": "true"}
	t.addAttrs(i, attrs)
	t.end(id)
}

// addAttrs sets alternating key, value pairs on span i. Callers hold
// t.mu.
func (t *Tracer) addAttrs(i int, attrs []string) {
	for n := 0; n+1 < len(attrs); n += 2 {
		if t.spans[i].Attrs == nil {
			t.spans[i].Attrs = map[string]string{}
		}
		t.spans[i].Attrs[attrs[n]] = attrs[n+1]
	}
}

// Record inserts an already-timed completed span (result-store batches
// and their phases measure themselves; the tracer just files them) and
// returns its id, so the caller can file children under it. attrs are
// alternating key, value pairs.
func (t *Tracer) Record(parent SpanID, kind, workload, variant string, start time.Time, dur time.Duration, attrs ...string) SpanID {
	if t == nil {
		return 0
	}
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.begin(parent, kind, workload, variant, -1)
	i := t.openIdx[id]
	delete(t.openIdx, id)
	t.spans[i].StartNS = start.Sub(t.start).Nanoseconds()
	t.spans[i].DurNS = dur.Nanoseconds()
	t.addAttrs(i, attrs)
	return id
}

// Dump snapshots every span. Spans still open are emitted with their
// duration up to now and an "open" attr, so a scrape mid-sweep is
// coherent. Nil-safe: returns nil.
func (t *Tracer) Dump() *Dump {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	nowNS := t.sinceStart()
	d := &Dump{
		SchemaVersion: DumpSchemaVersion,
		StartTime:     t.start.UTC().Format(time.RFC3339Nano),
		WallNS:        nowNS,
		Workers:       t.workers,
		Spans:         make([]Span, len(t.spans)),
	}
	copy(d.Spans, t.spans)
	for i := range d.Spans {
		if d.Spans[i].DurNS < 0 { // still open
			attrs := map[string]string{"open": "true"}
			for k, v := range d.Spans[i].Attrs {
				attrs[k] = v
			}
			d.Spans[i].Attrs = attrs
			d.Spans[i].DurNS = nowNS - d.Spans[i].StartNS
		}
	}
	return d
}

// DecodeDump parses a span dump as Dump marshals it — a vtbench
// -sweeptrace file or the store's sweep-trace artifact — and refuses any
// schema version but DumpSchemaVersion.
func DecodeDump(b []byte) (*Dump, error) {
	var d Dump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("decode sweep trace: %w", err)
	}
	if d.SchemaVersion != DumpSchemaVersion {
		return nil, fmt.Errorf("sweep trace schema %d (want %d)", d.SchemaVersion, DumpSchemaVersion)
	}
	return &d, nil
}
