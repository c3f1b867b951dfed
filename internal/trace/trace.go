// Package trace provides a structured JSONL event log for simulations:
// CTA state transitions, occupancy samples, and run markers, written one
// JSON object per line so external tools (jq, pandas) can consume them.
// The writer is wiring-agnostic — cmd/vtsim connects it to the simulator's
// trace and timeline hooks.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Kind labels an event record.
type Kind string

// Event kinds.
const (
	// KindCTA is a CTA state transition (Virtual Thread policies).
	KindCTA Kind = "cta"
	// KindSample is an occupancy/IPC timeline sample.
	KindSample Kind = "sample"
	// KindRun marks the start or end of a simulation.
	KindRun Kind = "run"
)

// Event is one trace record. Encoding is per kind (see MarshalJSON):
// every field that is meaningful for the event's kind is always present
// in the JSON, even when zero — "sm":0, "cta":0, and "ipc":0 are real
// values, not absences — while fields belonging to other kinds are
// dropped entirely.
type Event struct {
	Cycle int64 `json:"cycle"`
	Kind  Kind  `json:"kind"`

	// KindCTA fields.
	SM   int    `json:"sm"`
	CTA  int    `json:"cta"`
	From string `json:"from"`
	To   string `json:"to"`

	// KindSample fields.
	ActiveWarps   float64 `json:"activeWarps"`
	ResidentWarps float64 `json:"residentWarps"`
	IPC           float64 `json:"ipc"`

	// KindRun fields.
	Marker string `json:"marker"` // "start" or "end"
	Kernel string `json:"kernel"`
	Policy string `json:"policy"`
}

// MarshalJSON encodes exactly the fields that are meaningful for the
// event's kind, all explicitly. The earlier struct-wide omitempty
// encoding silently dropped zero values that carry information — a
// transition on SM 0, CTA 0 of the grid, a zero-IPC sample — which broke
// consumers that treat a missing key and zero differently.
func (e Event) MarshalJSON() ([]byte, error) {
	switch e.Kind {
	case KindCTA:
		return json.Marshal(struct {
			Cycle int64  `json:"cycle"`
			Kind  Kind   `json:"kind"`
			SM    int    `json:"sm"`
			CTA   int    `json:"cta"`
			From  string `json:"from"`
			To    string `json:"to"`
		}{e.Cycle, e.Kind, e.SM, e.CTA, e.From, e.To})
	case KindSample:
		return json.Marshal(struct {
			Cycle         int64   `json:"cycle"`
			Kind          Kind    `json:"kind"`
			ActiveWarps   float64 `json:"activeWarps"`
			ResidentWarps float64 `json:"residentWarps"`
			IPC           float64 `json:"ipc"`
		}{e.Cycle, e.Kind, e.ActiveWarps, e.ResidentWarps, e.IPC})
	case KindRun:
		return json.Marshal(struct {
			Cycle  int64  `json:"cycle"`
			Kind   Kind   `json:"kind"`
			Marker string `json:"marker"`
			Kernel string `json:"kernel,omitempty"`
			Policy string `json:"policy,omitempty"`
		}{e.Cycle, e.Kind, e.Marker, e.Kernel, e.Policy})
	default:
		// Unknown kind: emit everything rather than guess.
		type plain Event
		return json.Marshal(plain(e))
	}
}

// Writer emits events as JSON lines. It buffers; call Flush (or Close the
// underlying file after Flush) when done. Writer is not concurrency-safe;
// a simulation is single-threaded so this matches the producer.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   int
	err error
}

// NewWriter returns a JSONL writer over w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit writes one event; errors are sticky and reported by Flush.
func (tw *Writer) Emit(e Event) {
	if tw.err != nil {
		return
	}
	if err := tw.enc.Encode(e); err != nil {
		tw.err = err
		return
	}
	tw.n++
}

// Count returns the number of events emitted so far.
func (tw *Writer) Count() int { return tw.n }

// Flush drains the buffer and returns the first error encountered.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	return tw.bw.Flush()
}

// ReadAll parses a JSONL trace back into events: the tests' independent
// reader of what Writer emits.
func ReadAll(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
