package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{Cycle: 0, Kind: KindRun, Marker: "start", Kernel: "nw", Policy: "vt"})
	w.Emit(Event{Cycle: 12, Kind: KindCTA, SM: 1, CTA: 3, From: "active", To: "inactive-waiting"})
	w.Emit(Event{Cycle: 100, Kind: KindSample, ActiveWarps: 7.5, ResidentWarps: 20, IPC: 14.25})
	w.Emit(Event{Cycle: 200, Kind: KindRun, Marker: "end"})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 4 {
		t.Fatalf("count = %d", w.Count())
	}

	events, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("read %d events", len(events))
	}
	if events[1].To != "inactive-waiting" || events[1].SM != 1 || events[1].CTA != 3 {
		t.Fatalf("CTA event mangled: %+v", events[1])
	}
	if events[2].IPC != 14.25 || events[2].ResidentWarps != 20 {
		t.Fatalf("sample mangled: %+v", events[2])
	}
}

// TestZeroValuedFieldsSurviveEncoding is the regression test for the
// omitempty bug: a transition on SM 0 / CTA 0 and a zero-IPC sample used
// to lose those keys entirely, so consumers distinguishing "missing"
// from "zero" (or schema-validating the lines) broke on the first SM of
// every run. Every kind-relevant field must be present even when zero,
// and fields of other kinds must stay out.
func TestZeroValuedFieldsSurviveEncoding(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{Cycle: 0, Kind: KindCTA, SM: 0, CTA: 0, From: "new", To: "active"})
	w.Emit(Event{Cycle: 0, Kind: KindSample, ActiveWarps: 0, ResidentWarps: 0, IPC: 0})
	w.Emit(Event{Cycle: 0, Kind: KindRun, Marker: "end"})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	mustHave := func(line string, keys ...string) {
		t.Helper()
		for _, k := range keys {
			if !strings.Contains(line, `"`+k+`"`) {
				t.Errorf("line %s missing key %q", line, k)
			}
		}
	}
	mustNotHave := func(line string, keys ...string) {
		t.Helper()
		for _, k := range keys {
			if strings.Contains(line, `"`+k+`"`) {
				t.Errorf("line %s has foreign key %q", line, k)
			}
		}
	}
	mustHave(lines[0], "cycle", "kind", "sm", "cta", "from", "to")
	mustNotHave(lines[0], "ipc", "marker", "activeWarps")
	mustHave(lines[1], "cycle", "kind", "activeWarps", "residentWarps", "ipc")
	mustNotHave(lines[1], "sm", "cta", "from", "to")
	mustHave(lines[2], "cycle", "kind", "marker")
	mustNotHave(lines[2], "sm", "ipc", "kernel", "policy")

	events, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if events[0].SM != 0 || events[0].CTA != 0 || events[0].To != "active" {
		t.Fatalf("round trip mangled: %+v", events[0])
	}
}

func TestReadAllRejectsGarbage(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("{\"cycle\":1}\nnot json\n")); err == nil {
		t.Fatal("expected parse error with line number")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks line number: %v", err)
	}
}

func TestReadAllSkipsBlankLines(t *testing.T) {
	events, err := ReadAll(strings.NewReader("{\"cycle\":1,\"kind\":\"cta\"}\n\n{\"cycle\":2,\"kind\":\"cta\"}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failWriter{})
	for i := 0; i < 10000; i++ { // overflow the bufio buffer to force a write
		w.Emit(Event{Cycle: int64(i), Kind: KindSample})
	}
	if err := w.Flush(); err == nil {
		t.Fatal("expected sticky write error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errFail }

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "fail" }
