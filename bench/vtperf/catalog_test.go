package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The catalogue stays inside the limits the benchmark's manifest is
// checked against before a single run.
func TestCatalogueWithinManifestLimits(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n<>&") {
			t.Errorf("workload %s: why is %d characters or not one plain line", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, list := range [][]metricDef{endToEnd, perLayer, ledgerOnly} {
		for _, m := range list {
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range append(append([]metricDef(nil), perLayer...), ledgerOnly...) {
		check("per-layer", m.Name)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}

// BENCHMARK.json at the repository root is the catalogue, printed.
func TestManifestMatchesCatalogue(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	if want := manifestJSON(); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate with\n  go run -C bench ./vtperf -print-manifest > BENCHMARK.json")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}
}

func TestEveryGoldenSetIsCommitted(t *testing.T) {
	dir := filepath.Join("..", "golden")
	for _, w := range workloads {
		g, err := loadGolden(dir, w.Set.Name)
		if err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
			continue
		}
		if w.Sampled {
			if _, err := g.exactCycles(); err != nil {
				t.Errorf("workload %s: %v", w.Name, err)
			}
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	off.end(off.begin("nothing")) // a nil recorder records nothing and does not panic
	if off.selfTimes() != nil {
		t.Error("nil recorder has self times")
	}
	r := newRecorder()
	run := r.begin("run")
	w := r.begin("workload", "name", "x")
	p := r.begin("pass")
	r.begin("sweep") // left open: closed with its parent
	r.end(p)
	r.end(w)
	probe := r.begin("probe")
	r.end(probe)
	r.end(run)
	want := []struct {
		name   string
		parent int
	}{{"run", 0}, {"workload", 1}, {"pass", 2}, {"sweep", 3}, {"probe", 1}}
	if len(r.spans) != len(want) || len(r.open) != 0 {
		t.Fatalf("spans = %+v, open = %v", r.spans, r.open)
	}
	for i, s := range r.spans {
		if s.Name != want[i].name || s.Parent != want[i].parent || s.DurNs < 0 {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
	}
	if r.spans[1].Attrs["name"] != "x" {
		t.Errorf("attrs = %v", r.spans[1].Attrs)
	}
	self := r.selfTimes()
	var total float64
	for _, v := range self {
		total += v
	}
	if !near(total, float64(r.spans[0].DurNs)/1e9) {
		t.Errorf("self times sum to %v, run lasted %v", total, float64(r.spans[0].DurNs)/1e9)
	}
}
