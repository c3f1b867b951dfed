package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadToleratesUnknownFields pins benchcheck's forward/backward
// compatibility: a report carrying fields this binary has never heard of
// (newer schema_version, telemetry aggregates) must still load, and the
// fields benchcheck gates on must come through intact. Old committed
// baselines likewise keep working as vtbench's -json document grows.
func TestLoadToleratesUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	doc := `{
		"schema_version": 99,
		"sim_cycles": 1000,
		"simcycles_per_sec": 2500.5,
		"telemetry_windows": 42,
		"telemetry_spans": 7,
		"some_future_field": {"nested": [1, 2, 3]}
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := load(path)
	if err != nil {
		t.Fatalf("unknown fields must not break loading: %v", err)
	}
	if r.SimCycles != 1000 || r.SimCyclesPerSec != 2500.5 {
		t.Fatalf("known fields mangled: %+v", r)
	}
}

// TestParseAllocs pins the -allocs parser against real `go test -bench
// -benchmem` shapes: a -GOMAXPROCS name suffix, custom metrics between
// ns/op and allocs/op, unrelated benchmarks on surrounding lines, and
// averaging across -count repetitions.
func TestParseAllocs(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro
cpu: Some CPU @ 2.10GHz
BenchmarkOther-8                 	     100	  12345 ns/op	     999 allocs/op
BenchmarkSimulationCyclesPerSecond 	       1	  90120507 ns/op	    202579 simcycles/s	 6077744 B/op	    7038 allocs/op
BenchmarkSimulationCyclesPerSecond-8 	       1	  90120507 ns/op	    202579 simcycles/s	 6077744 B/op	    7040 allocs/op
PASS
ok  	repro	0.095s
`
	got, err := parseAllocs(out, "BenchmarkSimulationCyclesPerSecond")
	if err != nil {
		t.Fatal(err)
	}
	if got != 7039 { // mean of 7038 and 7040
		t.Fatalf("parseAllocs = %v, want 7039", got)
	}
}

// TestParseAllocsMissing: output without -benchmem (no allocs/op column)
// or without the target benchmark must error rather than pass vacuously.
func TestParseAllocsMissing(t *testing.T) {
	noMem := "BenchmarkSimulationCyclesPerSecond \t 1 \t 90120507 ns/op\nPASS\n"
	if _, err := parseAllocs(noMem, "BenchmarkSimulationCyclesPerSecond"); err == nil {
		t.Fatal("output without allocs/op must error")
	}
	if _, err := parseAllocs("PASS\n", "BenchmarkSimulationCyclesPerSecond"); err == nil {
		t.Fatal("output without the benchmark must error")
	}
	// A benchmark whose name merely extends the target must not match.
	other := "BenchmarkSimulationCyclesPerSecondX-8 \t 1 \t 5 ns/op \t 3 allocs/op\n"
	if _, err := parseAllocs(other, "BenchmarkSimulationCyclesPerSecond"); err == nil {
		t.Fatal("prefix-extended benchmark name must not match")
	}
}

// TestCheckAllocs pins the gate arithmetic: growth at the ceiling passes,
// a hair beyond fails, and shrinkage always passes.
func TestCheckAllocs(t *testing.T) {
	if err := checkAllocs(10000, 11000, 0.10); err != nil {
		t.Fatalf("growth exactly at tolerance must pass: %v", err)
	}
	if err := checkAllocs(10000, 11001, 0.10); err == nil {
		t.Fatal("growth beyond tolerance must fail")
	}
	if err := checkAllocs(10000, 500, 0.10); err != nil {
		t.Fatalf("shrinkage must pass: %v", err)
	}
}

// TestLoadSimulationBenchmark: the -allocs baseline record nests under
// simulation_benchmark and must decode alongside the throughput fields.
func TestLoadSimulationBenchmark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	doc := `{
		"sim_cycles": 5,
		"simcycles_per_sec": 10.0,
		"simulation_benchmark": {"current_allocs_per_run": 6878}
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.SimulationBenchmark.CurrentAllocsPerRun != 6878 {
		t.Fatalf("simulation_benchmark mangled: %+v", r.SimulationBenchmark)
	}
}

// TestSchemaV5StoreFieldsTolerated pins the satellite contract of the
// result-store migration: a schema_version 5 report carrying the new
// store counters (store_hits/store_misses/store_repairs/store_retries)
// gates cleanly against a v4 baseline that has never heard of them, and
// a v4 report checks against a v5 baseline — the counters are additive
// and the gated fields keep their meaning.
func TestSchemaV5StoreFieldsTolerated(t *testing.T) {
	dir := t.TempDir()
	v5 := filepath.Join(dir, "v5.json")
	v4 := filepath.Join(dir, "v4.json")
	v5doc := `{
		"schema_version": 5,
		"sim_cycles": 1000,
		"simcycles_per_sec": 990.0,
		"store_hits": 12,
		"store_misses": 3,
		"store_repairs": 1,
		"store_retries": 2
	}`
	v4doc := `{
		"schema_version": 4,
		"sim_cycles": 1000,
		"simcycles_per_sec": 1000.0
	}`
	if err := os.WriteFile(v5, []byte(v5doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v4, []byte(v4doc), 0o644); err != nil {
		t.Fatal(err)
	}
	newer, err := load(v5)
	if err != nil {
		t.Fatalf("v5 report with store counters must load: %v", err)
	}
	older, err := load(v4)
	if err != nil {
		t.Fatal(err)
	}
	if newer.SimCycles != 1000 || newer.SimCyclesPerSec != 990.0 {
		t.Fatalf("gated fields mangled by the v5 additions: %+v", newer)
	}
	var out strings.Builder
	if err := checkThroughput(&out, older, newer, 0.30); err != nil {
		t.Fatalf("v5 current against v4 baseline must gate on throughput alone: %v", err)
	}
	if err := checkThroughput(&out, newer, older, 0.30); err != nil {
		t.Fatalf("v4 current against v5 baseline must gate on throughput alone: %v", err)
	}
}

// TestMultiWorkerRecordAgainstSingleProcess pins the sweep-fabric
// contract: a vtsweepd coordinator record (workers > 1, fleet-aggregate
// simcycles_per_sec) gates against a single-process baseline on the
// aggregate rate — a 4-worker fleet near 4x the baseline passes, a
// fleet that somehow aggregates below the single-process floor fails —
// and the differing fleet sizes are surfaced with a per-worker rate.
func TestMultiWorkerRecordAgainstSingleProcess(t *testing.T) {
	single := report{
		SimCycles:       1_000_000,
		SimCyclesPerSec: 1000,
		Workers:         1,
	}
	fleet := report{
		SimCycles:       1_000_000,
		SimCyclesPerSec: 3600, // 4 workers, ~3.6x aggregate
		Workers:         4,
	}
	var out strings.Builder
	if err := checkThroughput(&out, single, fleet, 0.30); err != nil {
		t.Fatalf("fleet aggregate above the baseline must pass: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "fleet size 1 -> 4") {
		t.Fatalf("fleet-size change not surfaced:\n%s", s)
	}
	if !strings.Contains(s, "per-worker") {
		t.Fatalf("per-worker rate not surfaced:\n%s", s)
	}

	// The reverse comparison gates too: against a committed 4-worker
	// baseline, a fleet whose aggregate collapsed fails the tolerance.
	slowFleet := fleet
	slowFleet.SimCyclesPerSec = 2000 // 0.56x of the 3600 baseline
	if err := checkThroughput(&out, fleet, slowFleet, 0.30); err == nil {
		t.Fatal("aggregate regression within a fleet must fail")
	}

	// Same fleet size on both sides: no fleet-size note, plain gating.
	out.Reset()
	if err := checkThroughput(&out, fleet, fleet, 0.30); err != nil {
		t.Fatalf("identical fleet records must pass: %v", err)
	}
	if strings.Contains(out.String(), "fleet size") {
		t.Fatalf("fleet-size note printed for identical sizes:\n%s", out.String())
	}
}

// TestWorkersFieldDecodes: the workers field populates from vtbench and
// vtsweepd reports, and its absence (old records) decodes to zero,
// which suppresses the fleet comparison rather than dividing by it.
func TestWorkersFieldDecodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	doc := `{"schema_version": 5, "sim_cycles": 10, "simcycles_per_sec": 5.0, "workers": 4}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers != 4 {
		t.Fatalf("workers = %d, want 4", r.Workers)
	}
	old := report{SimCycles: 10, SimCyclesPerSec: 5, Workers: 0}
	var out strings.Builder
	if err := checkThroughput(&out, old, r, 0.30); err != nil {
		t.Fatalf("worker-less baseline against fleet record: %v", err)
	}
	if strings.Contains(out.String(), "fleet size") {
		t.Fatalf("fleet note printed despite zero-worker baseline:\n%s", out.String())
	}
}

// TestLoadMissingFields: an old baseline lacking fields decodes to
// zeros, which main() then rejects explicitly rather than dividing by
// zero — check the decode half here.
func TestLoadMissingFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"date": "2025-01-01"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.SimCycles != 0 || r.SimCyclesPerSec != 0 {
		t.Fatalf("missing fields must decode to zero: %+v", r)
	}
}
