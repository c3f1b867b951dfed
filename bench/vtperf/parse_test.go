package main

import (
	"strings"
	"testing"
)

func TestParseBenchReport(t *testing.T) {
	// Unknown fields are ignored and omitempty fields read as zero.
	in := `{"schema_version":9,"total_wall_seconds":1.5,"runs_requested":590,"runs_executed":286,
	 "cache_hits":304,"sim_cycles":1598949,"store_misses":286,"new_field":{"x":1},
	 "experiments":[{"id":"fig-tlp","wall_seconds":0.5,"runs_requested":66,"runs_executed":66},
	                {"id":"fig-multikernel","wall_seconds":0.2,"runs_requested":0}]}`
	r, err := parseBenchReport([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalWallSec != 1.5 || r.RunsRequested != 590 || r.RunsExecuted != 286 || r.CacheHits != 304 ||
		r.SimCycles != 1598949 || r.StoreMisses != 286 || r.StoreHits != 0 || r.RunsFailed != 0 {
		t.Errorf("report = %+v", r)
	}
	if len(r.Experiments) != 2 || r.Experiments[0].ID != "fig-tlp" || r.Experiments[1].RunsRequested != 0 {
		t.Errorf("experiments = %+v", r.Experiments)
	}
	if _, err := parseBenchReport([]byte("{")); err == nil {
		t.Error("truncated JSON parsed")
	}
}

func TestParseJournal(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		want    []string // job cycles status
		wantErr bool
	}{
		{"header only", `{"meta":{"version":1,"scale":1}}` + "\n", nil, false},
		{"entries", `{"meta":{"version":1}}
{"fp":"a","workload":"bfs","variant":"vt","status":"ok","attempts":1,"cycles":10,"time":"t"}

{"fp":"b","workload":"nw","variant":"lat8","status":"failed","attempts":2,"error":"boom","time":"t"}
`, []string{"bfs/vt 10 ok", "nw/lat8 0 failed"}, false},
		{"at-least-once append keeps the last line per fp", `{"fp":"a","workload":"bfs","variant":"vt","status":"failed"}
{"fp":"b","workload":"nw","variant":"vt","status":"ok","cycles":5}
{"fp":"a","workload":"bfs","variant":"vt","status":"ok","cycles":10,"error_bound":0.02}
`, []string{"bfs/vt 10 ok", "nw/vt 5 ok"}, false},
		{"torn line", `{"fp":"a","workload":"bfs"` + "\n", nil, true},
	}
	for _, c := range cases {
		got, err := parseJournal(strings.NewReader(c.in))
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v", c.name, err)
			continue
		}
		var lines []string
		for _, e := range got {
			lines = append(lines, e.job()+" "+itoa(e.Cycles)+" "+e.Status)
		}
		if strings.Join(lines, "|") != strings.Join(c.want, "|") {
			t.Errorf("%s: got %v, want %v", c.name, lines, c.want)
		}
	}
}

func itoa(n int64) string {
	b, _ := cycleLines([]journalEntry{{Cycles: n}})
	return strings.TrimPrefix(b[0], "/ ")
}

const traceFixture = `{"schema_version":1,"wall_ns":1000,"workers":2,"spans":[
 {"id":1,"kind":"experiment","workload":"fig-x","slot":-1,"start_ns":100,"dur_ns":800},
 {"id":2,"parent":1,"kind":"job","workload":"bfs","variant":"vt","slot":0,"start_ns":100,"dur_ns":500},
 {"id":3,"parent":1,"kind":"job","workload":"nw","variant":"vt","slot":1,"start_ns":200,"dur_ns":600},
 {"id":4,"parent":2,"kind":"store.get","start_ns":100,"dur_ns":50,"attrs":{"outcome":"miss"}},
 {"id":5,"parent":2,"kind":"execute","start_ns":150,"dur_ns":300},
 {"id":6,"parent":3,"kind":"store.get","start_ns":200,"dur_ns":20,"attrs":{"outcome":"hit"}},
 {"id":7,"parent":3,"kind":"mystery.stage","start_ns":300,"dur_ns":400}
]}`

func TestStagesByKind(t *testing.T) {
	d, err := parseSweepTrace([]byte(traceFixture))
	if err != nil {
		t.Fatal(err)
	}
	by, covered := stages(d)
	if covered != 800 {
		t.Errorf("covered = %d, want 800 (the experiment span)", covered)
	}
	want := map[string][3]int64{ // count, total, self
		"experiment":    {1, 800, 100}, // children cover 100..800
		"job":           {2, 1100, 150 + 180},
		"store.get":     {2, 70, 70},
		"execute":       {1, 300, 300},
		"mystery.stage": {1, 400, 400}, // unknown kinds aggregate under their own name
	}
	if len(by) != len(want) {
		t.Errorf("kinds = %d, want %d", len(by), len(want))
	}
	for k, w := range want {
		st := by[k]
		if st == nil {
			t.Errorf("kind %s missing", k)
			continue
		}
		if int64(st.Count) != w[0] || st.TotalNs != w[1] || st.SelfNs != w[2] {
			t.Errorf("%s = count %d total %d self %d, want %v", k, st.Count, st.TotalNs, st.SelfNs, w)
		}
	}
	if got := spanMs(&d, "store.get", "outcome", "hit"); len(got) != 1 || got[0] != 20e-6 {
		t.Errorf("hit spans = %v", got)
	}
	if got := spanMs(&d, "fabric.dispatch", "", ""); got != nil {
		t.Errorf("absent kind gave %v", got)
	}
	sum := spanSummaries(&d)
	if j := sum["job"]; j.N != 2 || !near(j.Median, 550e-6) || j.TailP != 0 || len(sum) != 5 {
		t.Errorf("span summaries = %+v", sum)
	}
}

func TestUnionLen(t *testing.T) {
	cases := []struct {
		iv   []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {5, 15}}, 15},
		{[]interval{{20, 30}, {0, 10}}, 20},
		{[]interval{{0, 10}, {2, 3}, {10, 12}}, 12},
	}
	for _, c := range cases {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

// Absent span kinds yield absent metrics, never an error; unknown kinds
// are reported under their own name.
func TestTraceMetricsAbsentAndUnknownKinds(t *testing.T) {
	d, _ := parseSweepTrace([]byte(traceFixture))
	traced := &passResult{WallS: 1e-6, dump: &d, dumpKB: 1}
	m := traceMetrics(workload{}, traced, &passResult{WallS: 1e-6}, verdict{})
	for _, absent := range []string{"resultstore.tx_ms_p50", "resultstore.tx_total_s", "fabric.dispatch_total_s", "harness.job_ms_p90", "fabric.startup_ms"} {
		if _, ok := m[absent]; ok {
			t.Errorf("%s reported without spans of its kind", absent)
		}
	}
	if v := m["stage.mystery.stage.total_s"]; v.Value != 400e-9 {
		t.Errorf("unknown kind total = %+v", v)
	}
	if v := m["resultstore.get_hit_us_p50"]; v.Value != 0.02 || v.Unit != "us" {
		t.Errorf("get hit p50 = %+v", v)
	}
	if v := m["harness.untraced_share"]; !near(v.Value, 0.2) {
		t.Errorf("untraced share = %+v, want 0.2", v)
	}
}

func TestTraceMetricsFromExposition(t *testing.T) {
	prom, err := parsePromText(strings.NewReader(`# HELP vtsweep_spans_total spans
# TYPE vtsweep_spans_total counter
vtsweep_spans_total{kind="fabric.dispatch"} 48
vtsweep_span_seconds_bucket{kind="fabric.dispatch",le="+Inf"} 48
vtsweep_span_seconds_sum{kind="fabric.dispatch"} 68.125
vtsweep_span_seconds_count{kind="fabric.dispatch"} 48
vtsweep_span_seconds_sum{kind="store.tx"} 0.5
vtsweep_span_seconds_count{kind="store.tx"} 48
vtsweep_uptime_seconds 2.5
`))
	if err != nil {
		t.Fatal(err)
	}
	if prom[`vtsweep_uptime_seconds`] != 2.5 || prom[`vtsweep_spans_total{kind="fabric.dispatch"}`] != 48 {
		t.Errorf("prom = %v", prom)
	}
	tables := "total wall time: 2s\nfleet: 2 workers, 48 completions (1 duplicate), leases 49 granted / 0 renewed / 1 expired / 0 released\n"
	traced := &passResult{WallS: 3, prom: prom, tables: tables, StartupMs: 12, LingerMs: 1500}
	m := traceMetrics(workload{Fleet: true}, traced, &passResult{WallS: 3}, verdict{})
	for name, want := range map[string]float64{
		"fabric.dispatch_total_s": 68.125, "resultstore.tx_total_s": 0.5, "sweepobs.spans": 96,
		"fabric.leases_granted": 49, "fabric.leases_expired": 1, "fabric.dup_completions": 1,
		"fabric.startup_ms": 12, "fabric.linger_ms": 1500,
	} {
		if got, ok := m[name]; !ok || got.Value != want {
			t.Errorf("%s = %+v (present %v), want %v", name, got, ok, want)
		}
	}
	if _, ok := m["resultstore.tx_ms_p50"]; ok {
		t.Error("a percentile from an exposition that carries only sums")
	}
	if _, err := parsePromText(strings.NewReader("novalue\n")); err == nil {
		t.Error("line without a value parsed")
	}
}

func TestParseGoBench(t *testing.T) {
	out := `goos: linux
pkg: repro
BenchmarkSIMTStackDivergence-2   	  611196	       390.7 ns/op
BenchmarkCacheAccess             	 7048508	        33.28 ns/op
BenchmarkSimulationCyclesPerSecond-8   10   98765432 ns/op   216000 simcycles/s   5964352 B/op   6880 allocs/op
BenchmarkBroken-2   notanumber
PASS
ok  	repro	1.082s
`
	got := parseGoBench(out)
	want := map[string]float64{"SIMTStackDivergence": 390.7, "CacheAccess": 33.28, "SimulationCyclesPerSecond": 98765432}
	if len(got) != len(want) {
		t.Fatalf("parsed %v", got)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %v ns/op, want %v", name, got[name], ns)
		}
	}
	if _, ok := got["EventQueue"]; ok {
		t.Error("a benchmark that did not run is present")
	}
}

func TestParseFleetLine(t *testing.T) {
	if _, ok := parseFleetLine("total wall time: 1s\n"); ok {
		t.Error("fleet line found in single-process output")
	}
	fc, ok := parseFleetLine("x\nfleet: 2 workers, 48 completions (0 duplicate), leases 48 granted / 3 renewed / 0 expired / 1 released\n")
	if !ok || fc != (fleetCounts{Duplicates: 0, Granted: 48, Expired: 0}) {
		t.Errorf("fleet = %+v, %v", fc, ok)
	}
}

func TestSweepClosed(t *testing.T) {
	cases := map[string]bool{
		`{"schemaVersion":1,"sweepClosed":true}`:    true,
		"{\n  \"sweepClosed\": true,\n \"x\": 1\n}": true,
		`{"sweepClosed":false}`:                     false,
		`{"jobsPending":3}`:                         false,
		`not json`:                                  false,
	}
	for in, want := range cases {
		if got := sweepClosed([]byte(in)); got != want {
			t.Errorf("sweepClosed(%q) = %v", in, got)
		}
	}
}
