package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sweepobs"
	"repro/internal/testsupport"
)

// TestMonitorHandler exercises the live-monitor endpoint end to end: run
// a small sweep, then check /status serves coherent JSON without fleet
// keys and / serves the self-refreshing HTML page.
func TestMonitorHandler(t *testing.T) {
	p := inSweep(t, DefaultParams())
	p.Config = testsupport.Small()
	p.Dilute = 60
	if _, err := runMany(p, policyJobs([]string{"bfs"},
		[]config.Policy{config.PolicyBaseline, config.PolicyVT})); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(p.Sweep.Monitor.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/status Content-Type = %q", ct)
	}
	var st MonitorStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/status is not valid JSON: %v", err)
	}
	if st.SchemaVersion != MonitorSchemaVersion {
		t.Errorf("schemaVersion = %d, want %d", st.SchemaVersion, MonitorSchemaVersion)
	}
	if st.Metrics.Executed < 2 {
		t.Errorf("metrics.executed = %d, want >= 2", st.Metrics.Executed)
	}
	if st.FleetStatus != nil {
		t.Errorf("a local sweep reports a fleet: %+v", st.FleetStatus)
	}
	if len(st.Active) != 0 {
		t.Errorf("no jobs should be active after the sweep: %+v", st.Active)
	}

	resp, err = http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{"http-equiv=\"refresh\"", "<h1>sweep</h1>", "/status"} {
		if !strings.Contains(page, want) {
			t.Errorf("monitor page missing %q", want)
		}
	}

	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", resp.StatusCode)
	}
}

// TestMonitorWindowedRate is the resume-staleness regression: the
// reported simcycles/s must reflect *recently finished* work, so a
// monitor that stops executing (e.g. a re-run serving cache hits)
// decays to zero instead of holding the stale lifetime average.
func TestMonitorWindowedRate(t *testing.T) {
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	m := NewSweep().Monitor
	m.now = func() time.Time { return now }

	m.beginJob("fp", Job{Workload: "bfs", Variant: "vt"})
	now = now.Add(10 * time.Second)
	m.noteFinished(5000)
	m.endJob("fp")

	st := m.Status()
	if st.UptimeSeconds != 10 {
		t.Fatalf("uptime = %v, want 10", st.UptimeSeconds)
	}
	// Uptime is younger than the window, so the rate divides by uptime.
	if st.SimCyclesPerSec != 500 {
		t.Errorf("windowed rate = %v, want 500", st.SimCyclesPerSec)
	}

	// Two idle minutes later (all cache hits, nothing executed): the
	// windowed rate must read 0 — the old cumulative average kept
	// reporting a stale positive rate here.
	now = now.Add(2 * time.Minute)
	st = m.Status()
	if st.SimCyclesPerSec != 0 {
		t.Errorf("windowed rate after idle window = %v, want 0", st.SimCyclesPerSec)
	}

	// New completions re-populate the window at the windowed divisor.
	m.noteFinished(monitorRateWindow.Nanoseconds()) // value irrelevant, just non-zero
	st = m.Status()
	if st.SimCyclesPerSec <= 0 {
		t.Errorf("windowed rate after fresh completion = %v, want > 0", st.SimCyclesPerSec)
	}
}

// TestMonitorInjectedIsolation pins the per-sweep monitor: a sweep
// reports to its own Monitor, and another sweep's work never reaches it —
// there is no process-wide monitor for it to leak into.
func TestMonitorInjectedIsolation(t *testing.T) {
	jobs := policyJobs([]string{"bfs"}, []config.Policy{config.PolicyBaseline})
	p := forkTestParams(t)
	mon := p.Sweep.Monitor
	if _, err := runMany(p, jobs); err != nil {
		t.Fatal(err)
	}
	st := mon.Status()
	if st.UptimeSeconds <= 0 || st.SimCyclesPerSec <= 0 {
		t.Errorf("injected monitor saw no work: uptime=%v rate=%v",
			st.UptimeSeconds, st.SimCyclesPerSec)
	}
	seen := len(mon.recent)

	other := forkTestParams(t) // its own empty memo, so this sweep executes too
	if _, err := runMany(other, jobs); err != nil {
		t.Fatal(err)
	}
	if n := other.Sweep.Metrics().Executed; n != 1 {
		t.Fatalf("the other sweep executed %d runs, want 1", n)
	}
	if got := len(other.Sweep.Monitor.recent); got != 1 {
		t.Errorf("the other sweep's monitor saw %d completions, want its 1", got)
	}
	if got := len(mon.recent); got != seen {
		t.Errorf("another sweep leaked into this sweep's monitor: %d completions, was %d", got, seen)
	}
}

// TestMonitorConcurrentScrape hammers begin/end/finish bookkeeping from
// several goroutines while others scrape Status and /metrics — the race
// detector is the real assertion.
func TestMonitorConcurrentScrape(t *testing.T) {
	sw := NewSweep()
	sw.Trace = sweepobs.New()
	m := sw.Monitor
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Every goroutine runs its own points under one shared label.
				fp := fmt.Sprintf("g%d-%d", g, i)
				m.beginJob(fp, Job{Workload: "w", Variant: "v"})
				m.noteFinished(10)
				m.endJob(fp)
			}
		}(g)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.Status()
				var b strings.Builder
				if err := m.WriteMetrics(&b); err != nil {
					t.Error(err)
					return
				}
				if _, err := testsupport.ValidateExposition(b.String()); err != nil {
					t.Errorf("mid-sweep scrape invalid: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := m.Status()
	if len(st.Active) != 0 {
		t.Errorf("%d jobs still active after the storm", len(st.Active))
	}
	if st.SimCyclesPerSec <= 0 {
		t.Errorf("windowed rate = %v after %d completions", st.SimCyclesPerSec, 4*200)
	}
}

// TestMonitorMetricsEndpoint runs a traced sweep against an injected
// monitor and checks the /metrics exposition (through the independent
// parser), the per-kind span histogram in it, and that the pprof
// endpoints answer on the same mux.
func TestMonitorMetricsEndpoint(t *testing.T) {
	p := inSweep(t, DefaultParams())
	p.Config = testsupport.Small()
	p.Dilute = 60
	p.Sweep.Trace = sweepobs.New()
	mon := p.Sweep.Monitor
	if _, err := runMany(p, policyJobs([]string{"bfs"},
		[]config.Policy{config.PolicyBaseline, config.PolicyVT})); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := testsupport.ValidateExposition(string(body))
	if err != nil {
		t.Fatalf("/metrics exposition invalid: %v\n%s", err, body)
	}
	if samples["vtsweep_runs_executed_total"] < 2 {
		t.Errorf("vtsweep_runs_executed_total = %v, want >= 2", samples["vtsweep_runs_executed_total"])
	}
	for _, series := range []string{
		`vtsweep_span_seconds_count{kind="job"}`,
		`vtsweep_span_seconds_count{kind="execute"}`,
	} {
		if samples[series] < 2 {
			t.Errorf("%s = %v, want >= 2", series, samples[series])
		}
	}
	if sec := samples[`vtsweep_span_seconds_sum{kind="execute"}`]; sec <= 0 {
		t.Errorf("execute spans total %v s, want > 0", sec)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, resp.StatusCode)
		}
	}
}
