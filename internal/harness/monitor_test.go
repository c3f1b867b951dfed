package harness

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
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

// testClock is a settable clock for a tracer (sweepobs.NewClock), safe
// for the sweep's goroutines to read.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestMonitorWindowedRate is the resume-staleness regression: the
// reported simcycles/s must reflect *recently finished* work, so a
// monitor that stops executing (e.g. a re-run serving cache hits)
// decays to zero instead of holding the stale lifetime average. The
// rate is read from the job spans on the tracer's clock.
func TestMonitorWindowedRate(t *testing.T) {
	clk := newTestClock()
	sw := NewSweep()
	sw.Trace = sweepobs.NewClock(clk.now)
	m, tr := sw.Monitor, sw.Trace
	finish := func(cycles int64) {
		jid := tr.BeginJob(0, "bfs", "vt")
		tr.SetAttr(jid, simCyclesAttr, strconv.FormatInt(cycles, 10))
		tr.EndJob(jid)
	}

	jid := tr.BeginJob(0, "bfs", "vt")
	clk.advance(10 * time.Second)
	tr.SetAttr(jid, simCyclesAttr, "5000")
	tr.EndJob(jid)

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
	clk.advance(2 * time.Minute)
	st = m.Status()
	if st.SimCyclesPerSec != 0 {
		t.Errorf("windowed rate after idle window = %v, want 0", st.SimCyclesPerSec)
	}

	// New completions re-populate the window at the windowed divisor.
	finish(monitorRateWindow.Nanoseconds()) // value irrelevant, just non-zero
	st = m.Status()
	if st.SimCyclesPerSec <= 0 {
		t.Errorf("windowed rate after fresh completion = %v, want > 0", st.SimCyclesPerSec)
	}
}

// TestMonitorInjectedIsolation pins the per-sweep monitor: a sweep's
// Monitor reads its own sweep's counters and tracer, and another sweep's
// work never reaches it — there is no process-wide state for it to leak
// into. Both tracers read one clock, so each rate is exact.
func TestMonitorInjectedIsolation(t *testing.T) {
	jobs := policyJobs([]string{"bfs"}, []config.Policy{config.PolicyBaseline})
	clk := newTestClock()
	p := forkTestParams(t)
	p.Sweep.Trace = sweepobs.NewClock(clk.now)
	mon := p.Sweep.Monitor
	if _, err := runMany(p, jobs); err != nil {
		t.Fatal(err)
	}
	clk.advance(10 * time.Second)
	st := mon.Status()
	if st.UptimeSeconds != 10 || st.SimCyclesPerSec <= 0 {
		t.Errorf("injected monitor saw no work: uptime=%v rate=%v",
			st.UptimeSeconds, st.SimCyclesPerSec)
	}
	mine := float64(p.Sweep.Metrics().SimCycles)
	if st.SimCyclesPerSec != mine/10 {
		t.Errorf("rate = %v, want this sweep's %v cycles over 10 s", st.SimCyclesPerSec, mine)
	}

	other := forkTestParams(t) // its own empty memo, so this sweep executes too
	other.Sweep.Trace = sweepobs.NewClock(clk.now)
	if _, err := runMany(other, jobs); err != nil {
		t.Fatal(err)
	}
	if n := other.Sweep.Metrics().Executed; n != 1 {
		t.Fatalf("the other sweep executed %d runs, want 1", n)
	}
	clk.advance(5 * time.Second)
	theirs := float64(other.Sweep.Metrics().SimCycles)
	if got := other.Sweep.Monitor.Status().SimCyclesPerSec; got != theirs/5 {
		t.Errorf("the other sweep's monitor reads %v cycles/s, want its 1 completion's %v cycles over 5 s", got, theirs)
	}
	if got := mon.Status().SimCyclesPerSec; got != mine/15 {
		t.Errorf("another sweep leaked into this sweep's monitor: %v cycles/s, want %v over 15 s", got, mine)
	}
}

// TestMonitorConcurrentScrape hammers job spans from several goroutines
// while others scrape Status and /metrics — the race detector is the
// real assertion.
func TestMonitorConcurrentScrape(t *testing.T) {
	sw := NewSweep()
	sw.Trace = sweepobs.New()
	m, tr := sw.Monitor, sw.Trace
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Every goroutine runs its own jobs under one shared label.
				jid := tr.BeginJob(0, "w", "v")
				tr.SetAttr(jid, simCyclesAttr, "10")
				tr.EndJob(jid)
			}
		}()
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

// TestMonitorMetricsNames holds /metrics to the naming rule, read off
// the /status JSON: every numeric or boolean leaf of Status() — every
// RunMetrics counter set non-zero, a fleet with one worker row, and an
// active job — is a series named vtsweep_<key> (vtfabric_<key> for the
// fleet's keys, snake_case), _total when it is a counter, with the
// leaf's value; a list is a gauge of its length, and the worker rows are
// vtfabric_worker_<key>{worker="<id>"}. The /status key set is pinned
// too, since the names derive from it.
func TestMonitorMetricsNames(t *testing.T) {
	clk := newTestClock() // held still, so Status and /metrics read one instant
	sw := NewSweep()
	sw.Trace = sweepobs.NewClock(clk.now)
	sw.count(func(m *RunMetrics) {
		v := reflect.ValueOf(m).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(100 + i))
			case reflect.Float64:
				f.SetFloat(0.25 + float64(i))
			}
		}
	})
	sw.Monitor.Fleet = func() *FleetStatus {
		return &FleetStatus{SweepClosed: true, JobsPending: 1, JobsLeased: 2, JobsDone: 3, LeasesParked: 4,
			LeasesGranted: 5, LeasesRenewed: 6, LeasesExpired: 7, LeasesReleased: 8, Completions: 9, DuplicateCompletions: 10,
			Workers: []WorkerStatus{{ID: `w"1`, Slots: 2, Active: 1, LastSeen: 0.5, Completions: 11, SimCycles: 12}}}
	}
	sw.Trace.BeginJob(0, "bfs", "vt") // left open: one active job
	clk.advance(3 * time.Second)

	st := sw.Monitor.Status()
	var b strings.Builder
	if err := sw.Monitor.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := testsupport.ValidateExposition(b.String())
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, b.String())
	}

	var doc, fleet, metrics map[string]any
	decode := func(v any, into *map[string]any) {
		t.Helper()
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatal(err)
		}
	}
	decode(st, &doc)
	decode(st.FleetStatus, &fleet)
	decode(st.Metrics, &metrics)
	keys := func(m map[string]any) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	if got, want := strings.Join(keys(doc), " "),
		"active completions duplicateCompletions jobsDone jobsLeased jobsPending leasesExpired leasesGranted "+
			"leasesParked leasesReleased leasesRenewed metrics schemaVersion simCyclesPerSec sweepClosed "+
			"uptimeSeconds workers"; got != want {
		t.Errorf("/status keys = %s\nwant %s", got, want)
	}
	if got, want := strings.Join(keys(metrics), " "),
		"cache_hits checkpoint_hits checkpoint_misses checkpoints_captured deadlines extrapolated_cycles "+
			"functional_instrs invariant_trips max_error_bound panics prefix_cycles_saved runs_executed "+
			"runs_failed runs_requested sampled_runs sampled_spans sim_cycles store_hits store_misses "+
			"store_repairs store_retries"; got != want {
		t.Errorf("/status metrics keys = %s\nwant %s", got, want)
	}

	// check finds the leaf's series: name as a gauge, or name_total as a
	// counter, holding value.
	seen := map[string]bool{}
	check := func(name, labels string, value float64) {
		t.Helper()
		for _, n := range []string{name, name + "_total"} {
			if got, ok := samples[n+labels]; ok {
				seen[n] = true
				if got != value {
					t.Errorf("%s%s = %v, /status says %v", n, labels, got, value)
				}
				return
			}
		}
		t.Errorf("/metrics has no %s%s (or _total) for its /status leaf", name, labels)
	}
	leaf := func(ns, key string, v any) {
		switch x := v.(type) {
		case float64:
			check(ns+"_"+snake(key), "", x)
		case bool:
			want := 0.0
			if x {
				want = 1
			}
			check(ns+"_"+snake(key), "", want)
		case []any:
			check(ns+"_"+snake(key), "", float64(len(x)))
		}
	}
	for k, v := range doc {
		ns := "vtsweep"
		if _, ok := fleet[k]; ok {
			ns = "vtfabric"
		}
		leaf(ns, k, v)
	}
	for k, v := range metrics {
		leaf("vtsweep", k, v)
	}
	for _, row := range doc["workers"].([]any) {
		r := row.(map[string]any)
		for k, v := range r {
			if x, ok := v.(float64); ok {
				check("vtfabric_worker_"+snake(k), sweepobs.Label("worker", r["id"].(string)), x)
			}
		}
	}
	for _, name := range []string{
		"vtsweep_sampled_runs_total", "vtsweep_sampled_spans_total", "vtsweep_extrapolated_cycles_total",
		"vtsweep_functional_instrs_total", "vtsweep_max_error_bound", "vtsweep_uptime_seconds",
		"vtsweep_cache_hits_total", "vtsweep_runs_failed_total", "vtfabric_leases_granted_total",
		"vtfabric_jobs_pending", "vtfabric_worker_active", "vtfabric_worker_sim_cycles_total",
	} {
		if !seen[name] {
			t.Errorf("%s is not on /metrics", name)
		}
	}
}

// TestMonitorSpanSecondsMatchDump builds a traced sweep and holds each
// kind's vtsweep_span_seconds_count and _sum to the number and total
// seconds of that kind's closed spans in the tracer's dump: the
// histogram is the span tree, rendered at scrape time.
func TestMonitorSpanSecondsMatchDump(t *testing.T) {
	p := inSweep(t, DefaultParams())
	p.Config = testsupport.Small()
	p.Dilute = 60
	p.Sweep.Trace = sweepobs.New()
	if _, err := runMany(p, policyJobs([]string{"bfs", "nw"},
		[]config.Policy{config.PolicyBaseline, config.PolicyVT})); err != nil {
		t.Fatal(err)
	}
	open := p.Sweep.Trace.Begin(0, "experiment", "", "") // an open span counts for nothing
	defer p.Sweep.Trace.End(open)
	var b strings.Builder
	if err := p.Sweep.Monitor.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := testsupport.ValidateExposition(b.String())
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	count, total := map[string]float64{}, map[string]float64{}
	for _, sp := range p.Sweep.Trace.Dump().Spans {
		if sp.Attrs["open"] == "true" {
			continue
		}
		count[sp.Kind]++
		total[sp.Kind] += float64(sp.DurNS) / 1e9
	}
	if count["job"] != 4 || count["execute"] != 4 {
		t.Fatalf("dump holds %v job and %v execute spans, want 4 each", count["job"], count["execute"])
	}
	for kind := range count {
		l := sweepobs.Label("kind", kind)
		if got := samples["vtsweep_span_seconds_count"+l]; got != count[kind] {
			t.Errorf("%s: _count %v, the dump closes %v spans", kind, got, count[kind])
		}
		if got := samples["vtsweep_span_seconds_sum"+l]; got != total[kind] {
			t.Errorf("%s: _sum %v, the dump's spans total %v s", kind, got, total[kind])
		}
	}
	for series := range samples {
		if kind, ok := strings.CutPrefix(series, `vtsweep_span_seconds_count{kind="`); ok {
			if kind = strings.TrimSuffix(kind, `"}`); count[kind] == 0 {
				t.Errorf("/metrics counts %q spans the dump does not close", kind)
			}
		}
	}
}

// gateExecutor stands in for the simulator: Execute reports the point
// it started on, waits until the test closes that workload's release
// channel, and commits a one-cycle result the way the local executor
// commits a run's.
type gateExecutor struct {
	started chan string
	release map[string]chan struct{}
}

func (x *gateExecutor) Execute(p Params, j Job, cfg config.GPUConfig, fp string) (Outcome, error) {
	x.started <- j.Workload
	<-x.release[j.Workload]
	res := &gpu.Result{Cycles: 1}
	out := Outcome{Entry: buildJournalEntry(j, CacheKey(fp), res, nil, ""), Result: res,
		Work: RunMetrics{Executed: 1, SimCycles: 1}}
	CommitOutcome(p, fp, out)
	return out, nil
}

// TestCacheHitsNeverFall: /status counts a cache hit where it happens —
// a request for a point already claimed, or a store answer — so
// metrics.cache_hits never falls while jobs are pending or running, and
// a finished sweep reads runs_requested - runs_executed as before.
func TestCacheHitsNeverFall(t *testing.T) {
	jobs := manyStubJobs(3)
	a, b, c := jobs[0], jobs[1], jobs[2]
	gate := &gateExecutor{started: make(chan string, len(jobs)), release: map[string]chan struct{}{}}
	for _, j := range jobs {
		gate.release[j.Workload] = make(chan struct{})
	}
	p := inSweep(t, Params{Workers: 2, Executor: gate, CacheDir: t.TempDir()})
	var srv *httptest.Server
	last := 0
	sample := func(when string) RunMetrics {
		t.Helper()
		resp, err := http.Get(srv.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st MonitorStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Metrics.CacheHits < last {
			t.Fatalf("cache_hits fell from %d to %d %s", last, st.Metrics.CacheHits, when)
		}
		last = st.Metrics.CacheHits
		return st.Metrics
	}
	finished := func(m RunMetrics, hits int) {
		t.Helper()
		if m.CacheHits != hits || m.CacheHits != m.Requests-m.Executed {
			t.Fatalf("finished sweep: %+v, want %d cache hits, runs_requested - runs_executed", m, hits)
		}
	}
	run := func(jobs ...Job) <-chan error {
		srv = httptest.NewServer(p.Sweep.Monitor.Handler())
		t.Cleanup(srv.Close)
		last = 0
		errc := make(chan error, 1)
		go func() {
			_, err := RunJobs(p, jobs)
			errc <- err
		}()
		return errc
	}

	// a and b run side by side; a's duplicate is claimed once a's slot
	// frees, while b still runs.
	errc := run(a, b, a)
	<-gate.started
	<-gate.started
	sample("with two jobs running")
	close(gate.release[a.Workload])
	for deadline := time.Now().Add(10 * time.Second); p.Sweep.Metrics().Requests != 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a's duplicate was never claimed")
		}
	}
	sample("after the duplicate's claim")
	close(gate.release[b.Workload])
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	finished(sample("at the end"), 1)

	// Over the same store, a and b are store hits while c runs.
	p = reboot(t, p)
	errc = run(a, b, c)
	<-gate.started
	sample("with c running")
	close(gate.release[c.Workload])
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	finished(sample("at the end of the rerun"), 2)
}
