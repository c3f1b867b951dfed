package harness

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"net/http"
	httppprof "net/http/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/sweepobs"
)

// Live sweep monitoring: the dispatch loop reports the start and finish
// of every job it runs (a point's first request) to a Monitor, whose
// Handler is the one HTTP observability surface of a
// sweep — vtbench -monitor serves it, and so does a vtsweepd coordinator
// beside its /v1 job API. It serves the current sweep state — active
// jobs, RunMetrics counters and, when a fleet is attached (Fleet), the
// coordinator's queue, lease and worker state — as JSON (/status),
// Prometheus text exposition (/metrics), a minimal self-refreshing HTML
// page (/), and the net/http/pprof profiling endpoints (/debug/pprof/).
// The monitor is passive bookkeeping: a map update per job, nothing on
// the simulation hot path.
//
// A Monitor belongs to one Sweep (NewMonitor) and serves that sweep's
// counters and trace; a sweep without one reports to nobody (the job
// hooks are nil-receiver no-ops, as with a nil *sweepobs.Tracer).

// MonitorSchemaVersion identifies the /status JSON layout. Version 3
// spelled the "metrics" object with RunMetrics' JSON keys (the -json
// record's: runs_requested, sim_cycles, ...); version 4 is the one
// document a local sweep and a fleet coordinator serve, with the fleet's
// keys (FleetStatus) top-level when one is attached.
const MonitorSchemaVersion = 4

// monitorRateWindow is the lookback for the windowed simcycles/s rate.
const monitorRateWindow = 60 * time.Second

// finishedJob is one executed run's completion, for the windowed rate.
type finishedJob struct {
	t      time.Time
	cycles int64
}

// Monitor tracks one sweep's live state. Safe for concurrent use; the
// zero value is not usable — construct with NewMonitor.
type Monitor struct {
	sweep   *Sweep
	mu      sync.Mutex
	now     func() time.Time // test seam
	started time.Time
	active  map[string]activeJob // running jobs by fingerprint
	recent  []finishedJob        // completions inside the rate window
	// hist holds the one series that cannot be rebuilt per scrape from
	// RunMetrics: the store's group-commit batch sizes.
	hist     *sweepobs.Registry
	batchTxs *sweepobs.Family

	// Fleet, when set, reports the sweep fabric coordinator's state, which
	// /status, /metrics and the page then carry. fabric.New sets it before
	// the monitor serves.
	Fleet func() *FleetStatus
}

// NewMonitor attaches an empty monitor to s: s's jobs report to it, and
// its endpoints serve s's counters and the stage totals and span metrics
// of s.Trace.
func NewMonitor(s *Sweep) *Monitor {
	m := &Monitor{sweep: s, now: time.Now, active: map[string]activeJob{}, hist: sweepobs.NewRegistry()}
	// Bounds: powers of two up to the write-behind window, which caps a
	// batch.
	m.batchTxs = m.hist.Histogram("vtsweep_store_batch_txs",
		"Transactions per result-store group-commit batch.", []float64{1, 2, 4, 8, 16, writeBehindWindow})
	s.Monitor = m
	return m
}

// activeJob is one running job: its label and start time. The monitor
// keys it by fingerprint, since two points may share a label (fig-kepler's
// runs carry fig-speedup's).
type activeJob struct {
	Job
	start time.Time
}

func (m *Monitor) beginJob(fp string, j Job) {
	if m == nil {
		return
	}
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started.IsZero() {
		m.started = now
	}
	m.active[fp] = activeJob{j, now}
}

func (m *Monitor) endJob(fp string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.active, fp)
}

// noteFinished records one executed run's simulated cycles at its
// completion time. Cache hits never call this, so the windowed rate
// reflects real simulation work — a resumed sweep that serves
// everything from the store reports ~0, not a stale cumulative
// average.
func (m *Monitor) noteFinished(cycles int64) {
	if m == nil {
		return
	}
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recent = append(m.recent, finishedJob{t: now, cycles: cycles})
	m.pruneLocked(now)
}

// noteStoreBatch records one group-commit batch of txs transactions.
func (m *Monitor) noteStoreBatch(txs int) {
	if m == nil {
		return
	}
	m.batchTxs.Observe(float64(txs))
}

// pruneLocked drops completions older than the rate window.
func (m *Monitor) pruneLocked(now time.Time) {
	cut := now.Add(-monitorRateWindow)
	i := 0
	for i < len(m.recent) && m.recent[i].t.Before(cut) {
		i++
	}
	if i > 0 {
		m.recent = append(m.recent[:0], m.recent[i:]...)
	}
}

// ActiveJob is one currently-running simulation in MonitorStatus.
type ActiveJob struct {
	Workload string  `json:"workload"`
	Variant  string  `json:"variant"`
	Seconds  float64 `json:"seconds"` // wall time since the job started
}

// FleetStatus is a sweep fabric coordinator's view of its queue, leases
// and workers.
type FleetStatus struct {
	SweepClosed bool `json:"sweepClosed"`

	JobsPending int `json:"jobsPending"`
	JobsLeased  int `json:"jobsLeased"`
	JobsDone    int `json:"jobsDone"`

	// LeasesParked is how many lease requests are waiting for a job
	// right now: the fleet's idle slots.
	LeasesParked int `json:"leasesParked"`

	LeasesGranted int64 `json:"leasesGranted"`
	// LeasesRenewed counts lease deadlines a worker's heartbeat extended:
	// one per lease the worker held at that heartbeat.
	LeasesRenewed  int64 `json:"leasesRenewed"`
	LeasesExpired  int64 `json:"leasesExpired"`
	LeasesReleased int64 `json:"leasesReleased"`

	Completions          int64 `json:"completions"`
	DuplicateCompletions int64 `json:"duplicateCompletions"`

	Workers []WorkerStatus `json:"workers"`
}

// WorkerStatus is one worker's row in FleetStatus. Every field is the
// coordinator's own record, not the worker's self-report.
type WorkerStatus struct {
	ID    string `json:"id"`
	Slots int    `json:"slots"`
	// Active counts the live leases the worker holds.
	Active      int     `json:"active"`
	LastSeen    float64 `json:"lastSeenSeconds"` // seconds since last contact
	Completions int     `json:"completions"`
	SimCycles   int64   `json:"simCycles"`
}

// MonitorStatus is the /status JSON document.
type MonitorStatus struct {
	SchemaVersion int         `json:"schemaVersion"`
	UptimeSeconds float64     `json:"uptimeSeconds"`
	Active        []ActiveJob `json:"active"`
	Metrics       RunMetrics  `json:"metrics"`
	// SimCyclesPerSec is the windowed rate: simulated cycles of runs
	// finishing within the last monitorRateWindow, over the window (or
	// the uptime while younger than the window). It reads ~0 when the
	// sweep is serving cache hits, so a resumed sweep does not report a
	// stale average. On a coordinator it is the fleet's rate.
	SimCyclesPerSec float64 `json:"simCyclesPerSec"`
	// *FleetStatus is present when a fleet is attached; its keys are
	// top-level.
	*FleetStatus
}

// Status snapshots the sweep for the monitor endpoints.
func (m *Monitor) Status() MonitorStatus {
	st := MonitorStatus{SchemaVersion: MonitorSchemaVersion, Metrics: m.sweep.Metrics()}
	now := m.now()
	m.mu.Lock()
	if !m.started.IsZero() {
		st.UptimeSeconds = now.Sub(m.started).Seconds()
	}
	for _, a := range m.active {
		st.Active = append(st.Active, ActiveJob{
			Workload: a.Workload,
			Variant:  a.Variant,
			Seconds:  now.Sub(a.start).Seconds(),
		})
	}
	m.pruneLocked(now)
	var windowCycles int64
	for _, f := range m.recent {
		windowCycles += f.cycles
	}
	m.mu.Unlock()

	sort.Slice(st.Active, func(a, b int) bool {
		if st.Active[a].Workload != st.Active[b].Workload {
			return st.Active[a].Workload < st.Active[b].Workload
		}
		return st.Active[a].Variant < st.Active[b].Variant
	})
	window := monitorRateWindow.Seconds()
	if st.UptimeSeconds > 0 && st.UptimeSeconds < window {
		window = st.UptimeSeconds
	}
	if window > 0 {
		st.SimCyclesPerSec = float64(windowCycles) / window
	}
	if m.Fleet != nil {
		st.FleetStatus = m.Fleet()
	}
	return st
}

// WriteMetrics renders the sweep state as Prometheus text exposition —
// what /metrics serves and vtbench -metricsdump writes: the RunMetrics
// counters and monitor gauges, rebuilt per scrape, with the fleet's
// vtfabric_* families when a fleet is attached; then the store
// batch-size histogram, and the tracer's span latency histograms when
// tracing is on. Metric families are disjoint between the registries, so
// the concatenation stays a valid exposition (no duplicate HELP/TYPE).
func (m *Monitor) WriteMetrics(w io.Writer) error {
	st := m.Status()
	mt := st.Metrics
	r := sweepobs.NewRegistry()
	counter := func(name, help string, v float64) {
		r.Counter(name, help).Add(v)
	}
	gauge := func(name, help string, v float64) {
		r.Gauge(name, help).Set(v)
	}
	counter("vtsweep_runs_requested_total", "Simulations experiments asked for.", float64(mt.Requests))
	counter("vtsweep_runs_executed_total", "gpu.Run calls actually performed.", float64(mt.Executed))
	counter("vtsweep_memo_hits_total", "Requests served by the memo/disk cache.", float64(mt.CacheHits))
	counter("vtsweep_sim_cycles_total", "Simulated cycles of executed runs.", float64(mt.SimCycles))
	counter("vtsweep_supervisor_panics_total", "Runs that panicked.", float64(mt.Panics))
	counter("vtsweep_supervisor_invariant_trips_total", "Runs aborted by the invariant checker.", float64(mt.InvariantTrips))
	counter("vtsweep_supervisor_deadlines_total", "Runs aborted by the wall-clock deadline.", float64(mt.Deadlines))
	counter("vtsweep_supervisor_failures_total", "Runs that failed.", float64(mt.Failures))
	counter("vtsweep_store_hits_total", "Store reads serving a checksum-verified payload.", float64(mt.StoreHits))
	counter("vtsweep_store_misses_total", "Store reads that found nothing usable.", float64(mt.StoreMisses))
	counter("vtsweep_store_repairs_total", "Objects healed from a replica after checksum mismatch.", float64(mt.StoreRepairs))
	counter("vtsweep_store_retries_total", "Transient store I/O errors absorbed by retry.", float64(mt.StoreRetries))
	counter("vtsweep_checkpoints_captured_total", "Donor runs that produced a usable prefix checkpoint.", float64(mt.CheckpointsCaptured))
	counter("vtsweep_checkpoint_hits_total", "Jobs started from a prefix checkpoint.", float64(mt.CheckpointHits))
	counter("vtsweep_checkpoint_misses_total", "Fork-eligible jobs that found no usable checkpoint.", float64(mt.CheckpointMisses))
	counter("vtsweep_prefix_cycles_saved_total", "Prefix cycles forked runs skipped.", float64(mt.PrefixCyclesSaved))
	gauge("vtsweep_active_jobs", "Simulations currently running.", float64(len(st.Active)))
	gauge("vtsweep_uptime_seconds", "Wall time since the first job started.", st.UptimeSeconds)
	gauge("vtsweep_sim_cycles_per_sec", "Windowed simulated-cycle rate over recently finished runs.", st.SimCyclesPerSec)
	if f := st.FleetStatus; f != nil {
		gauge("vtfabric_jobs_pending", "Jobs waiting for a lease.", float64(f.JobsPending))
		gauge("vtfabric_jobs_leased", "Jobs currently leased to workers.", float64(f.JobsLeased))
		gauge("vtfabric_jobs_done", "Jobs completed.", float64(f.JobsDone))
		gauge("vtfabric_workers", "Workers that have contacted the coordinator.", float64(len(f.Workers)))
		gauge("vtfabric_leases_parked", "Lease requests parked waiting for a job (idle slots).", float64(f.LeasesParked))
		counter("vtfabric_leases_granted_total", "Leases granted.", float64(f.LeasesGranted))
		counter("vtfabric_leases_renewed_total", "Lease deadlines extended by a worker heartbeat.", float64(f.LeasesRenewed))
		counter("vtfabric_leases_expired_total", "Leases reclaimed after expiry (worker crash or stall).", float64(f.LeasesExpired))
		counter("vtfabric_leases_released_total", "Leases released unexecuted by draining workers.", float64(f.LeasesReleased))
		counter("vtfabric_completions_total", "Job completions accepted.", float64(f.Completions))
		counter("vtfabric_duplicate_completions_total", "Completions dropped as duplicates (job already done).", float64(f.DuplicateCompletions))
		slots := r.Gauge("vtfabric_worker_slots", "Lease slots per worker.")
		active := r.Gauge("vtfabric_worker_active_jobs", "Live leases held per worker.")
		seen := r.Gauge("vtfabric_worker_last_seen_seconds", "Seconds since each worker's last contact.")
		comp := r.Counter("vtfabric_worker_completions_total", "Completions delivered per worker.")
		cyc := r.Counter("vtfabric_worker_sim_cycles_total", "Simulated cycles delivered per worker.")
		for _, ws := range f.Workers {
			slots.Set(float64(ws.Slots), "worker", ws.ID)
			active.Set(float64(ws.Active), "worker", ws.ID)
			seen.Set(ws.LastSeen, "worker", ws.ID)
			comp.Add(float64(ws.Completions), "worker", ws.ID)
			cyc.Add(float64(ws.SimCycles), "worker", ws.ID)
		}
	}
	if err := r.Write(w); err != nil {
		return err
	}
	if err := m.hist.Write(w); err != nil {
		return err
	}
	return m.sweep.Trace.Registry().Write(w)
}

// Handler returns the monitor's HTTP handler: "/" is a self-refreshing
// HTML summary, "/status" the JSON document, "/metrics" the Prometheus
// exposition, and "/debug/pprof/" the standard profiling endpoints.
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(m.Status())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WriteMetrics(w)
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		writePage(w, m.Status())
	})
	return mux
}

// writePage renders st as the self-refreshing HTML page, with the queue,
// lease counters and one row per worker when a fleet is attached.
func writePage(w http.ResponseWriter, st MonitorStatus) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!doctype html><html><head><meta http-equiv="refresh" content="2">`+
		`<title>sweep monitor</title></head><body><h1>sweep</h1>`)
	fmt.Fprintf(w, "<p>uptime %.0fs — %d/%d runs executed (%d cache hits), %.0f simcycles/s</p>",
		st.UptimeSeconds, st.Metrics.Executed, st.Metrics.Requests,
		st.Metrics.CacheHits, st.SimCyclesPerSec)
	if st.Metrics.Failures > 0 {
		fmt.Fprintf(w, "<p>failures %d</p>", st.Metrics.Failures)
	}
	if f := st.FleetStatus; f != nil {
		state := "running"
		if f.SweepClosed {
			state = "complete"
		}
		fmt.Fprintf(w, "<p>fleet sweep %s — jobs: %d pending, %d leased, %d done</p>",
			state, f.JobsPending, f.JobsLeased, f.JobsDone)
		fmt.Fprintf(w, "<p>leases: %d granted, %d renewed, %d expired, %d released — completions: %d (+%d duplicate)</p>",
			f.LeasesGranted, f.LeasesRenewed, f.LeasesExpired, f.LeasesReleased,
			f.Completions, f.DuplicateCompletions)
	}
	fmt.Fprintf(w, "<h2>active (%d)</h2><ul>", len(st.Active))
	for _, a := range st.Active {
		fmt.Fprintf(w, "<li>%s/%s — %.1fs</li>",
			html.EscapeString(a.Workload), html.EscapeString(a.Variant), a.Seconds)
	}
	fmt.Fprint(w, "</ul>")
	if f := st.FleetStatus; f != nil {
		fmt.Fprintf(w, "<h2>workers (%d)</h2><table border=1 cellpadding=4>"+
			"<tr><th>worker</th><th>slots</th><th>active</th><th>last seen</th>"+
			"<th>completions</th><th>simcycles</th></tr>", len(f.Workers))
		for _, ws := range f.Workers {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%.1fs</td><td>%d</td><td>%d</td></tr>",
				html.EscapeString(ws.ID), ws.Slots, ws.Active, ws.LastSeen, ws.Completions, ws.SimCycles)
		}
		fmt.Fprint(w, "</table>")
	}
	fmt.Fprintf(w, "<p><a href=%q>JSON</a> — <a href=%q>metrics</a></p></body></html>",
		"/status", "/metrics")
}
