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

// Live sweep monitoring (cmd/vtbench -monitor): runMany reports every
// job's start and finish to a Monitor, whose Handler serves the current
// sweep state — active jobs, RunMetrics counters, span-derived stage
// totals — as JSON (/status), Prometheus text exposition (/metrics), a
// minimal self-refreshing HTML page (/), and the net/http/pprof
// profiling endpoints (/debug/pprof/). The monitor is passive
// bookkeeping: a map update per job, nothing on the simulation hot
// path.
//
// A Monitor belongs to one Sweep (NewMonitor) and serves that sweep's
// counters and trace; a sweep without one reports to nobody (the job
// hooks are nil-receiver no-ops, as with a nil *sweepobs.Tracer).

// MonitorSchemaVersion identifies the /status JSON layout. Version 3
// spells the "metrics" object with RunMetrics' JSON keys (the -json
// record's: runs_requested, sim_cycles, ...).
const MonitorSchemaVersion = 3

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
	sweep       *Sweep
	mu          sync.Mutex
	now         func() time.Time // test seam
	started     time.Time
	active      map[key]time.Time // job -> start time
	recent      []finishedJob     // completions inside the rate window
	cyclesTotal int64             // lifetime executed sim-cycles
	// hist holds the one series that cannot be rebuilt per scrape from
	// RunMetrics: the store's group-commit batch sizes.
	hist     *sweepobs.Registry
	batchTxs *sweepobs.Family
}

// NewMonitor attaches an empty monitor to s: s's jobs report to it, and
// its endpoints serve s's counters and the stage totals and span metrics
// of s.Trace.
func NewMonitor(s *Sweep) *Monitor {
	m := &Monitor{sweep: s, now: time.Now, active: map[key]time.Time{}, hist: sweepobs.NewRegistry()}
	// Bounds: powers of two up to the write-behind window, which caps a
	// batch.
	m.batchTxs = m.hist.Histogram("vtsweep_store_batch_txs",
		"Transactions per result-store group-commit batch.", []float64{1, 2, 4, 8, 16, writeBehindWindow})
	s.Monitor = m
	return m
}

func (m *Monitor) beginJob(j Job) {
	if m == nil {
		return
	}
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started.IsZero() {
		m.started = now
	}
	m.active[key{j.Workload, j.Variant}] = now
}

func (m *Monitor) endJob(j Job) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.active, key{j.Workload, j.Variant})
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
	m.cyclesTotal += cycles
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

// MonitorStatus is the /status JSON document.
type MonitorStatus struct {
	SchemaVersion int         `json:"schemaVersion"`
	UptimeSeconds float64     `json:"uptimeSeconds"`
	Active        []ActiveJob `json:"active"`
	Metrics       RunMetrics  `json:"metrics"`
	// SimCyclesPerSec is the windowed rate: simulated cycles of runs
	// finishing within the last monitorRateWindow, over the window (or
	// the uptime while younger than the window). It reads ~0 when the
	// sweep is serving cache hits — unlike the old cumulative average,
	// which went stale after a resume skipped cached jobs.
	SimCyclesPerSec float64 `json:"simCyclesPerSec"`
	// LifetimeSimCyclesPerSec is the old cumulative average, kept for
	// whole-sweep throughput summaries.
	LifetimeSimCyclesPerSec float64 `json:"lifetimeSimCyclesPerSec"`
	// Stages aggregates completed sweep-trace spans by kind (present
	// only when tracing is on).
	Stages map[string]sweepobs.StageTotal `json:"stages,omitempty"`
}

// Status snapshots the sweep for the monitor endpoints.
func (m *Monitor) Status() MonitorStatus {
	st := MonitorStatus{SchemaVersion: MonitorSchemaVersion, Metrics: m.sweep.Metrics()}
	now := m.now()
	m.mu.Lock()
	if !m.started.IsZero() {
		st.UptimeSeconds = now.Sub(m.started).Seconds()
	}
	for k, t0 := range m.active {
		st.Active = append(st.Active, ActiveJob{
			Workload: k.Workload,
			Variant:  k.Variant,
			Seconds:  now.Sub(t0).Seconds(),
		})
	}
	m.pruneLocked(now)
	var windowCycles int64
	for _, f := range m.recent {
		windowCycles += f.cycles
	}
	cyclesTotal := m.cyclesTotal
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
	if st.UptimeSeconds > 0 {
		st.LifetimeSimCyclesPerSec = float64(cyclesTotal) / st.UptimeSeconds
	}
	st.Stages = m.sweep.Trace.StageTotals()
	return st
}

// WriteMetrics renders the sweep state as Prometheus text exposition:
// the RunMetrics counters and monitor gauges, rebuilt per scrape, the
// store batch-size histogram, plus the tracer's span counters and
// latency histograms when tracing is on. Metric families are disjoint
// between the registries, so the concatenation stays a valid exposition
// (no duplicate HELP/TYPE).
func (m *Monitor) WriteMetrics(w io.Writer) error {
	st := m.Status()
	mt := st.Metrics
	r := sweepobs.NewRegistry()
	counter := func(name, help string, v float64) {
		r.Counter(name, help).Add(v)
	}
	counter("vtsweep_runs_requested_total", "Simulations experiments asked for.", float64(mt.Requests))
	counter("vtsweep_runs_executed_total", "gpu.Run calls actually performed.", float64(mt.Executed))
	counter("vtsweep_memo_hits_total", "Requests served by the memo/disk cache.", float64(mt.CacheHits))
	counter("vtsweep_sim_cycles_total", "Simulated cycles of executed runs.", float64(mt.SimCycles))
	counter("vtsweep_supervisor_panics_total", "First attempts that panicked.", float64(mt.Panics))
	counter("vtsweep_supervisor_invariant_trips_total", "First attempts aborted by the invariant checker.", float64(mt.InvariantTrips))
	counter("vtsweep_supervisor_deadlines_total", "First attempts aborted by the wall-clock deadline.", float64(mt.Deadlines))
	counter("vtsweep_supervisor_retries_total", "Safe-mode retries attempted.", float64(mt.Retries))
	counter("vtsweep_supervisor_degraded_total", "Runs whose result came from a safe-mode retry.", float64(mt.Degraded))
	counter("vtsweep_supervisor_failures_total", "Runs that failed after the retry ladder.", float64(mt.Failures))
	counter("vtsweep_store_hits_total", "Store reads serving a checksum-verified payload.", float64(mt.StoreHits))
	counter("vtsweep_store_misses_total", "Store reads that found nothing usable.", float64(mt.StoreMisses))
	counter("vtsweep_store_repairs_total", "Objects healed from a replica after checksum mismatch.", float64(mt.StoreRepairs))
	counter("vtsweep_store_retries_total", "Transient store I/O errors absorbed by retry.", float64(mt.StoreRetries))
	counter("vtsweep_checkpoints_captured_total", "Donor runs that produced a usable prefix checkpoint.", float64(mt.CheckpointsCaptured))
	counter("vtsweep_checkpoint_hits_total", "Jobs started from a prefix checkpoint.", float64(mt.CheckpointHits))
	counter("vtsweep_checkpoint_misses_total", "Fork-eligible jobs that found no usable checkpoint.", float64(mt.CheckpointMisses))
	counter("vtsweep_prefix_cycles_saved_total", "Prefix cycles forked runs skipped.", float64(mt.PrefixCyclesSaved))
	counter("vtsweep_telemetry_windows_total", "Telemetry metric windows recorded by executed runs.", float64(mt.TelemetryWindows))
	counter("vtsweep_telemetry_spans_total", "Telemetry lifecycle spans recorded by executed runs.", float64(mt.TelemetrySpans))
	r.Gauge("vtsweep_active_jobs", "Simulations currently running.").Set(float64(len(st.Active)))
	r.Gauge("vtsweep_uptime_seconds", "Wall time since the first job started.").Set(st.UptimeSeconds)
	r.Gauge("vtsweep_sim_cycles_per_sec", "Windowed simulated-cycle rate over recently finished runs.").Set(st.SimCyclesPerSec)
	if err := r.Write(w); err != nil {
		return err
	}
	if err := m.hist.Write(w); err != nil {
		return err
	}
	return m.sweep.Trace.Registry().Write(w)
}

// Handler returns the live-monitor HTTP handler: "/" is a
// self-refreshing HTML summary, "/status" the JSON document,
// "/metrics" the Prometheus exposition, and "/debug/pprof/" the
// standard profiling endpoints.
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
		st := m.Status()
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, `<!doctype html><html><head><meta http-equiv="refresh" content="2">`+
			`<title>vtbench monitor</title></head><body><h1>vtbench sweep</h1>`)
		fmt.Fprintf(w, "<p>uptime %.0fs — %d/%d runs executed (%d cache hits), %.0f simcycles/s</p>",
			st.UptimeSeconds, st.Metrics.Executed, st.Metrics.Requests,
			st.Metrics.CacheHits, st.SimCyclesPerSec)
		if st.Metrics.Failures > 0 || st.Metrics.Degraded > 0 {
			fmt.Fprintf(w, "<p>failures %d — degraded %d — retries %d</p>",
				st.Metrics.Failures, st.Metrics.Degraded, st.Metrics.Retries)
		}
		if st.Metrics.TelemetryWindows > 0 {
			fmt.Fprintf(w, "<p>telemetry: %d windows, %d spans</p>",
				st.Metrics.TelemetryWindows, st.Metrics.TelemetrySpans)
		}
		fmt.Fprintf(w, "<h2>active (%d)</h2><ul>", len(st.Active))
		for _, a := range st.Active {
			fmt.Fprintf(w, "<li>%s/%s — %.1fs</li>",
				html.EscapeString(a.Workload), html.EscapeString(a.Variant), a.Seconds)
		}
		fmt.Fprintf(w, "</ul><p><a href=%q>JSON</a> — <a href=%q>metrics</a></p></body></html>",
			"/status", "/metrics")
	})
	return mux
}
