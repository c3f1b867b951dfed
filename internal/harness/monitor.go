package harness

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"net/http"
	httppprof "net/http/pprof"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"

	"repro/internal/sweepobs"
)

// Live sweep monitoring: a Monitor's Handler is the one HTTP
// observability surface of a sweep — vtbench -monitor serves it, and so
// does a vtsweepd coordinator beside its /v1 job API. It serves the
// current sweep state — active jobs, RunMetrics counters and, when a
// fleet is attached (Fleet), the coordinator's queue, lease and worker
// state — as JSON (/status), Prometheus text exposition (/metrics), a
// minimal self-refreshing HTML page (/), and the net/http/pprof
// profiling endpoints (/debug/pprof/).
//
// The monitor keeps no books of its own. /status renders what the sweep
// already records: Sweep.Metrics, the fleet's Status, and the tracer's
// span tree, whose job spans say what runs now and what finished
// recently. /metrics and the page flatten /status by one naming rule
// (flatten), and the exposition's histograms are built from the spans
// when it is scraped. Nothing here runs on the job path.
//
// A Monitor belongs to one Sweep (NewSweep attaches it) and serves that
// sweep's counters and trace.

// MonitorSchemaVersion identifies the /status JSON layout. Version 3
// spelled the "metrics" object with RunMetrics' JSON keys (the -json
// record's: runs_requested, sim_cycles, ...); version 4 is the one
// document a local sweep and a fleet coordinator serve, with the fleet's
// keys (FleetStatus) top-level when one is attached.
const MonitorSchemaVersion = 4

// monitorRateWindow is the lookback for the windowed simcycles/s rate.
const monitorRateWindow = 60 * time.Second

// simCyclesAttr is the job-span attribute resolve sets to the simulated
// cycles of a run it executed; cache hits set none. The windowed rate
// sums it.
const simCyclesAttr = "sim_cycles"

// Monitor serves one sweep's live state. Safe for concurrent use; the
// zero value is not usable — every Sweep carries one.
type Monitor struct {
	sweep *Sweep

	// Fleet, when set, reports the sweep fabric coordinator's state, which
	// /status, /metrics and the page then carry. fabric.New sets it before
	// the monitor serves.
	Fleet func() *FleetStatus
}

// ActiveJob is one currently-running simulation in MonitorStatus.
type ActiveJob struct {
	Workload string  `json:"workload"`
	Variant  string  `json:"variant"`
	Seconds  float64 `json:"seconds"` // wall time since the job started
}

// FleetStatus is a sweep fabric coordinator's view of its queue, leases
// and workers. On /metrics an integer field is a counter unless its
// metric tag says gauge (flatten).
type FleetStatus struct {
	SweepClosed bool `json:"sweepClosed"`

	JobsPending int `json:"jobsPending" metric:"gauge"`
	JobsLeased  int `json:"jobsLeased" metric:"gauge"`
	JobsDone    int `json:"jobsDone" metric:"gauge"`

	// LeasesParked is how many lease requests are waiting for a job
	// right now: the fleet's idle slots.
	LeasesParked int `json:"leasesParked" metric:"gauge"`

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
	Slots int    `json:"slots" metric:"gauge"`
	// Active counts the live leases the worker holds.
	Active      int     `json:"active" metric:"gauge"`
	LastSeen    float64 `json:"lastSeenSeconds"` // seconds since last contact
	Completions int     `json:"completions"`
	SimCycles   int64   `json:"simCycles"`
}

// MonitorStatus is the /status JSON document.
type MonitorStatus struct {
	SchemaVersion int         `json:"schemaVersion" metric:"gauge"`
	UptimeSeconds float64     `json:"uptimeSeconds"`
	Active        []ActiveJob `json:"active"`
	Metrics       RunMetrics  `json:"metrics"`
	// SimCyclesPerSec is the windowed rate: simulated cycles of runs
	// finishing within the last monitorRateWindow, over the window (or
	// the uptime while younger than the window). It reads ~0 when the
	// sweep is serving cache hits, so a re-run does not report a
	// stale average. On a coordinator it is the fleet's rate.
	SimCyclesPerSec float64 `json:"simCyclesPerSec"`
	// *FleetStatus is present when a fleet is attached; its keys are
	// top-level.
	*FleetStatus
}

// Status renders the sweep for the monitor endpoints: its counters, the
// fleet's state, and what its tracer's job spans say, read under the
// tracer's lock. A sweep without a tracer reports no active jobs, no
// uptime and no rate.
func (m *Monitor) Status() MonitorStatus {
	st := MonitorStatus{SchemaVersion: MonitorSchemaVersion, Metrics: m.sweep.Metrics()}
	var windowCycles int64
	m.sweep.Trace.View(func(now int64, spans []sweepobs.Span) {
		first, cut := int64(-1), now-monitorRateWindow.Nanoseconds()
		for i := range spans {
			sp := &spans[i]
			if sp.Kind != "job" {
				continue
			}
			if first < 0 {
				first = sp.StartNS
			}
			if sp.DurNS < 0 {
				st.Active = append(st.Active, ActiveJob{
					Workload: sp.Workload,
					Variant:  sp.Variant,
					Seconds:  float64(now-sp.StartNS) / 1e9,
				})
			} else if sp.End() >= cut {
				c, _ := strconv.ParseInt(sp.Attrs[simCyclesAttr], 10, 64) // none on a cache hit: 0
				windowCycles += c
			}
		}
		if first >= 0 {
			st.UptimeSeconds = float64(now-first) / 1e9
		}
	})
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
	st.SimCyclesPerSec = float64(windowCycles) / window
	if m.Fleet != nil {
		st.FleetStatus = m.Fleet()
	}
	return st
}

// series is one /metrics sample: a numeric leaf of MonitorStatus.
type series struct {
	name, kind, help string
	id, labels       string // a row's id, and its label block: {worker="w1"}
	value            string
}

// flatten renders st as /metrics series by one rule. A numeric (or
// boolean, as 0/1) leaf becomes vtsweep_<key>, or vtfabric_<key> inside
// the fleet's FleetStatus, where <key> is its /status JSON key in
// snake_case; a nested object's leaves keep their own keys. An integer is
// a counter and gets _total unless its metric tag says gauge; a float or
// a boolean is a gauge. A list is a gauge of its length under its own
// key, and when its rows have an id each row's leaves are series of the
// row kind (the key less its plural s) labeled by the id:
// vtfabric_worker_slots{worker="w1"}. Field order decides series order,
// and a row list emits each leaf across all rows, so a family's series
// stay together.
func flatten(st MonitorStatus) []series {
	var out []series
	var walk func(ns, path string, v reflect.Value)
	walk = func(ns, path string, v reflect.Value) {
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f, fv := t.Field(i), v.Field(i)
			key := jsonKey(f)
			switch {
			case f.Anonymous: // *FleetStatus: the fleet's keys, top-level
				if !fv.IsNil() {
					walk("vtfabric", path, fv.Elem())
				}
			case fv.Kind() == reflect.Struct:
				walk(ns, path+key+".", fv)
			case fv.Kind() == reflect.Slice:
				out = append(out, series{name: ns + "_" + snake(key), kind: "gauge",
					help: "/status " + path + key + " (rows)", value: strconv.Itoa(fv.Len())})
				row := f.Type.Elem()
				id, ok := row.FieldByName("ID")
				if !ok {
					continue
				}
				label := strings.TrimSuffix(key, "s")
				for j := 0; j < row.NumField(); j++ {
					for r := 0; r < fv.Len(); r++ {
						if s, ok := leaf(ns+"_"+label+"_", path+key+"[].", row.Field(j), fv.Index(r).Field(j)); ok {
							s.id = fv.Index(r).FieldByIndex(id.Index).String()
							s.labels = sweepobs.Label(label, s.id)
							out = append(out, s)
						}
					}
				}
			default:
				if s, ok := leaf(ns+"_", path, f, fv); ok {
					out = append(out, s)
				}
			}
		}
	}
	walk("vtsweep", "", reflect.ValueOf(st))
	return out
}

// leaf is the series of one numeric or boolean field; a string is a
// label, not a sample.
func leaf(prefix, path string, f reflect.StructField, v reflect.Value) (series, bool) {
	key := jsonKey(f)
	s := series{name: prefix + snake(key), kind: "gauge", help: "/status " + path + key}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		s.value = strconv.FormatInt(v.Int(), 10)
		if f.Tag.Get("metric") != "gauge" {
			s.kind, s.name = "counter", s.name+"_total"
		}
	case reflect.Float64:
		s.value = strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.Bool:
		s.value = "0"
		if v.Bool() {
			s.value = "1"
		}
	default:
		return s, false
	}
	return s, true
}

func jsonKey(f reflect.StructField) string {
	key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return key
}

// snake spells a camelCase JSON key in snake_case; a snake_case key is
// unchanged.
func snake(key string) string {
	var b strings.Builder
	for _, r := range key {
		if unicode.IsUpper(r) {
			b.WriteByte('_')
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}

// WriteMetrics renders the sweep state as Prometheus text exposition —
// what /metrics serves and vtbench -metricsdump writes: Status flattened
// (flatten), then two histograms built from the tracer's spans at this
// scrape: vtsweep_store_batch_txs over the store.tx spans' txs, and
// vtsweep_span_seconds{kind} over every closed span.
func (m *Monitor) WriteMetrics(w io.Writer) error {
	var b strings.Builder
	prev := ""
	for _, s := range flatten(m.Status()) {
		if s.name != prev {
			sweepobs.WriteHeader(&b, s.name, s.kind, s.help)
			prev = s.name
		}
		fmt.Fprintf(&b, "%s%s %s\n", s.name, s.labels, s.value)
	}
	var spanSeconds map[string]*sweepobs.Histogram
	// Batch-size bounds: powers of two up to the write-behind window,
	// which caps a batch.
	batches := sweepobs.NewHistogram([]float64{1, 2, 4, 8, 16, writeBehindWindow})
	m.sweep.Trace.View(func(_ int64, spans []sweepobs.Span) {
		spanSeconds = sweepobs.SpanSeconds(spans)
		for i := range spans {
			if spans[i].Kind == "store.tx" {
				n, _ := strconv.Atoi(spans[i].Attrs["txs"]) // commitStoreTx always sets it
				batches.Observe(float64(n))
			}
		}
	})
	if batches.Count > 0 {
		const name = "vtsweep_store_batch_txs"
		sweepobs.WriteHeader(&b, name, "histogram", "Transactions per result-store group-commit batch.")
		batches.Write(&b, name, "")
	}
	sweepobs.WriteSpanSeconds(&b, spanSeconds)
	_, err := io.WriteString(w, b.String())
	return err
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

// writePage renders st as the self-refreshing HTML page: one table row
// per /metrics series of st (flatten).
func writePage(w http.ResponseWriter, st MonitorStatus) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString(`<!doctype html><html><head><meta http-equiv="refresh" content="2">` +
		`<title>sweep monitor</title></head><body><h1>sweep</h1>` +
		`<table border=1 cellpadding=4><tr><th>series</th><th>row</th><th>value</th></tr>`)
	for _, s := range flatten(st) {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%s</td></tr>", s.name, html.EscapeString(s.id), s.value)
	}
	fmt.Fprintf(&b, "</table><p><a href=%q>JSON</a> — <a href=%q>metrics</a></p></body></html>", "/status", "/metrics")
	io.WriteString(w, b.String())
}
