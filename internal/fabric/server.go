package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io"
	"net/http"

	"repro/internal/resultstore"
	"repro/internal/sweepobs"
)

// maxBodyBytes bounds request bodies: the largest legitimate payload
// is a completion carrying a full gpu.Result or a checkpoint envelope,
// both far under this.
const maxBodyBytes = 64 << 20

// syncable reports whether workers may sync objects of kind through the
// coordinator: only prefix checkpoints, the fork donors' output (see
// pullCheckpoint and pushCheckpoint). Results reach the coordinator's
// store inside completions, which it commits itself; the journal and
// artifacts are coordinator-owned.
func syncable(kind resultstore.Kind) bool { return kind == resultstore.KindCheckpoint }

// Handler returns the coordinator's HTTP handler: the /v1 job and
// object-sync API, plus the fleet dashboard (/, /status, /metrics).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/renew", c.handleRenew)
	mux.HandleFunc("POST /v1/release", c.handleRelease)
	mux.HandleFunc("POST /v1/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /v1/object/{kind}/{key}", c.handleObjectGet)
	mux.HandleFunc("POST /v1/object/{kind}/{key}", c.handleObjectPut)
	mux.HandleFunc("GET /status", c.handleStatus)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /{$}", c.handleDashboard)
	return mux
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	defer r.Body.Close()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		http.Error(w, "missing worker id", http.StatusBadRequest)
		return
	}
	resp, ok, sweepDone := c.awaitLease(r.Context(), req.Worker)
	switch {
	case sweepDone:
		http.Error(w, "sweep complete", http.StatusGone)
	case !ok:
		w.WriteHeader(http.StatusNoContent)
	default:
		// A grant whose requester has gone (connection closed, worker
		// canceled) goes straight back to the head of the queue instead
		// of burning a TTL.
		if r.Context().Err() != nil || writeJSON(w, resp) != nil {
			c.release(resp.LeaseID)
		}
	}
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, ok := c.renew(req.LeaseID)
	if !ok {
		http.Error(w, "unknown or expired lease", http.StatusNotFound)
		return
	}
	writeJSON(w, resp)
}

func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !c.release(req.LeaseID) {
		http.Error(w, "unknown or expired lease", http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := c.complete(req); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		http.Error(w, "missing worker id", http.StatusBadRequest)
		return
	}
	c.heartbeat(req)
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleObjectGet(w http.ResponseWriter, r *http.Request) {
	kind, key := resultstore.Kind(r.PathValue("kind")), r.PathValue("key")
	if !syncable(kind) {
		http.Error(w, "unsupported object kind", http.StatusBadRequest)
		return
	}
	b, err := c.sweep.GetObject(c.cfg.Params, kind, key)
	if err != nil {
		if errors.Is(err, resultstore.ErrNotFound) {
			http.NotFound(w, r)
		} else {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (c *Coordinator) handleObjectPut(w http.ResponseWriter, r *http.Request) {
	kind, key := resultstore.Kind(r.PathValue("kind")), r.PathValue("key")
	if !syncable(kind) {
		http.Error(w, "unsupported object kind", http.StatusBadRequest)
		return
	}
	defer r.Body.Close()
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The envelope's embedded fingerprint is re-verified by every
	// consumer on read (and quarantined on mismatch), so the sync needs
	// only a well-formedness check here.
	if !json.Valid(b) {
		http.Error(w, "object payload is not valid JSON", http.StatusBadRequest)
		return
	}
	if err := c.sweep.PutObject(c.cfg.Params, kind, key, b); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(c.Status())
}

// handleMetrics serves the combined exposition: the coordinator
// monitor's vtsweep_* families (fleet totals — remote completions fold
// into the same counters a local sweep bumps) followed by the
// vtfabric_* fleet families with per-worker labels. The name spaces
// are disjoint, so the concatenation stays a valid exposition.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.sweep.Monitor.WriteMetrics(w)
	c.WriteFleetMetrics(w)
}

// WriteFleetMetrics renders the vtfabric_* families.
func (c *Coordinator) WriteFleetMetrics(w io.Writer) error {
	st := c.Status()
	r := sweepobs.NewRegistry()
	r.Gauge("vtfabric_jobs_pending", "Jobs waiting for a lease.").Set(float64(st.JobsPending))
	r.Gauge("vtfabric_jobs_leased", "Jobs currently leased to workers.").Set(float64(st.JobsLeased))
	r.Gauge("vtfabric_jobs_done", "Jobs completed.").Set(float64(st.JobsDone))
	r.Gauge("vtfabric_workers", "Workers that have contacted the coordinator.").Set(float64(len(st.Workers)))
	r.Gauge("vtfabric_leases_parked", "Lease requests parked waiting for a job (idle slots).").Set(float64(st.LeasesParked))
	r.Counter("vtfabric_leases_granted_total", "Leases granted.").Add(float64(st.LeasesGranted))
	r.Counter("vtfabric_leases_renewed_total", "Lease renewals.").Add(float64(st.LeasesRenewed))
	r.Counter("vtfabric_leases_expired_total", "Leases reclaimed after expiry (worker crash or stall).").Add(float64(st.LeasesExpired))
	r.Counter("vtfabric_leases_released_total", "Leases released unexecuted by draining workers.").Add(float64(st.LeasesReleased))
	r.Counter("vtfabric_completions_total", "Job completions accepted.").Add(float64(st.Completions))
	r.Counter("vtfabric_duplicate_completions_total", "Completions dropped as duplicates (job already done).").Add(float64(st.DuplicateCompletions))
	r.Gauge("vtfabric_agg_sim_cycles_per_sec", "Windowed fleet-aggregate simulated-cycle rate.").Set(st.AggSimCyclesPerSec)

	slots := r.Gauge("vtfabric_worker_slots", "Lease slots per worker.")
	active := r.Gauge("vtfabric_worker_active_jobs", "Jobs currently held per worker.")
	seen := r.Gauge("vtfabric_worker_last_seen_seconds", "Seconds since each worker's last contact.")
	comp := r.Counter("vtfabric_worker_completions_total", "Completions delivered per worker.")
	cyc := r.Counter("vtfabric_worker_sim_cycles_total", "Simulated cycles delivered per worker.")
	for _, ws := range st.Workers {
		slots.Set(float64(ws.Slots), "worker", ws.ID)
		active.Set(float64(ws.Active), "worker", ws.ID)
		seen.Set(ws.LastSeen, "worker", ws.ID)
		comp.Add(float64(ws.Completions), "worker", ws.ID)
		cyc.Add(float64(ws.SimCycles), "worker", ws.ID)
	}
	return r.Write(w)
}

// handleDashboard is the self-refreshing fleet page: queue state,
// lease churn, aggregate windowed throughput, and one row per worker.
func (c *Coordinator) handleDashboard(w http.ResponseWriter, r *http.Request) {
	st := c.Status()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!doctype html><html><head><meta http-equiv="refresh" content="2">`+
		`<title>vtsweepd fleet</title></head><body><h1>vtsweepd fleet</h1>`)
	state := "running"
	if st.SweepClosed {
		state = "complete"
	}
	fmt.Fprintf(w, "<p>sweep %s — jobs: %d pending, %d leased, %d done — %.0f simcycles/s (fleet, windowed)</p>",
		state, st.JobsPending, st.JobsLeased, st.JobsDone, st.AggSimCyclesPerSec)
	fmt.Fprintf(w, "<p>leases: %d granted, %d renewed, %d expired, %d released — completions: %d (+%d duplicate)</p>",
		st.LeasesGranted, st.LeasesRenewed, st.LeasesExpired, st.LeasesReleased,
		st.Completions, st.DuplicateCompletions)
	fmt.Fprintf(w, "<h2>workers (%d)</h2><table border=1 cellpadding=4>"+
		"<tr><th>worker</th><th>slots</th><th>active</th><th>last seen</th>"+
		"<th>completions</th><th>simcycles</th><th>executed (self)</th></tr>", len(st.Workers))
	for _, ws := range st.Workers {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%.1fs</td><td>%d</td><td>%d</td><td>%d</td></tr>",
			html.EscapeString(ws.ID), ws.Slots, ws.Active, ws.LastSeen,
			ws.Completions, ws.SimCycles, ws.Metrics.Executed)
	}
	fmt.Fprintf(w, "</table><p><a href=%q>JSON</a> — <a href=%q>metrics</a></p></body></html>",
		"/status", "/metrics")
}
