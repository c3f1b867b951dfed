package fabric

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/resultstore"
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
// object-sync API, and the sweep's Monitor for every other path.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/release", c.handleRelease)
	mux.HandleFunc("POST /v1/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /v1/object/{kind}/{key}", c.handleObjectGet)
	mux.HandleFunc("POST /v1/object/{kind}/{key}", c.handleObjectPut)
	mux.Handle("/", c.sweep.Monitor.Handler())
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
	writeJSON(w, c.heartbeat(req))
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
	w.Header().Set("Content-Type", "application/octet-stream")
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
	// Every consumer re-verifies the envelope on read (and quarantines
	// it on mismatch); the check here keeps a payload this build would
	// never serve out of the coordinator's store.
	if err := c.sweep.CheckObject(kind, key, b); err != nil {
		http.Error(w, "object payload: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := c.sweep.PutObject(c.cfg.Params, kind, key, b); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusOK)
}
