// Package fabric is the distributed sweep fabric: a coordinator that
// plans a sweep and serves fingerprint-keyed jobs over HTTP, and a
// pull-based worker that executes them through the supervised harness
// and streams outcomes back.
//
// The division of labor keeps the determinism contract trivial: the
// coordinator runs the experiments in-process exactly like a local
// sweep — same job plan, same memo and store lookup, same commit, same
// accounting, same table assembly — and only the Executor, the stage
// that simulates what the store does not hold, is remote. Workers run
// the same deterministic simulation code on fully resolved configs, so a
// sweep run on N workers produces bit-identical sim_cycles and tables to
// the single-process run, and a re-leased job after a worker crash
// re-produces the same Result it would have reported.
//
// Wire protocol (JSON over HTTP, all under /v1):
//
//	POST /v1/lease     {worker}            -> 200 {lease_id, job}
//	                                          204 (hold expired, ask again)
//	                                          410 (sweep complete)
//	POST /v1/release   {lease_id}          -> 200 (job back to pending)
//	POST /v1/complete  {lease_id, worker, outcome{entry, result, work}}
//	                                       -> 200 (idempotent by entry.fp)
//	POST /v1/heartbeat {worker, slots, leases, goodbye}
//	                                       -> 200 {ttl_ms}
//	GET  /v1/object/{kind}/{key}           -> envelope bytes | 404
//	POST /v1/object/{kind}/{key}           <- envelope bytes
//	                                          (kind is vtck, a prefix
//	                                          checkpoint; any other: 400)
//
// A heartbeat extends the deadline of each lease it lists: those its
// worker's slots are running. The worker sends one before its slots first
// ask for a lease, then one every third of the TTL the answer carries. A
// lease no heartbeat lists for a TTL lapses, which is the whole crash
// story. Worker and coordinator must be the same build: a worker fails
// when a heartbeat answer carries no TTL.
//
// Every other path is the coordinator sweep's harness.Monitor: the one
// /status, /metrics and HTML page a local sweep serves too, carrying the
// fleet's queue, leases and workers, and /debug/pprof/.
//
// A job is keyed by the harness content fingerprint's cache key — the
// same hex id that names its result-store object and journal lines —
// and the spec carries the raw fingerprint so workers recompute and
// verify both before simulating. Completions are idempotent by key:
// after a lease expires and the job is re-leased, a late completion
// from the original worker is still accepted if it arrives first, and
// the duplicate is dropped (deterministic execution makes them
// interchangeable).
//
// The fabric is event-driven. /v1/lease is a long-poll: with nothing
// leasable the request parks on the coordinator and is answered the
// moment a job is enqueued, reclaimed or released (200) or the sweep
// closes (410); only a bounded hold with no such event answers 204. A
// worker ends with a heartbeat marked goodbye, and the coordinator's
// Drain waits for those instead of lingering a fixed time.
package fabric

import (
	"encoding/json"

	"repro/internal/gpu"
	"repro/internal/harness"
)

// JobSpec is the wire form of one fully resolved simulation point.
// Config is the exact hardware config to run (the coordinator has
// already applied the job's Mutate), so a worker needs no knowledge of
// the experiment that produced the point.
type JobSpec struct {
	// Key is the cache key (hex id) of FP; jobs, completions, store
	// objects, and journal lines all correlate through it.
	Key string `json:"key"`
	// FP is the raw content fingerprint. Workers recompute it from the
	// fields below and refuse mismatching leases.
	FP       string          `json:"fp"`
	Workload string          `json:"workload"`
	Variant  string          `json:"variant,omitempty"`
	Scale    int             `json:"scale"`
	Dilute   int             `json:"dilute,omitempty"`
	Config   json.RawMessage `json:"config"`

	Sampling gpu.SamplingOptions `json:"sampling,omitzero"`

	// PrefixFP marks the job as part of a prefix-fork group (see
	// harness/fork.go); workers sync the group's checkpoint object with
	// the coordinator store by its cache key.
	PrefixFP string `json:"prefix_fp,omitempty"`

	CheckInvariants bool  `json:"check_invariants,omitempty"`
	RunTimeoutMS    int64 `json:"run_timeout_ms,omitempty"`
}

// LeaseRequest asks for one job.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse grants one job for a lease TTL. The worker's heartbeats
// extend it; one that lapses returns the job to the pending queue.
type LeaseResponse struct {
	LeaseID string  `json:"lease_id"`
	Job     JobSpec `json:"job"`
}

// ReleaseRequest returns a leased job to the pending queue unexecuted
// (worker shutdown drain).
type ReleaseRequest struct {
	LeaseID string `json:"lease_id"`
}

// CompleteRequest reports one leased job's Outcome, exactly as the
// worker's harness.ExecuteJob returned it: the completion-log line (its
// FP is the job key), the Result unless the job failed, and the Work the
// worker spent, which the coordinator's counters take as their own.
type CompleteRequest struct {
	LeaseID string          `json:"lease_id"`
	Worker  string          `json:"worker"`
	Outcome harness.Outcome `json:"outcome"`
}

// HeartbeatRequest is a worker's periodic sign of life, with its slot
// count for the fleet status and the ids of the leases its slots are
// running, which it renews. Goodbye marks the worker's final report:
// every slot has ended and it will not contact the coordinator again.
type HeartbeatRequest struct {
	Worker  string   `json:"worker"`
	Slots   int      `json:"slots"`
	Leases  []string `json:"leases,omitempty"`
	Goodbye bool     `json:"goodbye,omitempty"`
}

// HeartbeatResponse carries the lease TTL; the worker heartbeats at a
// third of it.
type HeartbeatResponse struct {
	TTLMS int64 `json:"ttl_ms"`
}
