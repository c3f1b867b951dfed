package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/resultstore"
)

// WorkerConfig configures one pull-based worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:7077".
	Coordinator string
	// ID names the worker in leases, the dashboard, and metric labels.
	ID string
	// Slots is how many jobs the worker holds concurrently; <=0 means
	// GOMAXPROCS (clamped like harness workers).
	Slots int
	// Params are the worker-local harness parameters: its own CacheDir
	// (local store, seeded from the coordinator by object sync),
	// FailDir, timeouts, and the worker's own Sweep (nil: RunWorker makes
	// one) — never its coordinator's. Scale/Dilute/Config/Sampling are
	// overridden per job from the lease; the sweep's Journal, if any,
	// stays local (the coordinator owns the authoritative completion
	// log).
	Params harness.Params
	// Client overrides the HTTP client (tests); nil uses a default with
	// a request timeout.
	Client *http.Client
	// BeforeComplete, when non-nil, runs just before the nth completion
	// report (1-based). The CI fabric drill uses it to kill a worker
	// after its job executed but before the coordinator hears about it
	// — the lease-expiry path a real crash takes.
	BeforeComplete func(n int)
}

// RunWorker pulls jobs from the coordinator until the sweep completes
// (nil), the context cancels (ctx.Err() after draining in-flight
// jobs), the coordinator becomes unreachable for too long, or its
// heartbeat answer shows it is another build. RunWorker
// owns the worker's sweep: whatever the reason, it returns only after
// closing it, so the worker's local store holds every outcome the worker
// reported.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	w, err := newWorker(cfg)
	if err != nil {
		return err
	}
	defer w.sweep.Close()
	return w.run(ctx)
}

const (
	// workerOfflineGrace is how long a slot tolerates an unreachable
	// coordinator before the worker gives up.
	workerOfflineGrace = 30 * time.Second
	// offlineBackoff spaces retries against a coordinator that does not
	// answer (jittered for leases, linear for completion reports, fixed
	// for heartbeats). It plays no part while the coordinator is
	// reachable: an idle slot is parked in its lease request.
	offlineBackoff = 200 * time.Millisecond
	// requestTimeout bounds one HTTP exchange; it must stay well above
	// the coordinator's leaseHold, which a lease request may sit out.
	requestTimeout = 30 * time.Second
)

type worker struct {
	cfg    WorkerConfig
	sweep  *harness.Sweep // cfg.Params.Sweep
	client *http.Client
	base   string
	slots  int

	mu        sync.Mutex
	completed int
	running   map[string]bool // lease ids of the jobs the slots are running
}

func newWorker(cfg WorkerConfig) (*worker, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("fabric: worker needs a coordinator URL")
	}
	if cfg.ID == "" {
		return nil, errors.New("fabric: worker needs an id")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: requestTimeout}
	}
	if cfg.Params.Sweep == nil {
		cfg.Params.Sweep = harness.NewSweep()
	}
	return &worker{
		cfg:     cfg,
		sweep:   cfg.Params.Sweep,
		client:  client,
		base:    strings.TrimRight(cfg.Coordinator, "/"),
		slots:   harness.ResolveWorkers(cfg.Slots),
		running: map[string]bool{},
	}, nil
}

func (w *worker) run(ctx context.Context) error {
	// The first heartbeat goes out before any slot asks for a lease, so
	// the coordinator knows the worker's slot count from its first
	// contact; its answer sets the cadence.
	next, err := w.heartbeat(false)
	if err != nil {
		return err
	}
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	hbStop := make(chan struct{})
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		w.heartbeatLoop(hbStop, next, fail)
	}()

	errs := make([]error, w.slots)
	var wg sync.WaitGroup
	for i := 0; i < w.slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.slotLoop(ctx)
		}(i)
	}
	wg.Wait()
	close(hbStop)
	hbDone.Wait()
	w.heartbeat(true) // the goodbye: the coordinator's Drain waits for it
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return errors.Join(errs...)
}

// slotLoop is one lease slot: ask (parking on the coordinator while it
// has nothing), execute, report, repeat. A 410 ends the slot (sweep
// complete); a canceled context ends it at once when parked, or after
// the in-flight job drains.
func (w *worker) slotLoop(ctx context.Context) error {
	offlineSince := time.Time{}
	for ctx.Err() == nil {
		// Parked on the coordinator until there is a job (200), the sweep
		// closes (410), the hold bound passes (204) or ctx cancels.
		var lease LeaseResponse
		status, err := w.post(ctx, "/v1/lease", LeaseRequest{Worker: w.cfg.ID}, &lease)
		if err == nil && status != http.StatusOK && status != http.StatusNoContent && status != http.StatusGone {
			err = fmt.Errorf("lease: HTTP %d", status)
		}
		switch {
		case ctx.Err() != nil:
			// A lease that arrived after cancellation goes back unexecuted.
			// (One granted to a request the cancellation aborted is handed
			// back by the coordinator itself.)
			if err == nil && status == http.StatusOK {
				w.post(context.WithoutCancel(ctx), "/v1/release", ReleaseRequest{LeaseID: lease.LeaseID}, nil)
			}
			return nil // run() reports ctx.Err()
		case err != nil:
			if offlineSince.IsZero() {
				offlineSince = time.Now()
			} else if time.Since(offlineSince) > workerOfflineGrace {
				return fmt.Errorf("fabric: coordinator unreachable for %s: %w", workerOfflineGrace, err)
			}
			sleepCtx(ctx, offlineBackoff/2+rand.N(offlineBackoff))
			continue
		case status == http.StatusGone:
			return nil
		case status == http.StatusNoContent: // hold expired: ask again at once
			offlineSince = time.Time{}
			continue
		}
		offlineSince = time.Time{}
		if err := w.executeAndReport(ctx, lease); err != nil {
			return err
		}
	}
	return nil
}

// sleepCtx waits d, or until cancellation; it reports whether the full
// wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// executeAndReport runs one leased job through harness.ExecuteJob — the
// path a local sweep's jobs take — and reports the Outcome it returns.
// The job itself is never canceled mid-simulation by shutdown: the slot
// drains it, reports, and only then exits — preserving lease semantics
// (the coordinator would re-lease anything unreported anyway).
func (w *worker) executeAndReport(ctx context.Context, lease LeaseResponse) error {
	// The heartbeats renew the lease while it is running here, and stop
	// when it is reported or abandoned.
	w.mu.Lock()
	w.running[lease.LeaseID] = true
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.running, lease.LeaseID)
		w.mu.Unlock()
	}()
	spec := lease.Job
	jp, job, err := w.paramsFor(spec)
	if err == nil {
		// Verify the lease describes the point we think it does: the
		// fingerprint must round-trip through our own resolution.
		fp, key, ferr := harness.FingerprintKey(jp, job)
		switch {
		case ferr != nil:
			err = fmt.Errorf("fingerprint: %w", ferr)
		case fp != spec.FP || key != spec.Key:
			err = fmt.Errorf("fingerprint mismatch: lease says %s, resolved %s", spec.Key, key)
		}
	}
	if err != nil {
		// A malformed lease is the coordinator's bug; fail the job loudly
		// rather than letting it bounce between workers forever.
		return w.reportComplete(ctx, lease, harness.Outcome{
			Entry: harness.JournalEntry{
				FP: spec.Key, Workload: spec.Workload, Variant: spec.Variant,
				Status: "failed", Error: err.Error(),
				Time: time.Now().UTC().Format(time.RFC3339),
			},
			Work: harness.RunMetrics{Executed: 1, Failures: 1},
		})
	}

	// Seed the local store with the prefix group's checkpoint if the
	// coordinator has one (another worker's donor run), so this worker
	// forks instead of re-simulating the prefix.
	if spec.PrefixFP != "" {
		w.pullCheckpoint(jp, spec.PrefixFP)
	}

	// A failed job's Outcome says so itself; the error adds nothing the
	// coordinator could use.
	out, _ := harness.ExecuteJob(jp, job)

	// Publish a checkpoint this run captured (donor side of the fork
	// group) so the rest of the fleet forks from it.
	if out.Work.CheckpointsCaptured > 0 {
		w.pushCheckpoint(jp, spec.PrefixFP)
	}
	return w.reportComplete(ctx, lease, out)
}

// paramsFor reconstructs the worker-local Params and Job for a lease.
func (w *worker) paramsFor(spec JobSpec) (harness.Params, harness.Job, error) {
	jp := w.cfg.Params
	var cfg config.GPUConfig
	if err := json.Unmarshal(spec.Config, &cfg); err != nil {
		return jp, harness.Job{}, fmt.Errorf("config: %w", err)
	}
	jp.Config = cfg
	jp.Scale = spec.Scale
	jp.Dilute = spec.Dilute
	jp.Sampling = spec.Sampling
	jp.CheckInvariants = spec.CheckInvariants
	jp.Checkpoint = spec.PrefixFP != ""
	if spec.RunTimeoutMS > 0 {
		jp.RunTimeout = time.Duration(spec.RunTimeoutMS) * time.Millisecond
	}
	job := harness.Job{Workload: spec.Workload, Variant: spec.Variant, PrefixFP: spec.PrefixFP}
	return jp, job, nil
}

// pullCheckpoint seeds the local store with the coordinator's
// checkpoint for the prefix group, if we lack it and it has one. The
// envelope's embedded fingerprint is verified by the fork loader on
// read, so a bad sync degrades to a full run, never a wrong one.
func (w *worker) pullCheckpoint(p harness.Params, prefixFP string) {
	key := harness.CacheKey(prefixFP)
	if _, err := w.sweep.GetObject(p, resultstore.KindCheckpoint, key); err == nil {
		return // already local
	}
	b, status, err := w.get("/v1/object/" + string(resultstore.KindCheckpoint) + "/" + key)
	if err != nil || status != http.StatusOK {
		return
	}
	w.sweep.PutObject(p, resultstore.KindCheckpoint, key, b)
}

// pushCheckpoint publishes the local checkpoint for the prefix group
// to the coordinator. Unconditional put: deterministic donors make any
// concurrent writes content-identical.
func (w *worker) pushCheckpoint(p harness.Params, prefixFP string) {
	key := harness.CacheKey(prefixFP)
	if b, err := w.sweep.GetObject(p, resultstore.KindCheckpoint, key); err == nil {
		w.post(context.Background(), "/v1/object/"+string(resultstore.KindCheckpoint)+"/"+key, b, nil)
	}
}

// reportComplete posts the completion, retrying transient failures —
// an unreported job would burn a full lease TTL before re-dispatch. The
// first attempt is made even under a canceled ctx (the slot drains what
// it ran); cancellation only cuts the waits between retries short.
func (w *worker) reportComplete(ctx context.Context, lease LeaseResponse, out harness.Outcome) error {
	w.mu.Lock()
	w.completed++
	n := w.completed
	w.mu.Unlock()
	if w.cfg.BeforeComplete != nil {
		w.cfg.BeforeComplete(n)
	}
	req := CompleteRequest{LeaseID: lease.LeaseID, Worker: w.cfg.ID, Outcome: out}
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 && !sleepCtx(ctx, time.Duration(attempt)*offlineBackoff) {
			break
		}
		status, err := w.post(context.WithoutCancel(ctx), "/v1/complete", req, nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if err == nil && status == http.StatusNotFound {
			// The coordinator no longer knows the job (restarted with a
			// fresh queue); nothing to do — the result is safe in our
			// local store.
			return nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("complete: HTTP %d", status)
		}
	}
	return fmt.Errorf("fabric: reporting completion of %s: %w", out.Entry.FP, lastErr)
}

// heartbeatLoop heartbeats, first after next, until the slots have
// drained (stop) — a canceled worker keeps its leases alive while its
// in-flight jobs finish. A coordinator that answers without a lease TTL
// fails the worker.
func (w *worker) heartbeatLoop(stop <-chan struct{}, next time.Duration, fail context.CancelCauseFunc) {
	t := time.NewTimer(next)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			next, err := w.heartbeat(false)
			if err != nil {
				fail(err)
				return
			}
			t.Reset(next)
		}
	}
}

// heartbeat reports the worker's slots and the leases it is running,
// which it renews, and returns when the next heartbeat is due: a third of
// the lease TTL the coordinator answered with, or offlineBackoff without
// an answer. A 200 answer without a TTL is an error: the coordinator
// speaks another version of the protocol and renews nothing.
func (w *worker) heartbeat(goodbye bool) (time.Duration, error) {
	w.mu.Lock()
	var leases []string
	for id := range w.running {
		leases = append(leases, id)
	}
	w.mu.Unlock()
	var resp HeartbeatResponse
	status, err := w.post(context.Background(), "/v1/heartbeat", HeartbeatRequest{
		Worker:  w.cfg.ID,
		Slots:   w.slots,
		Leases:  leases,
		Goodbye: goodbye,
	}, &resp)
	switch {
	case status == http.StatusOK && (err != nil || resp.TTLMS <= 0):
		return 0, errors.New("fabric: the coordinator's heartbeat answer carries no lease TTL; worker and coordinator must be the same build")
	case err != nil || status != http.StatusOK:
		return offlineBackoff, nil
	}
	return time.Duration(resp.TTLMS) * time.Millisecond / 3, nil
}

// post sends body as JSON — a []byte is a store envelope and travels as
// is — and returns the HTTP status, decoding a 200 response into out when
// out is non-nil.
func (w *worker) post(ctx context.Context, path string, body, out any) (int, error) {
	b, encoded := body.([]byte)
	ctype := "application/octet-stream"
	if !encoded {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return 0, err
		}
		ctype = "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func (w *worker) get(path string) ([]byte, int, error) {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return b, resp.StatusCode, nil
}
