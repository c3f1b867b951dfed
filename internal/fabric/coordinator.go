package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
)

// The fabric's timing constants. Everything else is an event: a lease
// request with nothing to lease parks until the queue changes, and the
// end of a sweep waits for goodbyes, not for a clock.
const (
	// DefaultLeaseTTL is how long a worker holds a job before the
	// coordinator reclaims it; every heartbeat extends the leases it lists
	// by this, workers heartbeat at a third of it, and a worker silent for
	// longer is presumed dead.
	DefaultLeaseTTL = 10 * time.Second
	// leaseHold bounds how long a lease request with nothing leasable
	// stays parked before it answers 204 and the worker re-asks. It must
	// stay well under the worker's HTTP client timeout.
	leaseHold = 10 * time.Second
	// DrainCap bounds how long Drain waits for goodbyes: a worker that
	// died without one costs the end of the sweep at most this.
	DrainCap = 1500 * time.Millisecond
)

// Config configures a Coordinator.
type Config struct {
	// Params are the coordinator-side harness parameters, bound to the
	// coordinator's Sweep: its result store (the fleet's shared cache and
	// completion log), journal, monitor, and tracer — the same Sweep the
	// experiments run in. They carry no Ctx: a completion that arrives
	// while the sweep is being canceled must still commit. A nil Sweep
	// gets a private one (enough for a store-less coordinator; nobody
	// closes it).
	Params harness.Params
	// LeaseTTL overrides DefaultLeaseTTL.
	LeaseTTL time.Duration
	// now is the test clock seam.
	now func() time.Time
}

type jobState int

const (
	jobPending jobState = iota
	jobLeased
	jobDone
)

// job is one fingerprint-keyed simulation point in the coordinator
// queue. Identical points requested by different experiments coalesce
// into one job (the fabric-level analogue of the memo cache).
type job struct {
	spec     JobSpec
	state    jobState
	leaseID  string
	worker   string
	deadline time.Time
	leases   int // grants, for churn accounting

	// Where the dispatch time went: queued accumulates the time spent
	// pending (no worker had it), the rest of enqueued..doneAt is time
	// under a lease plus the completion commit.
	enqueued     time.Time
	pendingSince time.Time
	queued       time.Duration
	doneAt       time.Time

	out  harness.Outcome // the accepted completion; set before done closes
	done chan struct{}
}

// workerInfo is the fleet status's record of one worker; the leases it
// holds are byLease's.
type workerInfo struct {
	id          string
	slots       int
	lastSeen    time.Time
	goodbye     bool // said its final heartbeat and has not been heard from since
	completions int
	simCycles   int64
}

// Coordinator owns the job queue, the lease table, and the distributed
// completion log. It is driven from two sides: the sweep side calls
// Executor()'s Execute for each job its memo and store cannot answer
// (blocking until a worker delivers), and the fleet side calls the HTTP
// handlers in server.go.
type Coordinator struct {
	cfg   Config
	sweep *harness.Sweep // cfg.Params.Sweep
	ttl   time.Duration

	hold     time.Duration // leaseHold; tests shorten it
	drainCap time.Duration // DrainCap; tests shorten it

	mu        sync.Mutex
	jobs      map[string]*job // by cache key
	byLease   map[string]*job // live leases by lease id
	pending   []string        // FIFO of pending job keys
	workers   map[string]*workerInfo
	closed    bool // sweep complete: leases answer 410
	nextLease int64
	parked    int // lease requests waiting on leasable
	// leasable is closed (and replaced) whenever a parked lease request
	// could now be answered: a job became pending or the sweep closed.
	// departed likewise on every goodbye, for Drain.
	leasable chan struct{}
	departed chan struct{}

	leasesGranted  int64
	leasesRenewed  int64
	leasesExpired  int64
	leasesReleased int64
	completions    int64
	dupCompletions int64

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New starts a coordinator (including its lease janitor). Close it
// when the sweep is finished.
func New(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.Params.Sweep == nil {
		cfg.Params.Sweep = harness.NewSweep()
	}
	c := &Coordinator{
		cfg:         cfg,
		sweep:       cfg.Params.Sweep,
		ttl:         cfg.LeaseTTL,
		hold:        leaseHold,
		drainCap:    DrainCap,
		jobs:        map[string]*job{},
		byLease:     map[string]*job{},
		workers:     map[string]*workerInfo{},
		leasable:    make(chan struct{}),
		departed:    make(chan struct{}),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	c.sweep.Monitor.Fleet = c.Status
	go c.janitor()
	return c
}

// Close marks the sweep complete — parked and subsequent lease requests
// answer 410 so workers exit — and stops the janitor. Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	wake(&c.leasable)
	c.mu.Unlock()
	close(c.janitorStop)
	<-c.janitorDone
}

// Drain closes the sweep and waits until every worker still considered
// live has said goodbye (its final heartbeat, sent after its last slot
// saw the 410), so the caller can tear the listener down without a
// worker meeting a refused connection. A worker silent for a lease TTL
// is presumed dead and not waited for; one that dies later costs at most
// DrainCap.
func (c *Coordinator) Drain() {
	c.Close()
	limit := time.NewTimer(c.drainCap)
	defer limit.Stop()
	for {
		now := c.cfg.now()
		c.mu.Lock()
		live := 0
		for _, w := range c.workers {
			if !w.goodbye && now.Sub(w.lastSeen) <= c.ttl {
				live++
			}
		}
		departed := c.departed
		c.mu.Unlock()
		if live == 0 {
			return
		}
		select {
		case <-departed:
		case <-limit.C:
			return
		}
	}
}

// wake releases everything waiting on *ch and re-arms it. Callers hold
// c.mu.
func wake(ch *chan struct{}) {
	close(*ch)
	*ch = make(chan struct{})
}

// janitor reclaims expired leases: the job returns to the head of the
// pending queue (it has waited longest) and the next lease request
// re-dispatches it. This is the whole crash story — a dead worker
// simply stops heartbeating.
func (c *Coordinator) janitor() {
	defer close(c.janitorDone)
	tick := time.NewTicker(c.ttl / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case <-tick.C:
			c.reclaimExpired()
		}
	}
}

func (c *Coordinator) reclaimExpired() {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range c.byLease {
		if now.After(j.deadline) {
			c.leasesExpired++
			c.requeueLocked(j, now)
		}
	}
}

// requeueLocked ends j's lease without a completion: the job returns to
// the head of the pending queue (it has waited longest) and parked
// lease requests are woken for it.
func (c *Coordinator) requeueLocked(j *job, now time.Time) {
	delete(c.byLease, j.leaseID)
	j.state = jobPending
	j.leaseID = ""
	j.pendingSince = now
	c.pending = append([]string{j.spec.Key}, c.pending...)
	wake(&c.leasable)
}

// Executor returns the harness.Executor that leases jobs to the fleet.
// Install it as Params.Executor on the sweep the coordinator runs.
func (c *Coordinator) Executor() harness.Executor { return fleetExecutor{c} }

// fleetExecutor implements harness.Executor by enqueueing the job and
// blocking until a worker's completion for it has been committed (or the
// sweep context cancels). The Outcome it returns is the worker's own.
type fleetExecutor struct{ c *Coordinator }

func (e fleetExecutor) Execute(p harness.Params, j harness.Job, cfg config.GPUConfig, fp string) (harness.Outcome, error) {
	b, err := json.Marshal(&cfg)
	if err != nil {
		return harness.Outcome{}, fmt.Errorf("fabric: marshal config for %s/%s: %w", j.Workload, j.Variant, err)
	}
	key := harness.CacheKey(fp)
	jb := e.c.enqueue(JobSpec{
		Key:             key,
		FP:              fp,
		Workload:        j.Workload,
		Variant:         j.Variant,
		Scale:           p.Scale,
		Dilute:          p.Dilute,
		Config:          b,
		Sampling:        p.Sampling,
		PrefixFP:        j.PrefixFP,
		CheckInvariants: p.CheckInvariants,
		RunTimeoutMS:    p.RunTimeout.Milliseconds(),
	})

	tr := p.Sweep.Trace
	did := tr.Begin(p.Span(), "fabric.dispatch", j.Workload, j.Variant)
	tr.SetAttr(did, "key", key[:12])
	defer tr.End(did)

	ctx := p.Context()
	select {
	case <-jb.done:
	case <-ctx.Done():
		tr.SetAttr(did, "outcome", "canceled")
		return harness.Outcome{}, fmt.Errorf("fabric: dispatch %s/%s: %w", j.Workload, j.Variant, ctx.Err())
	}
	e.c.mu.Lock()
	out, worker := jb.out, jb.worker
	queued, run := jb.queued, jb.doneAt.Sub(jb.enqueued)-jb.queued
	e.c.mu.Unlock()
	tr.SetAttr(did, "worker", worker)
	tr.SetAttr(did, "queued_ms", strconv.FormatInt(queued.Milliseconds(), 10))
	tr.SetAttr(did, "run_ms", strconv.FormatInt(run.Milliseconds(), 10))
	if out.Result == nil {
		tr.SetAttr(did, "outcome", "error")
		return out, fmt.Errorf("fabric: %s/%s on %s: %s", j.Workload, j.Variant, worker, out.Entry.Error)
	}
	tr.SetAttr(did, "outcome", "ok")
	return out, nil
}

// enqueue adds the job to the queue and wakes parked lease requests for
// it. A key is enqueued at most once: the sweep's memo hands each
// fingerprint to the Executor once, and a coordinator serves one sweep.
func (c *Coordinator) enqueue(spec JobSpec) *job {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	j := &job{spec: spec, done: make(chan struct{}), enqueued: now, pendingSince: now}
	c.jobs[spec.Key] = j
	c.pending = append(c.pending, spec.Key)
	wake(&c.leasable)
	return j
}

// awaitLease is the long-poll behind POST /v1/lease: it grants the
// longest-waiting pending job, parking while there is none until one is
// enqueued, reclaimed or released, or the sweep closes. Returns (resp,
// true) on a grant; (zero, false) with sweepDone=true once the sweep is
// closed, and with sweepDone=false when the hold bound passed or ctx
// (the client's connection) ended with nothing granted.
func (c *Coordinator) awaitLease(ctx context.Context, workerID string) (resp LeaseResponse, ok, sweepDone bool) {
	ctx, cancel := context.WithTimeout(ctx, c.hold)
	defer cancel()
	c.mu.Lock()
	defer c.mu.Unlock()
	for ctx.Err() == nil {
		resp, ok, sweepDone = c.leaseLocked(workerID, c.cfg.now())
		if ok || sweepDone {
			return resp, ok, sweepDone
		}
		// Parked under the same lock hold that found nothing, so no
		// wake-up can fall between the look and the wait.
		leasable := c.leasable
		c.parked++
		c.mu.Unlock()
		select {
		case <-leasable:
		case <-ctx.Done():
		}
		c.mu.Lock()
		c.parked--
	}
	return LeaseResponse{}, false, false
}

// leaseLocked grants the head of the pending queue to workerID, if
// there is one and the sweep is open.
func (c *Coordinator) leaseLocked(workerID string, now time.Time) (resp LeaseResponse, ok, sweepDone bool) {
	c.touchWorkerLocked(workerID, now)
	if c.closed {
		return LeaseResponse{}, false, true
	}
	for len(c.pending) > 0 {
		key := c.pending[0]
		c.pending = c.pending[1:]
		j := c.jobs[key] // a queued key's job exists: jobs are never deleted
		if j.state != jobPending {
			continue // completed (or re-leased) while queued
		}
		c.nextLease++
		j.state = jobLeased
		j.leaseID = "L" + strconv.FormatInt(c.nextLease, 10)
		j.worker = workerID
		j.deadline = now.Add(c.ttl)
		j.queued += now.Sub(j.pendingSince)
		j.leases++
		c.byLease[j.leaseID] = j
		c.leasesGranted++
		return LeaseResponse{LeaseID: j.leaseID, Job: j.spec}, true, false
	}
	return LeaseResponse{}, false, false
}

// release returns a leased job to the pending queue unexecuted: a
// draining worker hands back a lease it will not run, and the lease
// handler hands back one whose requester is gone.
func (c *Coordinator) release(leaseID string) bool {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.byLease[leaseID]
	if j == nil {
		return false
	}
	c.leasesReleased++
	c.requeueLocked(j, now)
	return true
}

// touchWorkerLocked records a contact from worker id. Any contact takes
// back an earlier goodbye: the id has (re)joined.
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) {
	w := c.workers[id]
	if w == nil {
		w = &workerInfo{id: id, slots: 1}
		c.workers[id] = w
	}
	w.lastSeen = now
	w.goodbye = false
}

// heartbeat records a worker's contact and slot count and extends by a
// TTL each lease it lists that it holds. A lease the worker holds but no
// longer runs (its report gave up, its grant never arrived, or the worker
// restarted under the same id) is not listed, so it lapses. A goodbye
// heartbeat is the worker's last word: Drain stops waiting for it.
func (c *Coordinator) heartbeat(hb HeartbeatRequest) HeartbeatResponse {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(hb.Worker, now)
	w := c.workers[hb.Worker]
	w.slots = hb.Slots
	for _, id := range hb.Leases {
		if j := c.byLease[id]; j != nil && j.worker == hb.Worker {
			j.deadline = now.Add(c.ttl)
			c.leasesRenewed++
		}
	}
	if hb.Goodbye {
		w.goodbye = true
		wake(&c.departed)
	}
	return HeartbeatResponse{TTLMS: c.ttl.Milliseconds()}
}

// complete accepts one job's Outcome from a worker: idempotent by key,
// and accepted even from an expired lease if the job is not yet done —
// the work is deterministic, so first-in wins and duplicates are dropped.
func (c *Coordinator) complete(req CompleteRequest) error {
	now := c.cfg.now()
	out := req.Outcome
	key := out.Entry.FP
	c.mu.Lock()
	j, ok := c.jobs[key]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("unknown job key %q", key)
	}
	if j.state == jobDone {
		c.dupCompletions++
		c.mu.Unlock()
		return nil
	}
	if (out.Result == nil) != (out.Entry.Status == "failed") {
		c.mu.Unlock()
		return fmt.Errorf("completion for %q is neither a result nor a failure", key)
	}
	if j.state == jobPending {
		// Completed by a lease that had expired before anyone took the
		// job again: the wait ends here.
		j.queued += now.Sub(j.pendingSince)
	}
	j.state = jobDone
	j.out = out
	j.worker = req.Worker
	delete(c.byLease, j.leaseID)
	j.leaseID = ""
	c.completions++
	c.touchWorkerLocked(req.Worker, now)
	if w := c.workers[req.Worker]; w != nil {
		w.completions++
		w.simCycles += out.Work.SimCycles
	}
	fp := j.spec.FP
	c.mu.Unlock()

	// Durability before visibility: the commit every local outcome goes
	// through, waited for. Only then is the completion acknowledged and
	// does the waiting Execute see the job done, so a coordinator crash
	// after this point resumes from its own journal and store like any
	// local sweep.
	<-harness.CommitOutcome(c.cfg.Params, fp, out)
	done := c.cfg.now()
	c.mu.Lock()
	j.doneAt = done
	c.mu.Unlock()
	close(j.done)
	return nil
}

// Status snapshots the fleet; the sweep's Monitor serves it (Fleet). A
// worker's Active counts the live leases it holds.
func (c *Coordinator) Status() *harness.FleetStatus {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &harness.FleetStatus{
		SweepClosed:          c.closed,
		LeasesParked:         c.parked,
		LeasesGranted:        c.leasesGranted,
		LeasesRenewed:        c.leasesRenewed,
		LeasesExpired:        c.leasesExpired,
		LeasesReleased:       c.leasesReleased,
		Completions:          c.completions,
		DuplicateCompletions: c.dupCompletions,
	}
	for _, j := range c.jobs {
		switch j.state {
		case jobPending:
			st.JobsPending++
		case jobLeased:
			st.JobsLeased++
		case jobDone:
			st.JobsDone++
		}
	}
	held := map[string]int{}
	for _, j := range c.byLease {
		held[j.worker]++
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, harness.WorkerStatus{
			ID:          w.id,
			Slots:       w.slots,
			Active:      held[w.id],
			LastSeen:    now.Sub(w.lastSeen).Seconds(),
			Completions: w.completions,
			SimCycles:   w.simCycles,
		})
	}
	slices.SortFunc(st.Workers, func(a, b harness.WorkerStatus) int { return strings.Compare(a.ID, b.ID) })
	return st
}
