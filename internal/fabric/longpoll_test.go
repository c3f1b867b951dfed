package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/sweepobs"
)

// The event-driven half of the fabric: parked lease requests, grants to
// requesters that have gone, and the goodbye handshake behind Drain.

type leaseOutcome struct {
	resp      LeaseResponse
	ok        bool
	sweepDone bool
	after     time.Duration // how long the request was held
}

// parkLease issues one lease request on its own goroutine and returns
// once it is parked on c.
func parkLease(t *testing.T, c *Coordinator, ctx context.Context, worker string) <-chan leaseOutcome {
	t.Helper()
	out := make(chan leaseOutcome, 1)
	before := c.Status().LeasesParked
	go func() {
		t0 := time.Now()
		resp, ok, done := c.awaitLease(ctx, worker)
		out <- leaseOutcome{resp, ok, done, time.Since(t0)}
	}()
	waitParked(t, c, before+1)
	return out
}

func expectOutcome(t *testing.T, out <-chan leaseOutcome) leaseOutcome {
	t.Helper()
	select {
	case o := <-out:
		return o
	case <-time.After(5 * time.Second):
		t.Fatal("parked lease request was not woken")
		return leaseOutcome{}
	}
}

func TestParkedLeaseWokenBy(t *testing.T) {
	ctx := context.Background()

	t.Run("enqueue", func(t *testing.T) {
		c, _ := leaseProtocolCoordinator(t)
		out := parkLease(t, c, ctx, "w1")
		c.enqueue(JobSpec{Key: "j1", FP: "fp-j1"})
		if o := expectOutcome(t, out); !o.ok || o.resp.Job.Key != "j1" {
			t.Fatalf("woken without the enqueued job: %+v", o)
		}
	})

	t.Run("expiry-reclaim", func(t *testing.T) {
		c, clk := leaseProtocolCoordinator(t, "j1")
		dead, _, _ := leaseNow(c, "doomed")
		out := parkLease(t, c, ctx, "w1")
		clk.advance(11 * time.Second)
		c.reclaimExpired()
		o := expectOutcome(t, out)
		if !o.ok || o.resp.Job.Key != "j1" || o.resp.LeaseID == dead.LeaseID {
			t.Fatalf("woken without the reclaimed job: %+v", o)
		}
	})

	t.Run("release", func(t *testing.T) {
		c, _ := leaseProtocolCoordinator(t, "j1")
		held, _, _ := leaseNow(c, "w1")
		out := parkLease(t, c, ctx, "w2")
		if !c.release(held.LeaseID) {
			t.Fatal("release refused")
		}
		if o := expectOutcome(t, out); !o.ok || o.resp.Job.Key != "j1" {
			t.Fatalf("woken without the released job: %+v", o)
		}
	})

	t.Run("close", func(t *testing.T) {
		c, _ := leaseProtocolCoordinator(t)
		out := parkLease(t, c, ctx, "w1")
		c.Close()
		if o := expectOutcome(t, out); o.ok || !o.sweepDone {
			t.Fatalf("close did not answer the parked request with sweepDone: %+v", o)
		}
	})

	// Traffic that makes nothing leasable — heartbeats (one renewing a
	// lease), a goodbye, a completion — leaves the request parked: it is answered
	// "nothing" by the hold bound and not a moment earlier.
	t.Run("nothing else before the hold bound", func(t *testing.T) {
		c, _ := leaseProtocolCoordinator(t, "j1")
		c.hold = 150 * time.Millisecond
		held, _, _ := leaseNow(c, "w1")
		out := parkLease(t, c, ctx, "w2")
		c.heartbeat(HeartbeatRequest{Worker: "w1", Slots: 1, Leases: []string{held.LeaseID}})
		c.heartbeat(HeartbeatRequest{Worker: "w3", Slots: 1, Goodbye: true})
		done := harness.Outcome{
			Entry:  harness.JournalEntry{FP: "j1", Status: "ok", Cycles: 7},
			Result: &gpu.Result{Cycles: 7},
		}
		if err := c.complete(CompleteRequest{LeaseID: held.LeaseID, Worker: "w1", Outcome: done}); err != nil {
			t.Fatal(err)
		}
		o := expectOutcome(t, out)
		if o.ok || o.sweepDone {
			t.Fatalf("parked request answered with %+v, want nothing", o)
		}
		if o.after < c.hold {
			t.Fatalf("parked request answered after %s, before the %s hold bound", o.after, c.hold)
		}
		waitParked(t, c, 0)
	})
}

// brokenWriter is a client that is gone by the time the grant is
// written.
type brokenWriter struct{ h http.Header }

func (w brokenWriter) Header() http.Header       { return w.h }
func (w brokenWriter) WriteHeader(int)           {}
func (w brokenWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset by peer") }

func TestLeaseRequesterGoneNeverStrandsAJob(t *testing.T) {
	c, _ := leaseProtocolCoordinator(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// A parked request whose client disconnects just goes away...
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/lease", strings.NewReader(`{"worker":"flaky"}`))
		if err == nil {
			var resp *http.Response
			if resp, err = http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		gone <- err
	}()
	waitParked(t, c, 1)
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("disconnecting client: %v, want context.Canceled", err)
	}
	waitParked(t, c, 0)

	// ...and the job that arrives next goes to the next asker.
	c.enqueue(JobSpec{Key: "j1", FP: "fp-j1"})
	first, ok, _ := leaseNow(c, "w1")
	if !ok || first.Job.Key != "j1" {
		t.Fatalf("job enqueued after a disconnect not leasable: ok=%v %+v", ok, first.Job)
	}
	if !c.release(first.LeaseID) {
		t.Fatal("release refused")
	}

	// A grant that cannot be delivered returns to the head of the queue
	// at once: the next asker has it without waiting out a TTL.
	req := httptest.NewRequest(http.MethodPost, "/v1/lease", strings.NewReader(`{"worker":"flaky"}`))
	c.handleLease(brokenWriter{http.Header{}}, req)
	if st := c.Status(); st.JobsPending != 1 || st.JobsLeased != 0 {
		t.Fatalf("undeliverable grant left the job stranded: %+v", st)
	}
	l, ok, _ := leaseNow(c, "w2")
	if !ok || l.Job.Key != "j1" {
		t.Fatalf("job not re-leased to the next asker: ok=%v %+v", ok, l.Job)
	}

	// So does one granted to a request whose context has already ended.
	c.release(l.LeaseID)
	deadCtx, kill := context.WithCancel(context.Background())
	kill()
	if _, ok, _ := c.awaitLease(deadCtx, "flaky"); ok {
		t.Fatal("lease granted to a request that was already canceled")
	}
	if st := c.Status(); st.LeasesExpired != 0 || st.JobsPending != 1 {
		t.Fatalf("status after the gone requesters: %+v", st)
	}
}

// cancelOnLease delivers the lease response in full and cancels the
// worker before the worker sees it: a lease that arrives after
// cancellation.
type cancelOnLease struct{ cancel context.CancelFunc }

func (rt cancelOnLease) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/lease" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(b))
	rt.cancel()
	return resp, nil
}

func TestCanceledWorkerReleasesLateLease(t *testing.T) {
	c, _ := leaseProtocolCoordinator(t, "j1")
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := RunWorker(ctx, WorkerConfig{
		Coordinator: srv.URL, ID: "w1", Slots: 1,
		Client: &http.Client{Transport: cancelOnLease{cancel}},
	})
	if err != context.Canceled {
		t.Fatalf("canceled worker returned %v, want context.Canceled", err)
	}
	st := c.Status()
	if st.LeasesGranted != 1 || st.LeasesReleased != 1 || st.JobsPending != 1 || st.Completions != 0 {
		t.Fatalf("late lease not handed back unexecuted: %+v", st)
	}
}

// idleWorkers starts n two-slot workers against an empty queue and
// returns once every slot is parked.
func idleWorkers(t *testing.T, c *Coordinator, url string, n int) []<-chan time.Time {
	t.Helper()
	var exits []<-chan time.Time
	for i := 0; i < n; i++ {
		exit := make(chan time.Time, 1)
		id := fmt.Sprintf("w%d", i+1)
		go func() {
			err := RunWorker(context.Background(), WorkerConfig{Coordinator: url, ID: id, Slots: 2})
			if err != nil {
				t.Errorf("worker %s: %v, want a clean exit on 410", id, err)
			}
			exit <- time.Now()
		}()
		exits = append(exits, exit)
	}
	waitParked(t, c, 2*n)
	return exits
}

// TestNewWorkerReportsItsSlots: a worker's first contact is a heartbeat,
// so the fleet status shows its slot count as soon as its slots park, not
// a placeholder until a later heartbeat.
func TestNewWorkerReportsItsSlots(t *testing.T) {
	c := New(Config{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	exits := idleWorkers(t, c, srv.URL, 1) // both slots parked
	if ws := c.Status().Workers; len(ws) != 1 || ws[0].Slots != 2 {
		t.Errorf("fleet status with both slots parked: %+v, want one worker with 2 slots", ws)
	}
	c.Drain()
	<-exits[0]
}

func TestDrainReturnsOnLastGoodbye(t *testing.T) {
	c := New(Config{})
	srv := httptest.NewServer(c.Handler())
	exits := idleWorkers(t, c, srv.URL, 2)

	t0 := time.Now()
	c.Drain()
	drained := time.Now()
	// The listener can go the moment Drain returns: every worker has had
	// its 410 and said goodbye, so none meets a refused connection.
	srv.Close()
	for _, exit := range exits {
		select {
		case at := <-exit:
			if late := drained.Sub(at); late > 50*time.Millisecond {
				t.Errorf("Drain returned %s after a worker had exited, want <50ms", late)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker did not exit after Drain")
		}
	}
	if d := drained.Sub(t0); d >= DrainCap {
		t.Errorf("healthy fleet took %s to drain, the full cap", d)
	}
}

func TestDrainDoesNotWaitForTheDead(t *testing.T) {
	c, clk := leaseProtocolCoordinator(t, "j1")
	c.drainCap = time.Minute // a wait for the dead worker would hang the test

	// The doomed worker takes a lease and is never heard from again; by
	// the time the sweep ends it has been silent for more than a TTL.
	if _, ok, _ := leaseNow(c, "doomed"); !ok {
		t.Fatal("doomed worker got no lease")
	}
	clk.advance(11 * time.Second)
	c.reclaimExpired()
	c.heartbeat(HeartbeatRequest{Worker: "steady", Slots: 1})

	drained := make(chan struct{})
	go func() {
		c.Drain()
		close(drained)
	}()
	for !c.Status().SweepClosed {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a live worker had not said goodbye")
	default:
	}
	c.heartbeat(HeartbeatRequest{Worker: "steady", Slots: 1, Goodbye: true})
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain still waiting after the last live worker's goodbye")
	}
}

func TestDrainNeverExceedsTheCap(t *testing.T) {
	c, _ := leaseProtocolCoordinator(t)
	c.drainCap = 100 * time.Millisecond
	c.heartbeat(HeartbeatRequest{Worker: "mute", Slots: 1}) // live, never says goodbye
	t0 := time.Now()
	c.Drain()
	if d := time.Since(t0); d < c.drainCap || d > c.drainCap+time.Second {
		t.Fatalf("Drain with a mute worker took %s, want the %s cap", d, c.drainCap)
	}

	// A worker that says goodbye and then comes back is live again.
	c.heartbeat(HeartbeatRequest{Worker: "mute", Slots: 1, Goodbye: true})
	t0 = time.Now()
	c.Drain()
	if d := time.Since(t0); d >= c.drainCap {
		t.Fatalf("Drain after the goodbye took %s", d)
	}
	leaseNow(c, "mute")
	t0 = time.Now()
	c.Drain()
	if d := time.Since(t0); d < c.drainCap {
		t.Fatalf("Drain did not wait for a worker that came back: %s", d)
	}
}

// TestDispatchSpanSplitsQueuedAndRun pins the fabric.dispatch span's
// attrs: queued_ms is the time no worker had the job, run_ms the time
// from the grant to the committed completion.
func TestDispatchSpanSplitsQueuedAndRun(t *testing.T) {
	clk := newTestClock()
	p := testSweepParams(t, t.TempDir())
	p.Sweep.Trace = sweepobs.New()
	c := New(Config{Params: p, now: clk.now})
	defer c.Close()

	job := harness.Job{Workload: "pathfinder", Variant: "vt",
		Mutate: func(cfg *config.GPUConfig) { cfg.Policy = config.PolicyVT }}
	fp, _, err := harness.FingerprintKey(p, job)
	if err != nil {
		t.Fatal(err)
	}
	executed := make(chan error, 1)
	go func() {
		_, err := c.Executor().Execute(p, job, job.ConfigFor(p), fp)
		executed <- err
	}()
	for c.Status().JobsPending != 1 {
		time.Sleep(time.Millisecond)
	}
	clk.advance(2 * time.Second)
	l, ok, _ := leaseNow(c, "w1")
	if !ok {
		t.Fatal("dispatched job not leasable")
	}
	clk.advance(3 * time.Second)
	out := harness.Outcome{
		Entry:  harness.JournalEntry{FP: l.Job.Key, Workload: "pathfinder", Variant: "vt", Status: "ok", Cycles: 9},
		Result: &gpu.Result{Cycles: 9},
	}
	if err := c.complete(CompleteRequest{LeaseID: l.LeaseID, Worker: "w1", Outcome: out}); err != nil {
		t.Fatal(err)
	}
	if err := <-executed; err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Sweep.Trace.Dump().Spans {
		if s.Kind != "fabric.dispatch" {
			continue
		}
		if s.Attrs["queued_ms"] != "2000" || s.Attrs["run_ms"] != "3000" {
			t.Errorf("fabric.dispatch attrs = %v, want queued_ms 2000 and run_ms 3000", s.Attrs)
		}
		return
	}
	t.Fatal("no fabric.dispatch span recorded")
}
