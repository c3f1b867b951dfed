package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/resultstore"
	"repro/internal/testsupport"
)

// testClock is the coordinator's now() seam: advance it and call
// reclaimExpired directly instead of sleeping through real TTLs.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1_700_000_000, 0)} }

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

// leaseProtocolCoordinator builds a coordinator with a fake clock and a
// hand-enqueued job queue (no sweep attached).
func leaseProtocolCoordinator(t *testing.T, keys ...string) (*Coordinator, *testClock) {
	t.Helper()
	clk := newTestClock()
	c := New(Config{LeaseTTL: 10 * time.Second, now: clk.now})
	t.Cleanup(c.Close)
	for _, k := range keys {
		c.enqueue(JobSpec{Key: k, FP: "fp-" + k, Workload: "w-" + k})
	}
	return c, clk
}

// leaseNow is one non-blocking lease attempt: what a lease request does
// before it parks.
func leaseNow(c *Coordinator, worker string) (LeaseResponse, bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaseLocked(worker, c.cfg.now())
}

// waitParked blocks until exactly n lease requests are parked on c.
func waitParked(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Status().LeasesParked != n {
		if time.Now().After(deadline) {
			t.Fatalf("parked lease requests = %d, want %d", c.Status().LeasesParked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkActive asserts that the workers' Active counts add up to the
// jobs under a live lease: each is derived from the one lease table.
func checkActive(t *testing.T, c *Coordinator, after string) {
	t.Helper()
	st := c.Status()
	held := 0
	for _, w := range st.Workers {
		held += w.Active
	}
	if held != st.JobsLeased {
		t.Errorf("after %s: workers hold %d leases, %d jobs are leased: %+v", after, held, st.JobsLeased, st.Workers)
	}
}

func TestLeaseRenewExpireReclaim(t *testing.T) {
	c, clk := leaseProtocolCoordinator(t, "j1", "j2")

	l1, ok, done := leaseNow(c, "w1")
	if !ok || done {
		t.Fatalf("first lease: ok=%v done=%v", ok, done)
	}
	l2, ok, _ := leaseNow(c, "w2")
	if !ok {
		t.Fatal("second lease refused")
	}
	if l1.Job.Key != "j1" || l2.Job.Key != "j2" {
		t.Fatalf("FIFO violated: got %s then %s", l1.Job.Key, l2.Job.Key)
	}
	if _, ok, _ := leaseNow(c, "w3"); ok {
		t.Fatal("third lease granted with an empty queue")
	}
	checkActive(t, c, "grant")

	// w1 heartbeats halfway through the TTL, which renews its lease; w2
	// goes silent.
	clk.advance(6 * time.Second)
	if hb := c.heartbeat(HeartbeatRequest{Worker: "w1", Slots: 1, Leases: []string{l1.LeaseID}}); hb.TTLMS != 10_000 {
		t.Fatalf("heartbeat answered TTL %dms, want 10000", hb.TTLMS)
	}
	checkActive(t, c, "renew")
	clk.advance(6 * time.Second) // j2's deadline passes; j1's renewed one does not
	c.reclaimExpired()
	checkActive(t, c, "expiry")

	st := c.Status()
	if st.LeasesExpired != 1 || st.LeasesRenewed != 1 || st.JobsPending != 1 || st.JobsLeased != 1 {
		t.Fatalf("after expiry: %+v", st)
	}
	// The reclaimed job re-leases to a new worker.
	l3, ok, _ := leaseNow(c, "w3")
	if !ok || l3.Job.Key != "j2" {
		t.Fatalf("reclaimed job not re-leased: ok=%v key=%s", ok, l3.Job.Key)
	}
	if l3.LeaseID == l2.LeaseID {
		t.Fatal("re-lease reused the dead lease id")
	}
	checkActive(t, c, "re-lease")
	// The dead lease is gone: a heartbeat from its worker renews nothing
	// (the job is w3's now), and a release fails.
	c.heartbeat(HeartbeatRequest{Worker: "w2", Slots: 1, Leases: []string{l2.LeaseID, l3.LeaseID}})
	if st := c.Status(); st.LeasesRenewed != 1 {
		t.Fatalf("a heartbeat from a worker holding no lease renewed one: %+v", st)
	}
	if c.release(l2.LeaseID) {
		t.Fatal("released an expired lease")
	}

	// A heartbeat reports slots and renews the sender's own leases: w3
	// still holds j2.
	c.heartbeat(HeartbeatRequest{Worker: "w3", Slots: 1, Leases: []string{l3.LeaseID}})
	checkActive(t, c, "heartbeat")
	if w := c.Status().Workers[2]; w.ID != "w3" || w.Active != 1 {
		t.Errorf("w3 after its heartbeat: %+v, want one live lease", w)
	}
	if st := c.Status(); st.LeasesRenewed != 2 {
		t.Errorf("w3's heartbeat renewed %d leases in all, want 2", st.LeasesRenewed)
	}
	if !c.release(l3.LeaseID) {
		t.Fatal("release of a live lease refused")
	}
	checkActive(t, c, "release")
	out := harness.Outcome{
		Entry:  harness.JournalEntry{FP: "j1", Workload: "w-j1", Status: "ok", Cycles: 42},
		Result: &gpu.Result{Cycles: 42},
	}
	if err := c.complete(CompleteRequest{LeaseID: l1.LeaseID, Worker: "w1", Outcome: out}); err != nil {
		t.Fatal(err)
	}
	checkActive(t, c, "completion")
}

// TestHeartbeatRenewsOnlyListedLeases: a heartbeat renews the leases its
// worker lists as running and no others, so a lease the worker holds but
// has stopped running (a report that gave up, a grant whose answer was
// lost, a restart under the same id) lapses one TTL after its last renewal.
func TestHeartbeatRenewsOnlyListedLeases(t *testing.T) {
	c, clk := leaseProtocolCoordinator(t, "j1", "j2", "j3")
	l1, _, _ := leaseNow(c, "w1")
	l2, _, _ := leaseNow(c, "w1")
	l3, _, _ := leaseNow(c, "w2")

	// Heartbeats every third of the TTL list l1 only, and l3, which w1
	// does not hold.
	for i := 0; i < 4; i++ {
		clk.advance(4 * time.Second)
		c.heartbeat(HeartbeatRequest{Worker: "w1", Slots: 2, Leases: []string{l1.LeaseID, l3.LeaseID}})
		c.reclaimExpired()
	}
	st := c.Status()
	if st.LeasesExpired != 2 || st.LeasesRenewed != 4 || st.JobsLeased != 1 || st.JobsPending != 2 {
		t.Fatalf("after a TTL of heartbeats listing l1 alone: %+v, want l2 and l3 expired, l1 renewed 4 times", st)
	}
	c.mu.Lock()
	for _, id := range []string{l1.LeaseID, l2.LeaseID, l3.LeaseID} {
		if _, live := c.byLease[id]; live != (id == l1.LeaseID) {
			t.Errorf("lease %s live=%v, want only the listed %s live", id, live, l1.LeaseID)
		}
	}
	c.mu.Unlock()
	checkActive(t, c, "heartbeats")
}

// TestWorkerHeartbeatKeepsItsRunningLease: a worker's heartbeats list the
// lease a slot is running, so a job that runs longer than the TTL keeps
// it and completes without a re-lease.
func TestWorkerHeartbeatKeepsItsRunningLease(t *testing.T) {
	const ttl = 600 * time.Millisecond
	c := New(Config{LeaseTTL: ttl})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	// The spec has no config, so the slot fails the job at once; the hook
	// holds the report past the TTL, with the lease still running.
	j := c.enqueue(JobSpec{Key: "j1", FP: "fp-j1"})
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(), WorkerConfig{
			Coordinator: srv.URL, ID: "w1", Slots: 1,
			BeforeComplete: func(int) { time.Sleep(2 * ttl) },
		})
	}()
	select {
	case <-j.done:
	case <-time.After(10 * time.Second):
		t.Fatal("job never completed")
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if st := c.Status(); st.LeasesGranted != 1 || st.LeasesExpired != 0 || st.LeasesRenewed == 0 || st.Completions != 1 {
		t.Errorf("a job held past the TTL under heartbeats: %+v, want one lease, renewed, never expired", st)
	}
}

// TestWorkerRefusesAnotherBuildsCoordinator: a 200 heartbeat answer
// without a lease TTL comes from a coordinator that renews nothing the
// worker sends; the worker fails instead of running jobs that would lapse.
func TestWorkerRefusesAnotherBuildsCoordinator(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	err := RunWorker(context.Background(), WorkerConfig{Coordinator: srv.URL, ID: "w1", Slots: 1})
	if err == nil || !strings.Contains(err.Error(), "same build") {
		t.Fatalf("worker against a coordinator answering no TTL: %v, want a same-build error", err)
	}
}

func TestReleaseRequeuesAtHead(t *testing.T) {
	c, _ := leaseProtocolCoordinator(t, "j1", "j2")
	l1, _, _ := leaseNow(c, "w1")
	if !c.release(l1.LeaseID) {
		t.Fatal("release refused")
	}
	// The released job must come back before j2 (it has waited longest).
	l, ok, _ := leaseNow(c, "w1")
	if !ok || l.Job.Key != "j1" {
		t.Fatalf("released job not at queue head: %+v", l.Job)
	}
}

func TestCompleteIdempotentAndExpiredLeaseAccepted(t *testing.T) {
	c, clk := leaseProtocolCoordinator(t, "j1")
	l, _, _ := leaseNow(c, "w1")

	// The lease expires (crash suspected) and the job is re-leased...
	clk.advance(11 * time.Second)
	c.reclaimExpired()
	l2, ok, _ := leaseNow(c, "w2")
	if !ok {
		t.Fatal("re-lease refused")
	}

	// ...but the "dead" worker was only slow: its completion still lands.
	out := harness.Outcome{
		Entry:  harness.JournalEntry{FP: "j1", Workload: "w-j1", Status: "ok", Cycles: 42},
		Result: &gpu.Result{Cycles: 42},
	}
	if err := c.complete(CompleteRequest{LeaseID: l.LeaseID, Worker: "w1", Outcome: out}); err != nil {
		t.Fatalf("expired-lease completion refused: %v", err)
	}
	// The second worker's duplicate is dropped, not an error.
	if err := c.complete(CompleteRequest{LeaseID: l2.LeaseID, Worker: "w2", Outcome: out}); err != nil {
		t.Fatalf("duplicate completion errored: %v", err)
	}
	st := c.Status()
	if st.Completions != 1 || st.DuplicateCompletions != 1 || st.JobsDone != 1 {
		t.Fatalf("status after duplicate: %+v", st)
	}

	// Unknown keys and completions that are neither a result nor a
	// failure are rejected.
	unknown := out
	unknown.Entry.FP = "nope"
	if err := c.complete(CompleteRequest{Outcome: unknown}); err == nil {
		t.Fatal("unknown key accepted")
	}
	c.enqueue(JobSpec{Key: "j3", FP: "fp-j3"})
	empty := harness.Outcome{Entry: harness.JournalEntry{FP: "j3", Status: "ok"}}
	if err := c.complete(CompleteRequest{Outcome: empty}); err == nil {
		t.Fatal("completion with neither a result nor a failure accepted")
	}
}

// TestLateCompletionOfRequeuedJob: a lease expires and its job goes back
// to the head of the queue; before anyone leases it again, the original
// worker, only slow, completes it. The completion ends the job's wait
// (the time it sat requeued counts as queued), and the next lease request
// skips the done job still in the queue and grants the one behind it.
func TestLateCompletionOfRequeuedJob(t *testing.T) {
	c, clk := leaseProtocolCoordinator(t, "j1", "j2")
	l1, ok, _ := leaseNow(c, "w1")
	if !ok || l1.Job.Key != "j1" {
		t.Fatalf("first lease: ok=%v key=%s", ok, l1.Job.Key)
	}
	clk.advance(11 * time.Second)
	c.reclaimExpired()
	if st := c.Status(); st.LeasesExpired != 1 || st.JobsPending != 2 {
		t.Fatalf("after expiry: %+v, want 1 expired lease and both jobs pending", st)
	}

	clk.advance(2 * time.Second)
	out := harness.Outcome{
		Entry:  harness.JournalEntry{FP: "j1", Workload: "w-j1", Status: "ok", Cycles: 42},
		Result: &gpu.Result{Cycles: 42},
	}
	if err := c.complete(CompleteRequest{LeaseID: l1.LeaseID, Worker: "w1", Outcome: out}); err != nil {
		t.Fatalf("late completion of a requeued job refused: %v", err)
	}
	if st := c.Status(); st.Completions != 1 || st.JobsDone != 1 || st.JobsPending != 1 {
		t.Fatalf("after the late completion: %+v, want j1 done and j2 pending", st)
	}
	if q := c.jobs["j1"].queued; q != 2*time.Second {
		t.Fatalf("j1 queued %s, want the 2s it sat requeued", q)
	}

	l2, ok, _ := leaseNow(c, "w2")
	if !ok || l2.Job.Key != "j2" {
		t.Fatalf("next lease: ok=%v key=%s, want j2 (the done j1 skipped)", ok, l2.Job.Key)
	}
	if l, ok, _ := leaseNow(c, "w3"); ok {
		t.Fatalf("granted %s with no job pending", l.Job.Key)
	}
	if st := c.Status(); st.LeasesGranted != 2 || st.JobsLeased != 1 {
		t.Fatalf("after the skip: %+v, want 2 grants and j2 leased", st)
	}
}

func TestServerEndpoints(t *testing.T) {
	c := New(Config{Params: testSweepParams(t, t.TempDir())})
	defer c.Close()
	c.hold = 20 * time.Millisecond // the empty-queue lease below sits it out
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post("/v1/lease", `{"worker":""}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("lease without worker id: %d", resp.StatusCode)
	}
	if resp := post("/v1/lease", `{"worker":"w1"}`); resp.StatusCode != http.StatusNoContent {
		t.Errorf("lease with empty queue: %d, want 204", resp.StatusCode)
	}
	if resp := post("/v1/lease", `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed lease body: %d", resp.StatusCode)
	}
	if resp := post("/v1/heartbeat", `{"worker":""}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("heartbeat without worker id: %d", resp.StatusCode)
	}
	var hb HeartbeatResponse
	if resp := post("/v1/heartbeat", `{"worker":"w1","slots":2}`); resp.StatusCode != http.StatusOK ||
		json.NewDecoder(resp.Body).Decode(&hb) != nil || hb.TTLMS != DefaultLeaseTTL.Milliseconds() {
		t.Errorf("heartbeat: %d, answered %+v, want the lease TTL", resp.StatusCode, hb)
	}

	// Object sync: only the one store kind workers share is served. A
	// result object in particular reaches the store through a completion,
	// never through this door.
	for _, kind := range []string{"journal", "vtsim", "vtart"} {
		if resp := post("/v1/object/"+kind+"/abc", `{}`); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("put of non-syncable kind %s: %d", kind, resp.StatusCode)
		}
	}
	if resp := post("/v1/object/vtck/abc", `{broken`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("put of invalid JSON: %d", resp.StatusCode)
	}
	if resp := post("/v1/object/vtck/abc", `{"v":1}`); resp.StatusCode != http.StatusOK {
		t.Errorf("valid object put: %d", resp.StatusCode)
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := get("/v1/object/vtck/abc"); resp.StatusCode != http.StatusOK {
		t.Errorf("get of stored object: %d", resp.StatusCode)
	}
	if resp := get("/v1/object/vtck/missing"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("get of missing object: %d", resp.StatusCode)
	}
	if resp := get("/v1/object/vtsim/abc"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("get of non-syncable kind vtsim: %d", resp.StatusCode)
	}

	// A closed sweep answers leases with 410 so workers exit.
	c.Close()
	if resp := post("/v1/lease", `{"worker":"w1"}`); resp.StatusCode != http.StatusGone {
		t.Errorf("lease after close: %d, want 410", resp.StatusCode)
	}
}

// TestCoordinatorServesMonitor drives the coordinator's handler outside
// /v1: the sweep's Monitor answers there, its /status carries the
// fleet's keys top-level, its /metrics both namespaces, and the pprof
// endpoints are mounted.
func TestCoordinatorServesMonitor(t *testing.T) {
	c, _ := leaseProtocolCoordinator(t, "j1", "j2")
	leaseNow(c, "w1")
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, %v", path, resp.StatusCode, err)
		}
		return b.String()
	}

	status := get("/status")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(status), &doc); err != nil {
		t.Fatalf("/status is not JSON: %v", err)
	}
	for _, k := range []string{"schemaVersion", "sweepClosed", "jobsPending", "workers", "metrics"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("/status lacks top-level %q:\n%s", k, status)
		}
	}
	var st harness.MonitorStatus
	if err := json.Unmarshal([]byte(status), &st); err != nil {
		t.Fatal(err)
	}
	if st.SchemaVersion != harness.MonitorSchemaVersion || st.FleetStatus == nil ||
		st.SweepClosed || st.JobsPending != 1 || st.JobsLeased != 1 || len(st.Workers) != 1 {
		t.Errorf("/status = %s", status)
	}

	samples, err := testsupport.ValidateExposition(get("/metrics"))
	if err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	for series, want := range map[string]float64{
		"vtsweep_runs_requested_total":             0,
		"vtfabric_jobs_pending":                    1,
		"vtfabric_leases_granted_total":            1,
		`vtfabric_worker_active_jobs{worker="w1"}`: 1,
	} {
		if got, ok := samples[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}

	get("/debug/pprof/cmdline")
	if page := get("/"); !strings.Contains(page, "<td>w1</td>") {
		t.Errorf("page has no row for w1:\n%s", page)
	}
}

func TestWorkerExitsOnSweepComplete(t *testing.T) {
	c := New(Config{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	c.Close() // sweep already complete

	err := RunWorker(context.Background(), WorkerConfig{Coordinator: srv.URL, ID: "w1", Slots: 2})
	if err != nil {
		t.Fatalf("worker did not exit cleanly on 410: %v", err)
	}
}

func TestWorkerDrainsOnCancel(t *testing.T) {
	c := New(Config{})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, ID: "w1", Slots: 1})
	}()
	waitParked(t, c, 1) // the slot is parked in its lease request
	canceled := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("canceled worker returned %v, want context.Canceled", err)
		}
		if d := time.Since(canceled); d > 100*time.Millisecond {
			t.Errorf("parked worker took %s to return after cancel, want <100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not drain after cancel")
	}
	waitParked(t, c, 0) // the coordinator saw the parked request go
}

func TestWorkerConfigValidation(t *testing.T) {
	if _, err := newWorker(WorkerConfig{ID: "w"}); err == nil {
		t.Error("missing coordinator URL accepted")
	}
	if _, err := newWorker(WorkerConfig{Coordinator: "http://x"}); err == nil {
		t.Error("missing worker id accepted")
	}
}

// --- end-to-end fleet tests -------------------------------------------

// sweepJobs is the shared small batch: three workloads under both
// policies, plus a variant pair that differs only in swap latency so
// Checkpoint runs exercise prefix-fork grouping.
func sweepJobs() []harness.Job {
	jobs := []harness.Job{
		{Workload: "pathfinder", Variant: "baseline",
			Mutate: func(c *config.GPUConfig) { c.Policy = config.PolicyBaseline }},
		{Workload: "pathfinder", Variant: "vt",
			Mutate: func(c *config.GPUConfig) { c.Policy = config.PolicyVT }},
		{Workload: "nw", Variant: "baseline",
			Mutate: func(c *config.GPUConfig) { c.Policy = config.PolicyBaseline }},
		{Workload: "nw", Variant: "vt",
			Mutate: func(c *config.GPUConfig) { c.Policy = config.PolicyVT }},
		{Workload: "bfs", Variant: "vt",
			Mutate: func(c *config.GPUConfig) { c.Policy = config.PolicyVT }},
	}
	return jobs
}

// testSweepParams are the fixtures' sweep parameters over a store in
// dir, bound to a Sweep of their own that the test closes on exit.
func testSweepParams(t *testing.T, dir string) harness.Params {
	p := harness.Params{Scale: 1, Config: testsupport.Small(), Dilute: 50, Workers: 4, CacheDir: dir,
		Sweep: harness.NewSweep()}
	t.Cleanup(p.Sweep.Close)
	return p
}

// runJobs runs jobs as one plan under p and returns the results keyed by
// workload/variant, the determinism comparison unit.
func runJobs(p harness.Params, jobs []harness.Job) (map[string]*gpu.Result, error) {
	res, err := harness.RunJobs(p, jobs)
	got := map[string]*gpu.Result{}
	for i, r := range res {
		if r != nil {
			got[jobs[i].Workload+"/"+jobs[i].Variant] = r
		}
	}
	return got, err
}

// journalCycles parses a journal file into cache-key -> cycles.
func journalCycles(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, harness.JournalFileName))
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer f.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e harness.JournalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.FP == "" {
			continue // header or torn line
		}
		out[e.FP] = e.Cycles
	}
	return out
}

// baseline is what one journaled sweep of a batch produced. The serial
// single-process one is the ground truth: the same batch at any worker
// count, or through a fleet, must reproduce it — DeepEqual results, equal
// journal cycles, and the work counters to the digit.
type baseline struct {
	results map[string]*gpu.Result // by workload/variant
	cycles  map[string]int64       // journal cycles by cache key
	work    harness.RunMetrics
}

// sweepShape varies a fixture's sweep parameters (checkpointing,
// sampling); nil leaves the plain exact sweep.
type sweepShape func(*harness.Params)

func withCheckpoints(p *harness.Params) { p.Checkpoint = true }

func sampled(p *harness.Params) {
	p.Sampling = gpu.SamplingOptions{DetailedCycles: 400, FastForwardCycles: 2000, WarmupCycles: 100}
}

// journaledSweepParams is testSweepParams under shape, journaling into
// its store.
func journaledSweepParams(t *testing.T, dir string, shape sweepShape) harness.Params {
	t.Helper()
	p := testSweepParams(t, dir)
	if shape != nil {
		shape(&p)
	}
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// runBaseline runs the batch in one process, workers simulations side by
// side, in a sweep and store of its own.
func runBaseline(t *testing.T, jobs []harness.Job, shape sweepShape, workers int) baseline {
	t.Helper()
	dir := t.TempDir()
	p := journaledSweepParams(t, dir, shape)
	p.Workers = workers
	got, err := runJobs(p, jobs)
	if err != nil {
		t.Fatalf("single-process sweep: %v", err)
	}
	p.Sweep.Sync() // local outcomes commit write-behind
	return baseline{got, journalCycles(t, dir), p.Sweep.Metrics()}
}

// fleetFixture is one coordinator + httptest server + sweep params.
type fleetFixture struct {
	coord *Coordinator
	srv   *httptest.Server
	dir   string // coordinator store dir
	sweep harness.Params
}

func newFleetFixture(t *testing.T, shape sweepShape, ttl time.Duration) *fleetFixture {
	t.Helper()
	dir := t.TempDir()
	cp := journaledSweepParams(t, dir, shape)
	coord := New(Config{Params: cp, LeaseTTL: ttl})
	t.Cleanup(coord.Close)
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)

	sweep := cp
	sweep.Executor = coord.Executor()
	sweep.Workers = 8 // dispatch width, not simulation parallelism
	return &fleetFixture{coord: coord, srv: srv, dir: dir, sweep: sweep}
}

// startWorker starts one fleet worker beside its coordinator, in this
// process: a goroutine running RunWorker on a sweep of its own over the
// local store dir. The channel delivers its return (nil: it left on the
// sweep's 410); canceling ctx drains it.
func startWorker(ctx context.Context, url, id string, slots int, dir string) <-chan error {
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerConfig{
			Coordinator: url, ID: id, Slots: slots,
			Params: harness.Params{CacheDir: dir},
		})
	}()
	return done
}

// startWorker starts one fleet worker with a fresh local store.
func (f *fleetFixture) startWorker(t *testing.T, ctx context.Context, id string, slots int) <-chan error {
	t.Helper()
	return startWorker(ctx, f.srv.URL, id, slots, t.TempDir())
}

// verifyMatchesBaseline checks everything a finished sweep of a batch —
// at another worker count, or through a fleet (whose counters are the
// coordinator's sweep's: the workers' own Work carried on the wire) —
// must share with the serial single-process one: every Result, every
// journal cycle count, and the work counters.
func verifyMatchesBaseline(t *testing.T, want, got baseline) {
	t.Helper()
	if len(got.results) != len(want.results) {
		t.Fatalf("collected %d results, baseline %d", len(got.results), len(want.results))
	}
	for k, res := range want.results {
		if !reflect.DeepEqual(got.results[k], res) {
			t.Errorf("%s: result differs from the serial single-process one:\ngot:      %+v\nbaseline: %+v", k, got.results[k], res)
		}
	}
	if len(got.cycles) != len(want.cycles) {
		t.Fatalf("journal has %d entries, baseline %d", len(got.cycles), len(want.cycles))
	}
	for k, cycles := range want.cycles {
		if c, ok := got.cycles[k]; !ok || c != cycles {
			t.Errorf("journal key %s: cycles %d (present=%v), baseline %d", k, c, ok, cycles)
		}
	}
	// The store counters are each sweep's own (a coordinator asks its
	// store before leasing and its workers theirs before simulating; the
	// baseline asks once), and CacheHits is derived; everything else is
	// work, and must agree.
	work, base := got.work, want.work
	for _, m := range []*harness.RunMetrics{&work, &base} {
		m.StoreHits, m.StoreMisses, m.StoreRepairs, m.StoreRetries = 0, 0, 0, 0
	}
	if work != base {
		t.Errorf("work counters differ from the serial single-process ones:\ngot:      %+v\nbaseline: %+v", work, base)
	}
	if work.Executed == 0 || work.SimCycles == 0 {
		t.Errorf("counters record no work: %+v", work)
	}
}

// result is what the fixture's fleet sweep produced, to hold against a
// baseline.
func (f *fleetFixture) result(t *testing.T, got map[string]*gpu.Result) baseline {
	return baseline{got, journalCycles(t, f.dir), f.sweep.Sweep.Metrics()}
}

// TestFleetDeterminism is the tentpole contract, one equivalence: the
// same batch run serially, eight wide, and dispatched to a two-worker
// fleet — coordinator and workers as goroutines of this process, each on
// its own sweep and store — produces DeepEqual results, equal journal
// cycle counts and equal work counters — exact, and sampled, where the
// counters include what each run extrapolated.
func TestFleetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	for _, tc := range []struct {
		name  string
		shape sweepShape
	}{{"exact", nil}, {"sampled", sampled}} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := sweepJobs()
			want := runBaseline(t, jobs, tc.shape, 1)
			if sampledRuns := want.work.SampledRuns; (sampledRuns == len(jobs)) != (tc.shape != nil) {
				t.Fatalf("baseline sampled %d of %d runs", sampledRuns, len(jobs))
			}
			verifyMatchesBaseline(t, want, runBaseline(t, jobs, tc.shape, 8))

			f := newFleetFixture(t, tc.shape, 5*time.Second)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w1 := f.startWorker(t, ctx, "w1", 2)
			w2 := f.startWorker(t, ctx, "w2", 2)

			got, err := runJobs(f.sweep, jobs)
			if err != nil {
				t.Fatalf("fleet sweep: %v", err)
			}
			f.coord.Close() // workers see 410 and exit
			for _, w := range []<-chan error{w1, w2} {
				select {
				case err := <-w:
					if err != nil {
						t.Errorf("worker exit: %v", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("worker did not exit after sweep close")
				}
			}
			verifyMatchesBaseline(t, want, f.result(t, got))

			st := f.coord.Status()
			if st.Completions != int64(len(jobs)) {
				t.Errorf("completions = %d, want %d", st.Completions, len(jobs))
			}
			if len(st.Workers) != 2 {
				t.Errorf("fleet saw %d workers, want 2", len(st.Workers))
			}
			// The per-worker tallies split the coordinator's own count.
			var cycles int64
			for _, w := range st.Workers {
				cycles += w.SimCycles
			}
			if m := f.sweep.Sweep.Metrics(); cycles != m.SimCycles {
				t.Errorf("workers are credited %d cycles, the sweep counted %d", cycles, m.SimCycles)
			}
		})
	}
}

// TestFleetDeterminismWithCheckpoints repeats the determinism contract
// with prefix forking on: jobs that share a prefix group fork from a
// fleet-shared checkpoint, results must still be bit-identical, and the
// coordinator counts the capture, the forks and the prefix cycles they
// saved exactly as the single-process run does.
func TestFleetDeterminismWithCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	jobs := swapLatencyJobs()
	want := runBaseline(t, jobs, withCheckpoints, 1)
	if w := want.work; w.CheckpointsCaptured != 1 || w.CheckpointHits != 2 || w.PrefixCyclesSaved == 0 {
		t.Fatalf("baseline did not fork: %+v", w)
	}

	f := newFleetFixture(t, withCheckpoints, 5*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w1 := f.startWorker(t, ctx, "w1", 2)

	got, err := runJobs(f.sweep, jobs)
	if err != nil {
		t.Fatalf("fleet sweep: %v", err)
	}
	f.coord.Close()
	select {
	case err := <-w1:
		if err != nil {
			t.Errorf("worker exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after sweep close")
	}
	verifyMatchesBaseline(t, want, f.result(t, got))
}

// swapLatencyJobs differ only in the VT swap latencies — the shape the
// prefix-fork scheduler groups (fig-swaplat's sweep axis).
func swapLatencyJobs() []harness.Job {
	var jobs []harness.Job
	for _, lat := range []int{100, 400, 1600} {
		lat := lat
		jobs = append(jobs, harness.Job{
			Workload: "pathfinder", Variant: fmt.Sprintf("lat%d", lat),
			Mutate: func(c *config.GPUConfig) {
				c.Policy = config.PolicyVT
				c.VT.SwapOutLatency = lat
				c.VT.SwapInLatency = lat
			},
		})
	}
	return jobs
}

// TestFleetCrashReclaimResume kills one worker mid-sweep (it leases a
// job and never reports), and asserts the lease expires, the job
// re-dispatches to a healthy worker, and the sweep's outcome is still
// bit-identical to the single-process baseline.
func TestFleetCrashReclaimResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	jobs := sweepJobs()
	want := runBaseline(t, jobs, nil, 1)

	f := newFleetFixture(t, nil, 500*time.Millisecond)

	// The sweep must be enqueued before the doomed worker can lease.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got map[string]*gpu.Result
	sweepDone := make(chan error, 1)
	go func() {
		var err error
		got, err = runJobs(f.sweep, jobs)
		sweepDone <- err
	}()

	// The doomed worker takes one lease and vanishes: never heartbeats,
	// never completes — the exact path a SIGKILLed process takes.
	var doomed LeaseResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, _ := json.Marshal(LeaseRequest{Worker: "doomed"})
		resp, err := http.Post(f.srv.URL+"/v1/lease", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		if code == http.StatusOK {
			json.NewDecoder(resp.Body).Decode(&doomed)
			resp.Body.Close()
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never got a lease")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Now the healthy worker joins and must finish everything,
	// including the job the dead worker holds.
	w1 := f.startWorker(t, ctx, "w1", 2)

	select {
	case err := <-sweepDone:
		if err != nil {
			t.Fatalf("fleet sweep: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("sweep did not recover from the dead worker")
	}
	f.coord.Close()
	select {
	case err := <-w1:
		if err != nil {
			t.Errorf("worker exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after sweep close")
	}

	verifyMatchesBaseline(t, want, f.result(t, got))
	st := f.coord.Status()
	if st.LeasesExpired < 1 {
		t.Errorf("expected at least one expired lease, got %+v", st)
	}
	_ = doomed
}

// TestFleetWarmWorkerReportsCacheHit pins the crash/rejoin accounting:
// a worker whose local store already holds a result delivers it with no
// Work, so the coordinator counts a request and no execution for it.
func TestFleetWarmWorkerReportsCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	jobs := sweepJobs()[:1]

	// Warm a worker-local store by running the job into it directly.
	workerDir := t.TempDir()
	wp := testSweepParams(t, workerDir)
	local, err := runJobs(wp, jobs)
	if err != nil {
		t.Fatal(err)
	}
	wp.Sweep.Close() // the warmed store is the worker's from here

	f := newFleetFixture(t, nil, 5*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := startWorker(ctx, f.srv.URL, "warm", 1, workerDir)

	fleet, err := runJobs(f.sweep, jobs)
	if err != nil {
		t.Fatalf("fleet sweep: %v", err)
	}
	f.coord.Close()
	<-done

	if k := jobs[0].Workload + "/" + jobs[0].Variant; !reflect.DeepEqual(fleet[k], local[k]) {
		t.Error("warm-store result differs from the original run")
	}
	st := f.coord.Status()
	if st.Completions != 1 {
		t.Fatalf("completions = %d, want 1", st.Completions)
	}
	for _, w := range st.Workers {
		if w.ID == "warm" && w.SimCycles != 0 {
			t.Errorf("warm worker credited %d sim cycles for a store hit", w.SimCycles)
		}
	}
	if m := f.sweep.Sweep.Metrics(); m.Requests != 1 || m.Executed != 0 || m.SimCycles != 0 || m.CacheHits != 1 {
		t.Errorf("coordinator counted work for a worker's store hit: %+v", m)
	}
	if got := journalCycles(t, f.dir); len(got) != 1 {
		t.Errorf("coordinator journal has %d entries, want the delivered job's", len(got))
	}
}

// TestFleetThroughputScaling asserts the acceptance speedup: four
// workers finish a batch at >=3x the aggregate simcycles/s of a
// single-process, single-worker run. Meaningless without cores to
// parallelize over, so it skips on small machines.
func TestFleetThroughputScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	if n := harness.ResolveWorkers(0); n < 4 {
		t.Skipf("needs >=4 CPUs for a meaningful scaling run, have %d", n)
	}
	// A wider batch so the fleet has enough parallel work to amortize
	// dispatch overhead.
	var jobs []harness.Job
	for _, w := range []string{"pathfinder", "nw", "bfs", "spmv", "lud", "srad"} {
		w := w
		for _, pol := range []config.Policy{config.PolicyBaseline, config.PolicyVT} {
			pol := pol
			jobs = append(jobs, harness.Job{
				Workload: w, Variant: pol.String(),
				Mutate: func(c *config.GPUConfig) { c.Policy = pol },
			})
		}
	}

	p1 := testSweepParams(t, t.TempDir())
	p1.Workers = 1
	t0 := time.Now()
	if _, err := harness.RunJobs(p1, jobs); err != nil {
		t.Fatal(err)
	}
	m := p1.Sweep.Metrics()
	singleRate := float64(m.SimCycles) / time.Since(t0).Seconds()

	f := newFleetFixture(t, nil, 5*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var workers []<-chan error
	for i := 0; i < 4; i++ {
		workers = append(workers, f.startWorker(t, ctx, fmt.Sprintf("w%d", i), 1))
	}
	t1 := time.Now()
	if _, err := harness.RunJobs(f.sweep, jobs); err != nil {
		t.Fatal(err)
	}
	fleetWall := time.Since(t1).Seconds()
	f.coord.Close()
	for _, w := range workers {
		<-w
	}
	st := f.coord.Status()
	var fleetCycles int64
	for _, ws := range st.Workers {
		fleetCycles += ws.SimCycles
	}
	fleetRate := float64(fleetCycles) / fleetWall
	t.Logf("single-process %.0f simcycles/s, 4-worker fleet %.0f simcycles/s (%.2fx)",
		singleRate, fleetRate, fleetRate/singleRate)
	if fleetRate < 3*singleRate {
		t.Errorf("fleet aggregate %.0f simcycles/s is below 3x single-process %.0f", fleetRate, singleRate)
	}
}

// mixSweepParams is fig-multikernel's sweep shape for
// TestFleetLeasesMixes: a sweep of its own over a mirrored store, with the
// journal opened (and the mirror's header seeded) the way vtbench and
// vtsweepd do it.
func mixSweepParams(t *testing.T, dir, mirror string, resume bool) harness.Params {
	t.Helper()
	p := harness.Params{Scale: 1, Config: config.GTX480(), Dilute: 60, Workers: 2,
		CacheDir: dir, MirrorDir: mirror, Resume: resume, Sweep: harness.NewSweep()}
	t.Cleanup(p.Sweep.Close)
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// renderMixes runs fig-multikernel under p and returns its table.
func renderMixes(t *testing.T, p harness.Params) string {
	t.Helper()
	e, err := harness.Get("fig-multikernel")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := harness.RunExperiments(p, []harness.Experiment{e}, harness.Output{W: &sb}, nil); err != nil {
		t.Fatalf("fig-multikernel: %v", err)
	}
	p.Sweep.Sync()
	return sb.String()
}

// storeSide lists what a sweep left on one side of its store: the
// journal's bytes and the sorted keys of the result objects its
// store-index.jsonl holds live (content-keyed, so two sweeps of the same
// points leave the same keys).
func storeSide(t *testing.T, dir string) (journal string, objects []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, harness.JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := os.ReadFile(filepath.Join(dir, "store-index.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, ln := range strings.Split(string(idx), "\n") {
		var e struct {
			Kind, Key string
			Drop      bool
		}
		if json.Unmarshal([]byte(ln), &e) == nil && e.Kind == string(resultstore.KindResult) {
			live[e.Key] = !e.Drop
		}
	}
	for key, ok := range live {
		if ok {
			objects = append(objects, key)
		}
	}
	slices.Sort(objects)
	return string(b), objects
}

// TestFleetLeasesMixes: a concurrent-kernel mix is leased like any job.
// fig-multikernel through a one-worker fleet grants six leases and
// prints the local table, and both paths leave the same store: six
// result objects and a header-only journal (mixes commit no journal
// line; see harness.CommitOutcome) on primary and mirror, from which a
// -resume executes nothing.
// TestWorkerRetriesThroughOutages drives both of the worker's retry paths
// against a coordinator behind a proxy that refuses the first two
// /v1/lease requests and the first /v1/complete with a 503: the slot
// backs off and asks again, and reportComplete re-posts the completion.
// The job completes exactly once and the worker leaves on the sweep's
// 410. The assertions are counts, not clocks.
func TestWorkerRetriesThroughOutages(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	const refuseLeases, refuseCompletes = 2, 1
	cp := journaledSweepParams(t, t.TempDir(), nil)
	coord := New(Config{Params: cp, LeaseTTL: 5 * time.Second})
	t.Cleanup(coord.Close)
	var mu sync.Mutex
	seen := map[string]int{} // requests by path, refused ones included
	inner := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path]++
		n := seen[r.URL.Path]
		mu.Unlock()
		if (r.URL.Path == "/v1/lease" && n <= refuseLeases) || (r.URL.Path == "/v1/complete" && n <= refuseCompletes) {
			http.Error(w, "coordinator unavailable", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	sweep := cp
	sweep.Executor = coord.Executor()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	worker := startWorker(ctx, srv.URL, "w1", 1, t.TempDir())
	sweepDone := make(chan error, 1)
	go func() {
		got, err := runJobs(sweep, sweepJobs()[:1])
		if err == nil && len(got) != 1 {
			err = fmt.Errorf("%d results, want 1", len(got))
		}
		sweepDone <- err
	}()
	select {
	case err := <-sweepDone:
		if err != nil {
			t.Fatalf("sweep through the outages: %v", err)
		}
	case err := <-worker: // a worker that gave up leaves its job unreported
		t.Fatalf("worker left mid-sweep: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("sweep did not finish")
	}
	coord.Close()
	select {
	case err := <-worker:
		if err != nil {
			t.Fatalf("worker exit: %v, want a clean exit on the 410", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not exit after sweep close")
	}
	mu.Lock()
	leases, completes := seen["/v1/lease"], seen["/v1/complete"]
	mu.Unlock()
	// Past the refusals: the granted lease, and the ask the 410 answered.
	if leases < refuseLeases+2 || completes != refuseCompletes+1 {
		t.Errorf("%d lease and %d complete requests, want >= %d and %d",
			leases, completes, refuseLeases+2, refuseCompletes+1)
	}
	if st := coord.Status(); st.LeasesGranted != 1 || st.Completions != 1 || st.DuplicateCompletions != 0 || st.JobsDone != 1 {
		t.Errorf("fleet granted %d, completed %d (%d duplicate), done %d; want 1, 1 (0), 1",
			st.LeasesGranted, st.Completions, st.DuplicateCompletions, st.JobsDone)
	}
}

func TestFleetLeasesMixes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	resumeExecutesNothing := func(dir, mirror, want string) {
		t.Helper()
		p := mixSweepParams(t, dir, mirror, true) // a fresh sweep: only the store knows the mixes
		defer p.Sweep.Close()
		if got := renderMixes(t, p); got != want {
			t.Errorf("resumed table differs:\n%s\nvs\n%s", got, want)
		}
		if m := p.Sweep.Metrics(); m.Requests != 6 || m.Executed != 0 || m.StoreHits != 6 {
			t.Errorf("resume over %s: %+v, want 6 store hits and nothing executed", dir, m)
		}
	}

	localDir, localMirror := t.TempDir(), t.TempDir()
	lp := mixSweepParams(t, localDir, localMirror, false)
	want := renderMixes(t, lp)
	lp.Sweep.Close()
	wantJournal, wantObjs := storeSide(t, localDir)
	if n := strings.Count(wantJournal, "\n"); n != 1 || len(wantObjs) != 6 {
		t.Fatalf("local sweep left %d journal lines and %d result objects, want the header and 6:\n%s",
			n, len(wantObjs), wantJournal)
	}
	resumeExecutesNothing(localDir, localMirror, want)

	dir, mirror := t.TempDir(), t.TempDir()
	cp := mixSweepParams(t, dir, mirror, false)
	coord := New(Config{Params: cp, LeaseTTL: 5 * time.Second})
	t.Cleanup(coord.Close)
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	f := &fleetFixture{coord: coord, srv: srv, dir: dir, sweep: cp}
	f.sweep.Executor = coord.Executor()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w1 := f.startWorker(t, ctx, "w1", 1)

	if got := renderMixes(t, f.sweep); got != want {
		t.Errorf("fleet table differs from the local one:\n%s\nvs\n%s", got, want)
	}
	coord.Close()
	select {
	case err := <-w1:
		if err != nil {
			t.Errorf("worker exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after sweep close")
	}
	if st := coord.Status(); st.LeasesGranted != 6 || st.Completions != 6 {
		t.Errorf("fleet granted %d leases for %d completions, want 6 and 6", st.LeasesGranted, st.Completions)
	}
	cp.Sweep.Close()
	for _, d := range []string{localMirror, dir, mirror} {
		if j, objs := storeSide(t, d); j != wantJournal || !slices.Equal(objs, wantObjs) {
			t.Errorf("%s holds journal %q and objects %v,\nwant the local primary's %q and %v",
				d, j, objs, wantJournal, wantObjs)
		}
	}
	resumeExecutesNothing(dir, mirror, want)
}
