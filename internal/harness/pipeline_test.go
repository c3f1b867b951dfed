package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
)

func TestResolveWorkersBounds(t *testing.T) {
	cases := []struct {
		in, want int
	}{
		{0, runtime.GOMAXPROCS(0)},
		{-5, runtime.GOMAXPROCS(0)},
		{1, 1},
		{7, 7},
		{maxSweepWorkers, maxSweepWorkers},
		{maxSweepWorkers + 1, maxSweepWorkers},
		{1 << 20, maxSweepWorkers},
	}
	for _, tc := range cases {
		if got := ResolveWorkers(tc.in); got != tc.want {
			t.Errorf("ResolveWorkers(%d) = %d, want %d", tc.in, got, tc.want)
		}
		if got := (Params{Workers: tc.in}).workers(); got != tc.want {
			t.Errorf("Params{Workers: %d}.workers() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// stubExecutor runs jobs without touching the simulator: it tracks
// concurrency and can block until released, so the dispatch semaphore
// and cancellation drain are testable in isolation.
type stubExecutor struct {
	block   chan struct{} // non-nil: Execute waits on it
	started atomic.Int32
	active  atomic.Int32
	peak    atomic.Int32
	done    atomic.Int32
}

func (s *stubExecutor) Execute(p Params, j Job, cfg config.GPUConfig, fp string) (Outcome, error) {
	s.started.Add(1)
	n := s.active.Add(1)
	for {
		old := s.peak.Load()
		if n <= old || s.peak.CompareAndSwap(old, n) {
			break
		}
	}
	if s.block != nil {
		<-s.block
	}
	s.active.Add(-1)
	s.done.Add(1)
	return Outcome{Result: &gpu.Result{Cycles: 1}}, nil
}

// tapExecutor is the local executor with a tap on it: a test reads every
// Outcome its sweep's executed jobs produced.
type tapExecutor struct {
	mu   sync.Mutex
	outs []Outcome
}

func (x *tapExecutor) Execute(p Params, j Job, cfg config.GPUConfig, fp string) (Outcome, error) {
	out, err := localExecutor{}.Execute(p, j, cfg, fp)
	x.mu.Lock()
	x.outs = append(x.outs, out)
	x.mu.Unlock()
	return out, err
}

// manyStubJobs are n distinct points: the executor sits below the memo,
// which would coalesce jobs that differ only in their variant label.
func manyStubJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Workload: fmt.Sprintf("stub%d", i), Variant: string(rune('a' + i%26))}
	}
	return jobs
}

// TestRunJobsSemaphoreBound pins the dispatch invariant: at most
// Params.Workers jobs execute concurrently, however many are queued.
func TestRunJobsSemaphoreBound(t *testing.T) {
	exec := &stubExecutor{block: make(chan struct{})}
	p := inSweep(t, Params{Workers: 3, Executor: exec})
	var res []*gpu.Result
	errc := make(chan error, 1)
	go func() {
		var err error
		res, err = RunJobs(p, manyStubJobs(20))
		errc <- err
	}()

	// Wait for the semaphore to fill, then confirm it never overfills.
	deadline := time.Now().Add(5 * time.Second)
	for exec.started.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if got := exec.started.Load(); got != 3 {
		t.Errorf("started %d jobs with 3 workers before release", got)
	}
	close(exec.block)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if peak := exec.peak.Load(); peak > 3 {
		t.Errorf("peak concurrency %d exceeds 3 workers", peak)
	}
	if n := countResults(res); n != 20 {
		t.Errorf("returned %d results, want 20", n)
	}
}

// countResults counts the jobs that returned a result.
func countResults(res []*gpu.Result) int32 {
	var n int32
	for _, r := range res {
		if r != nil {
			n++
		}
	}
	return n
}

// TestDuplicateWaitsWithoutSlot pins where a duplicate waits: a job whose
// point an earlier job of the plan already claimed gives its worker slot
// straight back and takes the owner's outcome, so while the owner runs,
// the next distinct point runs beside it.
func TestDuplicateWaitsWithoutSlot(t *testing.T) {
	exec := &stubExecutor{block: make(chan struct{})}
	p := inSweep(t, Params{Workers: 2, Executor: exec})
	// stub0 twice (the variant label is not part of a point), then stub1.
	jobs := []Job{{Workload: "stub0", Variant: "a"}, {Workload: "stub0", Variant: "b"}, {Workload: "stub1", Variant: "a"}}
	var res []*gpu.Result
	errc := make(chan error, 1)
	go func() {
		var err error
		res, err = RunJobs(p, jobs)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for exec.started.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := exec.started.Load(); got != 2 {
		t.Errorf("%d of the plan's 2 points started on 2 slots while the first ran: the duplicate holds a slot", got)
	}
	close(exec.block)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if exec.started.Load() != 2 || res[0] == nil || res[1] != res[0] || res[2] == nil {
		t.Errorf("executed %d points, results %v: want 2, the duplicate sharing its owner's result", exec.started.Load(), res)
	}
	if m := p.Sweep.Metrics(); m.Requests != 3 {
		t.Errorf("requests = %d, want 3", m.Requests)
	}
}

// TestRunJobsCancellation pins the drain contract: a canceled sweep
// context stops dispatching (remaining jobs fail with the context
// error), in-flight jobs run to completion and release their slots,
// and no dispatch goroutines leak.
func TestRunJobsCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	exec := &stubExecutor{block: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	p := inSweep(t, Params{Workers: 2, Executor: exec, Ctx: ctx})
	var res []*gpu.Result
	errc := make(chan error, 1)
	go func() {
		var err error
		res, err = RunJobs(p, manyStubJobs(30))
		errc <- err
	}()

	deadline := time.Now().Add(5 * time.Second)
	for exec.started.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	// Give the dispatcher a beat to observe cancellation, then release
	// the two in-flight jobs so they drain.
	time.Sleep(20 * time.Millisecond)
	close(exec.block)

	err := <-errc
	if err == nil {
		t.Fatal("canceled sweep returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("joined error does not carry context.Canceled: %v", err)
	}
	started, done := exec.started.Load(), exec.done.Load()
	if started != done {
		t.Errorf("started %d jobs but only %d drained", started, done)
	}
	if started >= 30 {
		t.Errorf("all %d jobs started despite cancellation", started)
	}
	if n := countResults(res); n != done {
		t.Errorf("returned %d results from %d drained jobs", n, done)
	}

	// No dispatch goroutines may outlive RunJobs.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d after canceled RunJobs", before, after)
	}
}

// TestRunJobsPreCanceledContext: a context canceled before dispatch
// fails every job without starting any.
func TestRunJobsPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exec := &stubExecutor{}
	_, err := RunJobs(inSweep(t, Params{Workers: 2, Executor: exec, Ctx: ctx}), manyStubJobs(5))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if exec.started.Load() != 0 {
		t.Errorf("%d jobs started under a pre-canceled context", exec.started.Load())
	}
}

// --- storeRetry -------------------------------------------------------

func TestStoreRetryBoundedAttempts(t *testing.T) {
	sw := NewSweep()
	calls := 0
	err := sw.storeRetry(context.Background(), func() error {
		calls++
		return syscall.EIO // transient every time
	})
	if calls != storeRetryAttempts {
		t.Errorf("transient op ran %d times, want %d", calls, storeRetryAttempts)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Errorf("final error = %v", err)
	}
	if m := sw.Metrics(); m.StoreRetries != storeRetryAttempts-1 {
		t.Errorf("StoreRetries = %d, want %d", m.StoreRetries, storeRetryAttempts-1)
	}
}

func TestStoreRetryNonTransientFailsFast(t *testing.T) {
	calls := 0
	sentinel := errors.New("corrupt")
	if err := NewSweep().storeRetry(context.Background(), func() error {
		calls++
		return sentinel
	}); !errors.Is(err, sentinel) || calls != 1 {
		t.Errorf("non-transient: %d calls, err %v", calls, err)
	}
	calls = 0
	if err := NewSweep().storeRetry(context.Background(), func() error {
		calls++
		return nil
	}); err != nil || calls != 1 {
		t.Errorf("success: %d calls, err %v", calls, err)
	}
}

// TestStoreRetryContextCancel pins the shutdown contract: a canceled
// context aborts the backoff sleep immediately and the returned error
// carries both the op error and the cancellation.
func TestStoreRetryContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	start := time.Now()
	err := NewSweep().storeRetry(ctx, func() error {
		calls++
		return syscall.EIO
	})
	if calls != 1 {
		t.Errorf("op ran %d times under a canceled context, want 1", calls)
	}
	if !errors.Is(err, syscall.EIO) || !errors.Is(err, context.Canceled) {
		t.Errorf("joined error missing a side: %v", err)
	}
	// The full backoff schedule is ~10ms+; cancellation must not sit
	// through it. Generous bound to stay robust on loaded CI machines.
	if d := time.Since(start); d > time.Second {
		t.Errorf("canceled retry took %s", d)
	}
}

// TestStoreRetryNilContext: a nil context (no sweep context attached)
// must behave like Background, not panic.
func TestStoreRetryNilContext(t *testing.T) {
	calls := 0
	err := NewSweep().storeRetry(nil, func() error { //nolint:staticcheck // nil ctx is the documented default seam
		calls++
		if calls < 2 {
			return syscall.EAGAIN
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Errorf("nil-ctx retry: %d calls, err %v", calls, err)
	}
}

// TestStoreRetryBackoffDesynchronizes samples the jittered sleeps via
// wall time: two retries under the 2ms/8ms equal-jitter schedule must
// finish within the schedule's bounds (1ms+4ms min, 2ms+8ms max, plus
// scheduling slack) — catching a regression to unjittered fixed sleeps
// would need statistics, so this pins only the envelope.
func TestStoreRetryBackoffEnvelope(t *testing.T) {
	start := time.Now()
	NewSweep().storeRetry(context.Background(), func() error { return syscall.EIO })
	d := time.Since(start)
	if d < 5*time.Millisecond {
		t.Errorf("retry schedule completed in %s, faster than the minimum backoff", d)
	}
	if d > 2*time.Second {
		t.Errorf("retry schedule took %s", d)
	}
}
