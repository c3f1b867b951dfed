package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/resultstore"
)

// The run supervisor wraps every simulation the harness executes:
//
//   - a panic anywhere in the engine is recovered with its stack instead
//     of killing the whole sweep;
//   - Params.RunTimeout bounds each run's wall-clock time through
//     gpu.Options.Ctx;
//   - a run is attempted once: the engine is deterministic, so a run that
//     panicked, tripped an invariant, deadlocked or ran out of cycles or
//     time would fail the same way again. It becomes a RunFailure: a
//     structured repro bundle (fingerprint, config JSON, stack,
//     AbortDiagnostic) written to Params.FailDir, while the rest of the
//     sweep keeps running.

// RunFailure is the forensic record of one simulation that failed. It is
// what a repro bundle contains.
type RunFailure struct {
	Workload    string `json:"workload"`
	Variant     string `json:"variant,omitempty"`
	Fingerprint string `json:"fingerprint"`
	// Config is the exact hardware configuration of the failed run, so
	// the bundle alone reproduces it.
	Config json.RawMessage `json:"config,omitempty"`
	Scale  int             `json:"scale"`
	Dilute int             `json:"dilute,omitempty"`

	Error string `json:"error"`
	// Stack is the goroutine stack at panic recovery (panics only).
	Stack string `json:"stack,omitempty"`
	// Diagnostic is the gpu abort snapshot (deadlock/max-cycles/deadline/
	// invariant aborts only).
	Diagnostic *gpu.AbortDiagnostic `json:"diagnostic,omitempty"`

	Time string `json:"time"`
}

// FailedRunError is the error a failed supervised run returns; RunJobs
// joins these into the sweep error while the remaining jobs keep running.
type FailedRunError struct {
	Failure *RunFailure
	// cause is the run's error, so errors.Is/As on a sweep error still
	// see it (a deadline's context error, a gpu.AbortError).
	cause error
}

func (e *FailedRunError) Unwrap() error { return e.cause }

func (e *FailedRunError) Error() string {
	f := e.Failure
	return fmt.Sprintf("harness: run %s/%s failed: %s", f.Workload, f.Variant, f.Error)
}

// attempt is the outcome of one supervised gpu.Run call.
type attempt struct {
	res      *gpu.Result
	err      error
	panicked bool
	stack    string
	// ck is the last prefix checkpoint the attempt captured (donor runs
	// under a capture spec only; see fork.go).
	ck *gpu.Checkpoint
}

// runAttempt performs one simulation under panic recovery. Each run
// starts from the sweep's build of the workload (builds.go): its own
// launch copies and a fresh backing over the pristine image, so nothing a
// panicked run left half-mutated reaches a later run of the workload. A
// non-nil spec makes the run a checkpoint donor (capture while the fork
// guard holds) or a fork (resume from spec.ck instead of cycle zero).
func runAttempt(p Params, j Job, cfg config.GPUConfig, spec *forkSpec) (a attempt) {
	tr := p.Sweep.Trace
	eid := tr.Begin(p.span, "execute", j.Workload, j.Variant)
	if spec != nil {
		if spec.capture {
			tr.SetAttr(eid, "fork_donor", "true")
		}
		if spec.ck != nil {
			tr.SetAttr(eid, "forked_from", spec.forkedFrom)
			tr.SetAttr(eid, "resume_cycle", fmt.Sprint(spec.ck.Cycle))
		}
	}
	// One deferred closure handles both panic recovery and span close,
	// so the outcome attrs are final before End records the duration.
	defer func() {
		if r := recover(); r != nil {
			a.res = nil
			a.err = fmt.Errorf("panic: %v", r)
			a.panicked = true
			a.stack = string(debug.Stack())
		}
		switch {
		case a.panicked:
			tr.SetAttr(eid, "outcome", "panic")
		case a.err != nil:
			tr.SetAttr(eid, "outcome", "error")
		default:
			tr.SetAttr(eid, "outcome", "ok")
		}
		if a.res != nil && a.res.Sampling != nil {
			tr.SetAttr(eid, "sampled", "true")
		}
		if a.ck != nil {
			tr.Event(eid, "fork.capture", j.Workload, j.Variant,
				"cycle", fmt.Sprint(a.ck.Cycle))
		}
		tr.End(eid)
	}()
	// j.Workload names one kernel or a concurrent-kernel mix; either way
	// the run is its launches, each diluted on its own.
	b := p.Sweep.build(j.Workload, p.Scale)
	if b.err != nil {
		a.err = b.err
		return
	}
	launches, initMem := b.run(p.Dilute)
	opts := gpu.Options{
		InitMemory:      initMem,
		CheckInvariants: p.CheckInvariants,
	}
	// Fault-injected runs force the invariant checker, which sampling's
	// extrapolated issue-slot accounting cannot satisfy mid-span, so they
	// execute exactly; every other run in a sampled sweep samples. Fork
	// specs never coexist with sampling (see forkPlan and localExecutor).
	injected := p.injects(j.Workload, j.Variant)
	if p.Sampling.Enabled() && !injected {
		opts.Sampling = p.Sampling
	}
	if injected {
		opts.FaultHook = p.Inject.Hook()
		// Injected corruption must be caught, not silently folded into
		// results, so injected runs always check invariants.
		opts.CheckInvariants = true
	}
	if p.RunTimeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), p.RunTimeout)
		defer cancel()
		opts.Ctx = ctx
	}
	if spec != nil && spec.capture {
		opts.CheckpointEvery = checkpointEvery
		// A checkpoint taken after the first swap depends on the donor's
		// swap latencies and must never seed other configs.
		opts.CheckpointGuard = forkGuard
		opts.OnCheckpoint = func(c *gpu.Checkpoint) { a.ck = c }
	}
	if spec != nil && spec.ck != nil {
		a.res, a.err = gpu.Resume(spec.ck, launches, cfg, opts)
	} else {
		a.res, a.err = gpu.RunMulti(launches, cfg, opts)
	}
	return a
}

// countFailure classifies a failed run into its work counters and emits
// the matching supervisor trace event under the job span. A deadlock or
// a cycle-budget abort has no class of its own: it counts only among the
// failures.
func countFailure(p Params, j Job, a attempt, w *RunMetrics) {
	var class string
	switch d := gpu.DiagnosticOf(a.err); {
	case a.panicked:
		w.Panics++
		class = "panic"
	case d != nil && d.Reason == gpu.ReasonInvariant:
		w.InvariantTrips++
		class = "invariant"
	case d != nil && d.Reason == gpu.ReasonDeadline:
		w.Deadlines++
		class = "deadline"
	default:
		return
	}
	p.Sweep.Trace.Event(p.span, "supervisor."+class, j.Workload, j.Variant)
}

// supervise runs one job through the supervisor — one attempt, and a
// repro bundle if it fails — and returns its Outcome: the journal entry,
// built once, the Result, and the Work the run cost. A failed job also
// returns a *FailedRunError. A non-nil spec makes the run a checkpoint
// donor or a fork; spec.captured is set only from a run that succeeded,
// so a checkpoint from a failed run never seeds forks, and a forked run's
// SimCycles count its suffix alone (the prefix came from the checkpoint).
func supervise(p Params, j Job, cfg config.GPUConfig, fp string, spec *forkSpec) (Outcome, error) {
	work := RunMetrics{Executed: 1}
	key := CacheKey(fp)
	forkedFrom := ""
	var prefix int64
	if spec != nil && spec.ck != nil {
		forkedFrom, prefix = spec.forkedFrom, spec.ck.Cycle
	}

	a := runAttempt(p, j, cfg, spec)
	if a.err != nil {
		countFailure(p, j, a, &work)
		f := &RunFailure{
			Workload:    j.Workload,
			Variant:     j.Variant,
			Fingerprint: fp,
			Scale:       p.Scale,
			Dilute:      p.Dilute,
			Error:       a.err.Error(),
			Stack:       a.stack,
			Diagnostic:  gpu.DiagnosticOf(a.err),
			Time:        time.Now().UTC().Format(time.RFC3339),
		}
		if b, err := json.Marshal(&cfg); err == nil {
			f.Config = b
		}
		writeBundle(p.FailDir, f)
		work.Failures++
		return Outcome{Entry: buildJournalEntry(j, key, nil, a.err, forkedFrom), Work: work},
			&FailedRunError{Failure: f, cause: a.err}
	}

	if spec != nil {
		spec.captured = a.ck
	}
	res := a.res
	work.SimCycles = res.Cycles - prefix
	if ss := res.Sampling; ss != nil {
		work.SampledRuns = 1
		work.SampledSpans = ss.Spans
		work.ExtrapolatedCycles = ss.ExtrapolatedCycles
		work.FunctionalInstrs = ss.FunctionalInstrs
		work.MaxErrorBound = ss.ErrorBound
	}
	return Outcome{Entry: buildJournalEntry(j, key, res, nil, forkedFrom), Result: res, Work: work}, nil
}

// buildJournalEntry assembles the completion-log line for one job
// outcome, "ok" or, with a non-nil err, "failed"; key is the job's cache
// key. The same shape travels the JSONL journal, the result-store
// transaction, and — inside an Outcome — the wire between a fabric worker
// and its coordinator.
func buildJournalEntry(j Job, key string, res *gpu.Result, err error, forkedFrom string) JournalEntry {
	e := JournalEntry{
		FP:         key,
		Workload:   j.Workload,
		Variant:    j.Variant,
		Status:     "ok",
		ForkedFrom: forkedFrom,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if res != nil {
		e.Cycles = res.Cycles
		if res.Sampling != nil {
			e.ErrorBound = res.Sampling.ErrorBound
		}
	}
	if err != nil {
		e.Status, e.Error = "failed", err.Error()
	}
	return e
}

// CommitOutcome makes one job outcome durable in the completion journal
// and result store of p's sweep; fp is the job's raw content fingerprint
// (the store envelope carries it for content verification; out.Entry.FP is
// its cache key). It is the one way an outcome reaches either: the local
// executor calls it for a run it supervised, the fabric coordinator for
// one a worker delivered.
//
// With a result store attached (Params.CacheDir) the Result and the
// journal line commit as a single store transaction — all-or-nothing,
// replicated to the mirror, retried with backoff on transient I/O — so a
// crash can never leave a journal entry whose Result is missing or a
// stored Result the journal never heard of. The transaction is submitted
// to the sweep's write-behind window, where it is batched with its
// neighbours; the returned channel is closed once this outcome's
// transaction has finished, and the sweep's Sync waits for all of them. A
// caller that must not show the outcome to anyone before it is durable
// (the coordinator, before it acknowledges a completion) waits on the
// channel; a local slot goes back to simulating. The store writes the
// whole journal file — its header through Store.Adopt (see
// Sweep.OpenJournal), its entries in these transactions — so without a
// store there is no journal and nothing to commit.
func CommitOutcome(p Params, fp string, out Outcome) (committed <-chan struct{}) {
	s := p.Sweep
	entry, res := out.Entry, out.Result
	// A concurrent-kernel mix commits its result object but no journal
	// line: bench/golden/all-d30.cycles.txt pins the journal at the 286
	// single-kernel jobs, and only a `benchmark` PR may regenerate it.
	// A re-run finds a finished mix through the store. Follow-up for that
	// PR: delete this exception and journal mixes like every other job.
	var je *JournalEntry
	if s.journaled && !strings.Contains(entry.Workload, kernels.MixSep) {
		je = &entry
	}
	st, err := s.store(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "harness: result store commit failed: %v\n", err)
	}
	// A failed job has no Result, and an injected one must never be served
	// to an un-injected sweep, even when it succeeded: those journal but
	// never cache.
	storeResult := res != nil && !p.injects(entry.Workload, entry.Variant)
	if st == nil || (!storeResult && je == nil) {
		done := make(chan struct{})
		close(done)
		return done
	}
	tx := st.Begin()
	if storeResult {
		s.putEnvelope(tx, resultstore.KindResult, envelope{Fingerprint: fp, Result: res})
	}
	if je != nil {
		if b, merr := json.Marshal(je); merr == nil {
			tx.Append(JournalFileName, b)
		}
	}
	return s.wb.submit(func() { p.commitBestEffort(tx) })
}

// writeBundle persists a repro bundle into dir as one pretty-printed JSON
// file. Best-effort: failing to record a failure must not mask it.
func writeBundle(dir string, f *RunFailure) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return
	}
	name := fmt.Sprintf("failure-%s-%s-%s.json",
		sanitizeName(f.Workload), sanitizeName(f.Variant), CacheKey(f.Fingerprint)[:12])
	os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// sanitizeName makes a workload/variant label filename-safe.
func sanitizeName(s string) string {
	if s == "" {
		return "run"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}
