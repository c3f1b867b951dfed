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
//   - a run that panicked or tripped an invariant is retried once in safe
//     mode (DisableIssueFastPath) — those two failure classes are the
//     ones a fast-path bug can cause, and the reference path cannot hit
//     them. The downgrade is counted in RunMetrics and surfaced in the
//     final report;
//   - a run that still fails becomes a RunFailure: a structured repro
//     bundle (fingerprint, config JSON, stack, AbortDiagnostic) written
//     to Params.FailDir, while the rest of the sweep keeps running.

// RunFailure is the forensic record of one simulation that failed after
// the retry ladder. It is what a repro bundle contains.
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

	Attempts        int    `json:"attempts"`
	SafeModeRetried bool   `json:"safe_mode_retried"`
	SafeModeError   string `json:"safe_mode_error,omitempty"`
	Time            string `json:"time"`
}

// FailedRunError is the error a supervised run returns after exhausting
// the retry ladder; RunJobs joins these into the sweep error while the
// remaining jobs keep running.
type FailedRunError struct {
	Failure *RunFailure
	// cause is the first attempt's error, so errors.Is/As on a sweep
	// error still see it (a deadline's context error, a gpu.AbortError).
	cause error
}

func (e *FailedRunError) Unwrap() error { return e.cause }

func (e *FailedRunError) Error() string {
	f := e.Failure
	return fmt.Sprintf("harness: run %s/%s failed after %d attempt(s): %s",
		f.Workload, f.Variant, f.Attempts, f.Error)
}

// attempt is the outcome of one supervised gpu.Run attempt.
type attempt struct {
	res      *gpu.Result
	err      error
	panicked bool
	stack    string
	// ck is the last prefix checkpoint the attempt captured (donor runs
	// under a capture spec only; see fork.go).
	ck *gpu.Checkpoint
}

// runAttempt performs one simulation attempt under panic recovery. Each
// attempt starts from the sweep's build of the workload (builds.go): its
// own launch copies and a fresh backing over the pristine image, so
// nothing a panicked attempt left half-mutated reaches the retry. A
// non-nil spec makes the attempt a checkpoint donor (capture while the
// fork guard holds) or a fork (resume from spec.ck instead of cycle zero).
func runAttempt(p Params, j Job, cfg config.GPUConfig, safeMode bool, spec *forkSpec) (a attempt) {
	tr := p.Sweep.Trace
	eid := tr.Begin(p.span, "execute", j.Workload, j.Variant)
	if safeMode {
		tr.SetAttr(eid, "safe_mode", "true")
	}
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
	if safeMode {
		opts.DisableIssueFastPath = true
	}
	if injected {
		n := 0
		if safeMode {
			n = 1
		}
		opts.FaultHook = p.Inject.Hook(n)
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

// countFirstFailure classifies a first-attempt failure into the run's
// work counters, emits the matching supervisor trace event under the job
// span, and reports whether the failure warrants the safe-mode retry: a
// panic or an invariant trip does. Deadlocks, cycle budgets, and
// wall-clock deadlines are properties of the simulated kernel, not the
// engine path, so retrying them would only double the cost of the same
// failure.
func countFirstFailure(p Params, j Job, a attempt, w *RunMetrics) (class string, retry bool) {
	switch d := gpu.DiagnosticOf(a.err); {
	case a.panicked:
		w.Panics++
		class, retry = "panic", true
	case d != nil && d.Reason == gpu.ReasonInvariant:
		w.InvariantTrips++
		class, retry = "invariant", true
	case d != nil && d.Reason == gpu.ReasonDeadline:
		w.Deadlines++
		class = "deadline"
	default:
		return "", false
	}
	p.Sweep.Trace.Event(p.span, "supervisor."+class, j.Workload, j.Variant)
	return class, retry
}

// supervise runs one job through the supervisor — attempt, safe-mode
// retry, repro bundle — and returns its Outcome: the journal entry, built
// once, the Result, and the Work the attempts cost. A job that failed the
// whole ladder also returns a *FailedRunError. A non-nil spec makes the
// run a checkpoint donor or a fork; spec.captured is set only from the
// attempt whose result is returned, so a checkpoint from a failed or
// superseded attempt never seeds forks, and a forked run's SimCycles
// count its suffix alone (the prefix came from the checkpoint).
func supervise(p Params, j Job, cfg config.GPUConfig, fp string, spec *forkSpec) (Outcome, error) {
	work := RunMetrics{Executed: 1}
	key := CacheKey(fp)
	forkedFrom := ""
	var prefix int64
	if spec != nil && spec.ck != nil {
		forkedFrom, prefix = spec.forkedFrom, spec.ck.Cycle
	}

	first := runAttempt(p, j, cfg, false, spec)
	last, status, attempts := first, "ok", 1
	if first.err != nil {
		status = "failed"
		if class, retry := countFirstFailure(p, j, first, &work); retry {
			work.Retries++
			p.Sweep.Trace.Event(p.span, "supervisor.retry", j.Workload, j.Variant, "reason", class)
			last, attempts = runAttempt(p, j, cfg, true, spec), 2
			if last.err == nil {
				// The safe path succeeded where the fast path failed: record
				// the downgrade and keep the sweep moving with the safe result.
				status = "degraded"
				work.Degraded++
			}
		}
	}

	if status == "failed" {
		f := &RunFailure{
			Workload:        j.Workload,
			Variant:         j.Variant,
			Fingerprint:     fp,
			Scale:           p.Scale,
			Dilute:          p.Dilute,
			Error:           first.err.Error(),
			Stack:           first.stack,
			Diagnostic:      gpu.DiagnosticOf(first.err),
			Attempts:        attempts,
			SafeModeRetried: attempts == 2,
			Time:            time.Now().UTC().Format(time.RFC3339),
		}
		if attempts == 2 {
			f.SafeModeError = last.err.Error()
			if f.Stack == "" {
				f.Stack = last.stack
			}
			if f.Diagnostic == nil {
				f.Diagnostic = gpu.DiagnosticOf(last.err)
			}
		}
		if b, err := json.Marshal(&cfg); err == nil {
			f.Config = b
		}
		writeBundle(p.FailDir, f)
		work.Failures++
		return Outcome{Entry: buildJournalEntry(j, key, status, attempts, nil, first.err, forkedFrom), Work: work},
			&FailedRunError{Failure: f, cause: first.err}
	}

	if spec != nil {
		spec.captured = last.ck
	}
	res := last.res
	work.SimCycles = res.Cycles - prefix
	if ss := res.Sampling; ss != nil {
		work.SampledRuns = 1
		work.SampledSpans = ss.Spans
		work.ExtrapolatedCycles = ss.ExtrapolatedCycles
		work.FunctionalInstrs = ss.FunctionalInstrs
		work.MaxErrorBound = ss.ErrorBound
	}
	return Outcome{Entry: buildJournalEntry(j, key, status, attempts, res, nil, forkedFrom), Result: res, Work: work}, nil
}

// buildJournalEntry assembles the completion-log line for one job
// outcome; key is the job's cache key. The same shape travels the JSONL
// journal, the result-store transaction, and — inside an Outcome — the
// wire between a fabric worker and its coordinator.
func buildJournalEntry(j Job, key, status string, attempts int, res *gpu.Result, err error, forkedFrom string) JournalEntry {
	e := JournalEntry{
		FP:         key,
		Workload:   j.Workload,
		Variant:    j.Variant,
		Status:     status,
		Attempts:   attempts,
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
		e.Error = err.Error()
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
// channel; a local slot goes back to simulating. Without a store the
// journal line is appended directly.
func CommitOutcome(p Params, fp string, out Outcome) (committed <-chan struct{}) {
	s := p.Sweep
	entry, res := out.Entry, out.Result
	// A concurrent-kernel mix commits its result object but no journal
	// line: bench/golden/all-d30.cycles.txt pins the journal at the 286
	// single-kernel jobs, and only a `benchmark` PR may regenerate it.
	// -resume finds a finished mix through the store. Follow-up for that
	// PR: delete this exception and journal mixes like every other job.
	var je *JournalEntry
	if s.Journal != nil && !strings.Contains(entry.Workload, kernels.MixSep) {
		je = &entry
	}
	st, err := s.store(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "harness: result store commit failed: %v\n", err)
	}
	// A failed job has no Result, and a faulted (or degraded-by-injection)
	// one must never be served to an un-injected sweep: those journal but
	// never cache.
	storeResult := st != nil && res != nil && !p.injects(entry.Workload, entry.Variant)
	if st == nil || (!storeResult && je == nil) {
		if je != nil {
			s.Journal.Record(*je)
		}
		done := make(chan struct{})
		close(done)
		return done
	}
	tx := st.Begin()
	if storeResult {
		envelope{Version: diskCacheVersion, Fingerprint: fp, Result: res}.put(tx, resultstore.KindResult)
	}
	if je != nil {
		if b, merr := json.Marshal(je); merr == nil {
			tx.Append(JournalFileName, b)
		}
		// The line reaches the file through the transaction; only the
		// in-memory status map needs the update.
		s.Journal.noteStatus(*je)
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
