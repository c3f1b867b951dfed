package harness

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/gpu"
)

// supervisorParams is a small fast sweep shape shared by the tests: four
// jobs (2 workloads x 2 policies) at heavy dilution.
func supervisorParams(t testing.TB) (Params, []Job) {
	p := inSweep(t, Params{Scale: 1, Config: config.Small(), Workers: 2, Dilute: 60})
	jobs := policyJobs([]string{"vecadd", "nw"},
		[]config.Policy{config.PolicyBaseline, config.PolicyVT})
	return p, jobs
}

// TestSupervisedPanicProducesBundle injects a persistent panic into one
// run of a four-job sweep and asserts the full contract: the sweep
// completes the other three jobs, the failed run was retried in safe
// mode, exactly one repro bundle lands in FailDir with a populated stack,
// and the metrics record the panic, the retry, and the failure.
func TestSupervisedPanicProducesBundle(t *testing.T) {
	p, jobs := supervisorParams(t)
	p.FailDir = t.TempDir()
	p.Inject = &faultinject.Spec{Workload: "vecadd", Variant: "vt", Cycle: 100,
		Kind: faultinject.Panic}

	res, err := runMany(p, jobs)
	if err == nil {
		t.Fatal("expected the injected failure to surface in the batch error")
	}
	var fe *FailedRunError
	if !errors.As(err, &fe) {
		t.Fatalf("batch error does not wrap a FailedRunError: %v", err)
	}
	f := fe.Failure
	if f.Workload != "vecadd" || f.Variant != "vt" {
		t.Fatalf("failure names %s/%s, want vecadd/vt", f.Workload, f.Variant)
	}
	if !f.SafeModeRetried || f.Attempts != 2 {
		t.Fatalf("panic must trigger the safe-mode retry: %+v", f)
	}
	if !strings.Contains(f.Stack, "faultinject") {
		t.Fatalf("bundle stack does not reach the panic site:\n%s", f.Stack)
	}
	if !strings.Contains(f.Error, "injected panic") {
		t.Fatalf("failure error = %q", f.Error)
	}
	if len(f.Config) == 0 {
		t.Fatal("bundle is missing the config JSON")
	}

	// The remaining three jobs completed.
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3 surviving jobs", len(res))
	}
	if _, ok := res[key{"vecadd", "vt"}]; ok {
		t.Fatal("failed job must not appear in the results")
	}

	// Exactly one repro bundle, and it round-trips as JSON.
	bundles, _ := filepath.Glob(filepath.Join(p.FailDir, "failure-*.json"))
	if len(bundles) != 1 {
		t.Fatalf("got %d repro bundles, want exactly 1", len(bundles))
	}
	b, err := os.ReadFile(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	var onDisk RunFailure
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if onDisk.Workload != "vecadd" || onDisk.Stack == "" {
		t.Fatalf("bundle contents incomplete: %+v", onDisk)
	}

	m := p.Sweep.Metrics()
	if m.Panics != 1 || m.Retries != 1 || m.Failures != 1 || m.Degraded != 0 {
		t.Fatalf("metrics = %+v, want 1 panic, 1 retry, 1 failure, 0 degraded", m)
	}
	if m.Executed != 4 {
		t.Fatalf("Executed = %d, want 4 (retries don't double-count)", m.Executed)
	}
}

// TestSupervisedDegradation injects a first-attempt-only panic: the
// safe-mode retry must succeed, the sweep must see no error, and the
// degraded result must be bit-identical to an uninjected run (the safe
// path's determinism contract).
func TestSupervisedDegradation(t *testing.T) {
	p, jobs := supervisorParams(t)
	p.FailDir = t.TempDir()
	p.Inject = &faultinject.Spec{Workload: "vecadd", Variant: "vt", Cycle: 100,
		Kind: faultinject.PanicOnce}

	degraded, err := runMany(p, jobs)
	if err != nil {
		t.Fatalf("degradation must absorb the failure, got %v", err)
	}
	if len(degraded) != 4 {
		t.Fatalf("got %d results, want 4", len(degraded))
	}
	m := p.Sweep.Metrics()
	if m.Panics != 1 || m.Retries != 1 || m.Degraded != 1 || m.Failures != 0 {
		t.Fatalf("metrics = %+v, want 1 panic, 1 retry, 1 degraded, 0 failures", m)
	}
	if got, _ := filepath.Glob(filepath.Join(p.FailDir, "*")); len(got) != 0 {
		t.Fatalf("a degraded (recovered) run must not write a bundle, found %v", got)
	}

	p = inSweep(t, p)
	p.Inject = nil
	clean, err := runMany(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(degraded, clean) {
		t.Fatal("safe-mode result differs from the normal engine result")
	}
}

// TestSupervisedDeadline injects a hang and bounds the run with
// RunTimeout: the failure must carry a deadline diagnostic and must NOT
// be retried (a wall-clock overrun is not an engine-path bug).
func TestSupervisedDeadline(t *testing.T) {
	p, jobs := supervisorParams(t)
	p.FailDir = t.TempDir()
	// nw/vt simulates ~7.6k cycles at this dilution, so many deadline
	// polls (every 512 cycles) follow the hang at cycle 100. The healthy
	// runs must finish well inside the timeout even under -race, so keep
	// the margin wide: a diluted run takes ~0.1s worst case, the hang
	// overshoots the 1s deadline by 2x.
	p.RunTimeout = 1 * time.Second
	p.Inject = &faultinject.Spec{Workload: "nw", Variant: "vt", Cycle: 100,
		Kind: faultinject.Hang, HangFor: 2 * time.Second}

	_, err := runMany(p, jobs)
	var fe *FailedRunError
	if !errors.As(err, &fe) {
		t.Fatalf("want a FailedRunError, got %v", err)
	}
	f := fe.Failure
	if f.Workload != "nw" || f.Variant != "vt" {
		t.Fatalf("failure names %s/%s, want nw/vt", f.Workload, f.Variant)
	}
	if f.SafeModeRetried || f.Attempts != 1 {
		t.Fatalf("deadline failures must not retry: %+v", f)
	}
	if f.Diagnostic == nil || f.Diagnostic.Reason != gpu.ReasonDeadline {
		t.Fatalf("missing deadline diagnostic: %+v", f.Diagnostic)
	}
	if m := p.Sweep.Metrics(); m.Deadlines != 1 || m.Retries != 0 {
		t.Fatalf("metrics = %+v, want 1 deadline, 0 retries", m)
	}
}

// TestSupervisedCorruption injects bookkeeping corruption: the invariant
// checker (forced on for injected runs) trips on both attempts, the
// bundle carries the violation diagnostic, and the retry is recorded.
func TestSupervisedCorruption(t *testing.T) {
	p, jobs := supervisorParams(t)
	p.FailDir = t.TempDir()
	p.Inject = &faultinject.Spec{Workload: "nw", Variant: "baseline", Cycle: 200,
		Kind: faultinject.Corrupt}

	_, err := runMany(p, jobs)
	var fe *FailedRunError
	if !errors.As(err, &fe) {
		t.Fatalf("want a FailedRunError, got %v", err)
	}
	f := fe.Failure
	if !f.SafeModeRetried || f.Attempts != 2 {
		t.Fatalf("invariant trips must trigger the safe-mode retry: %+v", f)
	}
	if f.Diagnostic == nil || f.Diagnostic.Reason != gpu.ReasonInvariant {
		t.Fatalf("missing invariant diagnostic: %+v", f.Diagnostic)
	}
	if !strings.Contains(f.Diagnostic.Violation, "RegsUsed") {
		t.Fatalf("violation report does not name the corruption: %q", f.Diagnostic.Violation)
	}
	if m := p.Sweep.Metrics(); m.InvariantTrips != 1 || m.Retries != 1 || m.Failures != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestJournalResume runs a sweep with one injected persistent failure,
// then resumes without the fault: only the failed job re-executes (the
// rest come from the disk cache), ResumedFailed records it, and the
// journal converges to all-ok. Also checks resume meta validation.
func TestJournalResume(t *testing.T) {
	cache := t.TempDir()
	meta := JournalMeta{Scale: 1, Dilute: 60, Config: "small"}

	p, jobs := supervisorParams(t)
	p.CacheDir = cache
	p.FailDir = t.TempDir()
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}
	jl := p.Sweep.Journal
	p.Inject = &faultinject.Spec{Workload: "vecadd", Variant: "vt", Cycle: 100,
		Kind: faultinject.Panic}
	if _, err := runMany(p, jobs); err == nil {
		t.Fatal("expected the injected failure")
	}
	if ok, degraded, failed := jl.Summary(); ok != 3 || degraded != 0 || failed != 1 {
		t.Fatalf("journal after failed sweep: %d ok / %d degraded / %d failed", ok, degraded, failed)
	}
	p.Sweep.Close()

	// Resume without the fault: the three completed jobs are disk-cache
	// hits, only the failed one executes.
	p2, _ := supervisorParams(t)
	p2.CacheDir = cache
	p2.Resume = true
	if err := p2.Sweep.OpenJournal(p2); err != nil {
		t.Fatalf("resume open failed: %v", err)
	}
	jl2 := p2.Sweep.Journal
	res, err := runMany(p2, jobs)
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if len(res) != 4 {
		t.Fatalf("resumed sweep returned %d results, want 4", len(res))
	}
	m := p2.Sweep.Metrics()
	if m.Executed != 1 {
		t.Fatalf("Executed = %d, want 1 (only the failed job re-runs)", m.Executed)
	}
	if m.ResumedFailed != 1 {
		t.Fatalf("ResumedFailed = %d, want 1", m.ResumedFailed)
	}
	if ok, _, failed := jl2.Summary(); ok != 4 || failed != 0 {
		t.Fatalf("journal after resume: %d ok / %d failed, want 4/0", ok, failed)
	}

	// A resume with mismatched sweep parameters must be refused: the
	// sweep derives the journal's header from its Params.
	p2.Sweep.Close()
	p3, _ := supervisorParams(t)
	p3.CacheDir, p3.Resume, p3.Dilute = cache, true, 30
	if err := p3.Sweep.OpenJournal(p3); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("resume with a different sweep shape: err = %v, want it refused", err)
	}
	// And resuming a journal that does not exist is an error too.
	if _, err := openJournal(filepath.Join(t.TempDir(), "none.jsonl"), meta, true); err == nil {
		t.Fatal("resume without a journal must fail")
	}
}

// TestJournalRotatesForeignSweep: opening without resume over a journal
// from a different sweep starts fresh and keeps the old file as .old.
func TestJournalRotatesForeignSweep(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	jl, err := openJournal(jpath, JournalMeta{Scale: 1, Dilute: 30, Config: "small"}, false)
	if err != nil {
		t.Fatal(err)
	}
	jl.Record(JournalEntry{FP: "abc", Workload: "x", Status: "ok", Attempts: 1})
	jl.Close()

	jl2, err := openJournal(jpath, JournalMeta{Scale: 2, Dilute: 30, Config: "small"}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if st := jl2.Status("abc"); st != "" {
		t.Fatalf("fresh journal inherited foreign entries: %q", st)
	}
	if _, err := os.Stat(jpath + ".old"); err != nil {
		t.Fatalf("foreign journal was not rotated aside: %v", err)
	}
}
