package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/gpu"
	"repro/internal/testsupport"
)

// supervisorParams is a small fast sweep shape shared by the tests: four
// jobs (2 workloads x 2 policies) at heavy dilution.
func supervisorParams(t testing.TB) (Params, []Job) {
	p := inSweep(t, Params{Scale: 1, Config: testsupport.Small(), Workers: 2, Dilute: 60})
	jobs := policyJobs([]string{"vecadd", "nw"},
		[]config.Policy{config.PolicyBaseline, config.PolicyVT})
	return p, jobs
}

// TestSupervisedPanicProducesBundle injects a panic into one run of a
// four-job sweep and asserts the full contract: the sweep completes the
// other three jobs, the failed run was attempted once, exactly one repro
// bundle lands in FailDir with a populated stack, and the metrics record
// the panic and the failure.
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
	if m.Panics != 1 || m.Failures != 1 {
		t.Fatalf("metrics = %+v, want 1 panic, 1 failure", m)
	}
	if m.Executed != 4 {
		t.Fatalf("Executed = %d, want 4", m.Executed)
	}
}

// TestJournalResumeReexecutesInjected: an injected run that succeeds (a
// 1ms hang with no deadline) journals ok but is never cached, so a re-run
// over the same store without the fault re-executes exactly that job,
// and the journal records it ok twice: it did not fail.
func TestJournalResumeReexecutesInjected(t *testing.T) {
	cache := t.TempDir()
	journal := filepath.Join(cache, JournalFileName)
	p, jobs := supervisorParams(t)
	p.CacheDir = cache
	p.FailDir = t.TempDir()
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}
	p.Inject = &faultinject.Spec{Workload: "vecadd", Variant: "vt", Cycle: 100,
		Kind: faultinject.Hang, HangFor: time.Millisecond}
	if _, err := runMany(p, jobs); err != nil {
		t.Fatalf("a hang without a deadline must not fail the run, got %v", err)
	}
	p.Sweep.Close()
	if ok := journalOKSet(t, journal); len(ok) != 4 || len(journalStatuses(t, journal)) != 4 {
		t.Fatalf("journal after injected sweep: %d ok of %d jobs, want 4 of 4", len(ok), len(journalStatuses(t, journal)))
	}

	p2, _ := supervisorParams(t)
	p2.CacheDir = cache
	if err := p2.Sweep.OpenJournal(p2); err != nil {
		t.Fatalf("re-run open failed: %v", err)
	}
	if _, err := runMany(p2, jobs); err != nil {
		t.Fatalf("re-run failed: %v", err)
	}
	p2.Sweep.Close()
	m := p2.Sweep.Metrics()
	if m.Executed != 1 || m.StoreHits != 3 {
		t.Fatalf("re-run executed %d and hit the store %d times, want only the injected job re-run (1, 3)", m.Executed, m.StoreHits)
	}
	k := drillKeys(t, p2, jobs)[1] // vecadd/vt
	if got := strings.Join(journalStatuses(t, journal)[k], ","); got != "ok,ok" {
		t.Fatalf("the injected job's journal lines read %q, want ok,ok", got)
	}
	if ok := journalOKSet(t, journal); len(ok) != 4 {
		t.Fatalf("journal after the re-run records %d jobs ok, want 4", len(ok))
	}
}

// TestSupervisedDeadline injects a hang and bounds the run with
// RunTimeout: the failure must carry a deadline diagnostic.
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
	if f.Diagnostic == nil || f.Diagnostic.Reason != gpu.ReasonDeadline {
		t.Fatalf("missing deadline diagnostic: %+v", f.Diagnostic)
	}
	if m := p.Sweep.Metrics(); m.Deadlines != 1 || m.Failures != 1 {
		t.Fatalf("metrics = %+v, want 1 deadline, 1 failure", m)
	}
}

// TestSupervisedCorruption injects bookkeeping corruption: the invariant
// checker (forced on for injected runs) trips, and the bundle carries the
// violation diagnostic.
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
	if f.Diagnostic == nil || f.Diagnostic.Reason != gpu.ReasonInvariant {
		t.Fatalf("missing invariant diagnostic: %+v", f.Diagnostic)
	}
	if !strings.Contains(f.Diagnostic.Violation, "RegsUsed") {
		t.Fatalf("violation report does not name the corruption: %q", f.Diagnostic.Violation)
	}
	if m := p.Sweep.Metrics(); m.InvariantTrips != 1 || m.Failures != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestJournalResume runs a sweep with one injected persistent failure,
// then runs it again over the same store without the fault: only the
// failed job re-executes (the rest come from the store), the journal
// records that job failed and then ok, and it converges to all-ok.
func TestJournalResume(t *testing.T) {
	cache := t.TempDir()
	journal := filepath.Join(cache, JournalFileName)

	p, jobs := supervisorParams(t)
	p.CacheDir = cache
	p.FailDir = t.TempDir()
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}
	p.Inject = &faultinject.Spec{Workload: "vecadd", Variant: "vt", Cycle: 100,
		Kind: faultinject.Panic}
	if _, err := runMany(p, jobs); err == nil {
		t.Fatal("expected the injected failure")
	}
	p.Sweep.Close()
	if ok, all := journalOKSet(t, journal), journalStatuses(t, journal); len(ok) != 3 || len(all) != 4 {
		t.Fatalf("journal after failed sweep: %d ok of %d jobs, want 3 of 4", len(ok), len(all))
	}

	// The same sweep again, without the fault: the three completed jobs
	// are store hits, only the failed one executes.
	p2, _ := supervisorParams(t)
	p2.CacheDir = cache
	if err := p2.Sweep.OpenJournal(p2); err != nil {
		t.Fatalf("re-run open failed: %v", err)
	}
	res, err := runMany(p2, jobs)
	if err != nil {
		t.Fatalf("re-run failed: %v", err)
	}
	p2.Sweep.Close()
	if len(res) != 4 {
		t.Fatalf("re-run returned %d results, want 4", len(res))
	}
	if m := p2.Sweep.Metrics(); m.Executed != 1 {
		t.Fatalf("Executed = %d, want 1 (only the failed job re-runs)", m.Executed)
	}
	k := drillKeys(t, p2, jobs)[1] // vecadd/vt
	if got := strings.Join(journalStatuses(t, journal)[k], ","); got != "failed,ok" {
		t.Fatalf("the failed job's journal lines read %q, want failed,ok", got)
	}
	if ok := journalOKSet(t, journal); len(ok) != 4 {
		t.Fatalf("journal after the re-run records %d jobs ok, want 4", len(ok))
	}
}

// TestJournalRotatesForeignSweep: a sweep over a journal from a
// different sweep starts fresh and keeps the old file, entries and all,
// as .old.
func TestJournalRotatesForeignSweep(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, JournalFileName)
	p := Params{Scale: 1, Dilute: 30, Config: testsupport.Small(), CacheDir: dir}
	if err := openJournalIn(t, p); err != nil {
		t.Fatal(err)
	}
	appendLine(t, jpath, `{"fp":"abc","workload":"x","status":"ok","time":"t"}`)
	old, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}

	p.Scale = 2
	if err := openJournalIn(t, p); err != nil {
		t.Fatal(err)
	}
	if st := journalStatuses(t, jpath); len(st) != 0 {
		t.Fatalf("fresh journal inherited foreign entries: %v", st)
	}
	if !journalHeaderIs(t, jpath, JournalMeta{Scale: 2, Dilute: 30, Config: "small"}) {
		t.Fatal("the fresh journal does not carry the new sweep's header")
	}
	if got, err := os.ReadFile(jpath + ".old"); err != nil || string(got) != string(old) {
		t.Fatalf("foreign journal was not rotated aside intact (%v):\n%s", err, got)
	}
}

// TestJournalRotationFailureKeepsJournal: when the foreign journal
// cannot be rotated aside — the rename fails — opening the journal fails
// naming it, and the superseded sweep's bytes stay as they were instead
// of being replaced by a fresh header.
func TestJournalRotationFailureKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, JournalFileName)
	p := Params{Scale: 1, Dilute: 30, Config: testsupport.Small(), CacheDir: dir}
	if err := openJournalIn(t, p); err != nil {
		t.Fatal(err)
	}
	appendLine(t, jpath, `{"fp":"abc","workload":"x","status":"ok","time":"t"}`)
	old, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}

	p.Scale = 2
	p.StoreFault = (&testsupport.StoreSpec{Op: testsupport.StoreOpRename, N: 0, Kind: testsupport.StoreEIO}).StoreHook()
	err = openJournalIn(t, p)
	if err == nil || !strings.Contains(err.Error(), jpath) {
		t.Fatalf("adopting over an unrotatable journal: err = %v, want an error naming %s", err, jpath)
	}
	if got, err := os.ReadFile(jpath); err != nil || string(got) != string(old) {
		t.Fatalf("the journal it could not rotate changed (%v):\n%s", err, got)
	}
}

// openJournalIn opens p's journal in a sweep of its own, closed on
// return.
func openJournalIn(t *testing.T, p Params) error {
	t.Helper()
	p = inSweep(t, p)
	defer p.Sweep.Close()
	return p.Sweep.OpenJournal(p)
}

// appendLine appends one line to the file at path.
func appendLine(t *testing.T, path, line string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(line + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// journalHeaderIs reports whether the journal at path starts with want's
// header line.
func journalHeaderIs(t *testing.T, path string, want JournalMeta) bool {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want.Version = journalVersion
	hdr, err := json.Marshal(journalHeader{Meta: want})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.HasPrefix(got, append(hdr, '\n'))
}
