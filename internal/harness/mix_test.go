package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/resultstore"
	"repro/internal/testsupport"
)

// A concurrent-kernel mix is a job whose workload name is "+"-joined, so
// fig-multikernel's six co-runs inherit what every job has. These tests
// pin that, one inherited property at a time.

// renderMixes runs fig-multikernel under p and returns its table.
func renderMixes(p Params) (string, error) { return runExperiment(p, "fig-multikernel") }

// TestMixRunsLikeAnyJob: the table is the same at any worker count under
// the invariant checker, a second render in the same process is served
// by the memo, and on a cold cache a canceled sweep context and the
// per-run deadline both reach the mixes.
func TestMixRunsLikeAnyJob(t *testing.T) {
	p := testParams(t)
	p.CheckInvariants = true
	p.Workers = 1
	serial, err := renderMixes(p)
	if err != nil {
		t.Fatal(err)
	}
	if m := p.Sweep.Metrics(); m.Requests != 6 || m.Executed != 6 {
		t.Fatalf("cold render: %+v, want 6 requests all executed", m)
	}
	if again, err := renderMixes(p); err != nil || again != serial {
		t.Fatalf("second render: err %v, table differs:\n%s\nvs\n%s", err, again, serial)
	}
	if m := p.Sweep.Metrics(); m.Requests != 12 || m.Executed != 6 {
		t.Fatalf("second render: %+v, want 6 memo hits and nothing executed", m)
	}

	p = inSweep(t, p)
	p.Workers = 4
	if concurrent, err := renderMixes(p); err != nil || concurrent != serial {
		t.Fatalf("4 workers: err %v, table differs from 1 worker:\n%s\nvs\n%s", err, concurrent, serial)
	}
	if m := p.Sweep.Metrics(); m.Executed != 6 {
		t.Fatalf("4 workers: %+v, want 6 executed", m)
	}

	p = inSweep(t, p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Ctx = ctx
	if _, err := renderMixes(p); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep context: err = %v", err)
	}
	p.Ctx = nil
	p.RunTimeout = time.Nanosecond
	if _, err := renderMixes(p); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1ns run timeout: err = %v", err)
	}
	if m := p.Sweep.Metrics(); m.Deadlines != 6 || m.Failures != 6 {
		t.Fatalf("1ns run timeout: %+v, want 6 deadlines, 6 failures", m)
	}
}

// TestMixWarmStoreSimulatesNothing: a fresh sweep (fresh memo) over the
// store a first render filled reads six result objects and executes
// nothing.
func TestMixWarmStoreSimulatesNothing(t *testing.T) {
	p := testParams(t)
	p.CacheDir = t.TempDir()
	cold, err := renderMixes(p)
	if err != nil {
		t.Fatal(err)
	}

	p = reboot(t, p) // closing is the durability barrier: the store drains and closes
	warm, err := renderMixes(p)
	if err != nil || warm != cold {
		t.Fatalf("warm render: err %v, table differs:\n%s\nvs\n%s", err, warm, cold)
	}
	if m := p.Sweep.Metrics(); m.Requests != 6 || m.Executed != 0 || m.StoreHits != 6 || m.SimCycles != 0 {
		t.Fatalf("warm render: %+v, want 6 store hits and nothing executed", m)
	}
}

// TestMixSupervised: a fault injected into one mix that does not fail it
// (a 1ms hang with no deadline) leaves the table the same, and the
// injected outcome stays out of the store; a mix naming an unknown kernel
// fails naming that part.
func TestMixSupervised(t *testing.T) {
	p := testParams(t)
	clean, err := renderMixes(p)
	if err != nil {
		t.Fatal(err)
	}

	p = inSweep(t, p)
	p.CacheDir = t.TempDir()
	p.FailDir = t.TempDir()
	if p.Inject, err = faultinject.Parse("nw+montecarlo/vt@100:hang=1ms"); err != nil {
		t.Fatal(err)
	}
	injected, err := renderMixes(p)
	if err != nil || injected != clean {
		t.Fatalf("injected render: err %v, table differs:\n%s\nvs\n%s", err, injected, clean)
	}
	p.Sweep.Sync()
	if m := p.Sweep.Metrics(); m.Executed != 6 || m.Failures != 0 {
		t.Fatalf("metrics = %+v, want 6 executed, 0 failures", m)
	}
	if objs := storeObjects(t, p.CacheDir, resultstore.KindResult); len(objs) != 5 {
		t.Fatalf("store holds %d results, want 5 (the injected mix is never cached)", len(objs))
	}

	_, err = runMany(testParams(t), []Job{{Workload: "nw+nope", Variant: "vt"}})
	if err == nil || !strings.Contains(err.Error(), `unknown workload "nope"`) {
		t.Fatalf("nw+nope: err = %v, want an unknown-workload error naming the part", err)
	}
}

// TestSampledMixesAreFlagged: under Params.Sampling the mixes sample like
// every other job, so every row of the table must carry the "sampled"
// flag and every mix outcome an error bound.
func TestSampledMixesAreFlagged(t *testing.T) {
	p := testParams(t)
	p.Sampling = testSampling()
	tap := &tapExecutor{}
	p.Executor = tap
	out, err := renderMixes(p)
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, o := range tap.outs {
		bounds[o.Entry.Workload+"/"+o.Entry.Variant] = o.Entry.ErrorBound
	}
	if !strings.Contains(out, testSampling().String()) {
		t.Errorf("sampled table does not name its windows:\n%s", out)
	}
	rows := 0
	for _, l := range strings.Split(out, "\n") {
		if !strings.Contains(l, "+") { // mix rows only
			continue
		}
		rows++
		if !strings.HasSuffix(strings.TrimRight(l, " "), "yes") {
			t.Errorf("row not flagged as sampled: %q", l)
		}
	}
	if rows != 3 {
		t.Errorf("found %d mix rows, want 3:\n%s", rows, out)
	}
	if len(bounds) != 6 {
		t.Fatalf("observed %d mix outcomes, want 6: %v", len(bounds), bounds)
	}
	for job, b := range bounds {
		if b <= 0 {
			t.Errorf("%s: sampled mix reports no error bound", job)
		}
	}
	if m := p.Sweep.Metrics(); m.SampledRuns != 6 {
		t.Errorf("SampledRuns = %d, want 6", m.SampledRuns)
	}

	p = testParams(t)
	if out, err := renderMixes(p); err != nil || strings.Contains(out, "sampled") {
		t.Errorf("exact table wrongly flagged (err %v):\n%s", err, out)
	}
}

// TestMixesNeverJournal pins the one exception mixes keep: their result
// objects commit, their completion-journal lines do not (see
// CommitOutcome), for a mix the local executor ran and for one a fabric
// coordinator commits on a worker's behalf.
func TestMixesNeverJournal(t *testing.T) {
	dir := t.TempDir()
	p := inSweep(t, Params{Scale: 1, Config: testsupport.Small(), Dilute: 60, CacheDir: dir})
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}
	jl := p.Sweep.Journal
	jobs := []Job{{Workload: "nw+vecadd", Variant: "local"}, {Workload: "vecadd", Variant: "local"}}
	res, err := runMany(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// A different mix (name order is part of the name) standing in for a
	// worker's completion; which Result rides along is immaterial here.
	remote := Job{Workload: "vecadd+nw", Variant: "remote"}
	fp, k, err := FingerprintKey(p, remote)
	if err != nil {
		t.Fatal(err)
	}
	<-CommitOutcome(p, fp, Outcome{
		Entry:  JournalEntry{FP: k, Workload: remote.Workload, Variant: remote.Variant, Status: "ok"},
		Result: res[key{"nw+vecadd", "local"}],
	})
	p.Sweep.Sync()

	if ok, failed := jl.Summary(); ok != 1 || failed != 0 {
		t.Fatalf("journal records %d ok / %d failed, want only vecadd", ok, failed)
	}
	b, err := os.ReadFile(filepath.Join(dir, JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n != 2 || strings.Contains(string(b), "+") {
		t.Fatalf("journal file has %d lines, want the header and vecadd only:\n%s", n, b)
	}
	if objs := storeObjects(t, dir, resultstore.KindResult); len(objs) != 3 {
		t.Fatalf("store holds %d results, want 3 (both mixes and vecadd)", len(objs))
	}
}
