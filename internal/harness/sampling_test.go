package harness

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/gpu"
	"repro/internal/testsupport"
)

// testSampling is a window configuration small enough to fire inside the
// heavily diluted sweep shapes the harness tests use.
func testSampling() gpu.SamplingOptions {
	return gpu.SamplingOptions{DetailedCycles: 400, FastForwardCycles: 2000, WarmupCycles: 100}
}

// TestSamplingCacheMiss: sampled cycle counts are extrapolations, so a
// sampled sweep must never be satisfied from an exact sweep's disk cache
// (or vice versa). The sampling configuration is part of the content
// fingerprint, which keys both caches.
func TestSamplingCacheMiss(t *testing.T) {
	cache := t.TempDir()
	p, jobs := supervisorParams(t)
	p.CacheDir = cache

	if _, err := runMany(p, jobs); err != nil {
		t.Fatal(err)
	}
	if m := p.Sweep.Metrics(); m.Executed != 4 || m.SampledRuns != 0 {
		t.Fatalf("exact sweep: %+v, want 4 executed, 0 sampled", m)
	}

	// Same jobs, same cache dir, sampling on: every run must miss the
	// exact entries and execute (sampled this time).
	ps := reboot(t, p)
	ps.Sampling = testSampling()
	if _, err := runMany(ps, jobs); err != nil {
		t.Fatal(err)
	}
	m := ps.Sweep.Metrics()
	if m.CacheHits != 0 || m.Executed != 4 {
		t.Fatalf("sampled sweep over exact cache: %+v, want 0 hits / 4 executed", m)
	}
	if m.SampledRuns != 4 {
		t.Fatalf("SampledRuns = %d, want 4", m.SampledRuns)
	}

	// Re-running the sampled sweep hits its own entries; the exact sweep
	// still hits its original ones. Neither cross-contaminates.
	ps = reboot(t, ps)
	if _, err := runMany(ps, jobs); err != nil {
		t.Fatal(err)
	}
	if m := ps.Sweep.Metrics(); m.CacheHits != 4 || m.Executed != 0 {
		t.Fatalf("sampled re-run: %+v, want 4 hits / 0 executed", m)
	}
	p = reboot(t, ps)
	p.Sampling = gpu.SamplingOptions{}
	if _, err := runMany(p, jobs); err != nil {
		t.Fatal(err)
	}
	if m := p.Sweep.Metrics(); m.CacheHits != 4 || m.Executed != 0 || m.SampledRuns != 0 {
		t.Fatalf("exact re-run: %+v, want 4 hits / 0 executed / 0 sampled", m)
	}
}

// TestSamplingJournalMismatch: a sampled sweep never appends to an exact
// journal (and vice versa), nor to one with other windows — the
// fingerprints recorded there would never match. Each such open rotates
// the foreign journal aside and starts its own; the same shape again
// appends to it.
func TestSamplingJournalMismatch(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, JournalFileName)
	p := Params{Scale: 1, Dilute: 60, Config: testsupport.Small(), CacheDir: dir}
	other := gpu.SamplingOptions{DetailedCycles: 500, FastForwardCycles: 2000}

	for i, so := range []gpu.SamplingOptions{{}, testSampling(), {}, other, other} {
		p.Sampling = so
		m := JournalMeta{Scale: 1, Dilute: 60, Config: "small", Sampling: so.String()}
		if err := openJournalIn(t, p); err != nil {
			t.Fatalf("open %d (%+v): %v", i, m, err)
		}
		if !journalHeaderIs(t, jpath, m) {
			t.Fatalf("open %d: the journal does not carry %+v", i, m)
		}
	}
	// Three changes of shape, three rotations; the repeat rotates nothing.
	if old, _ := filepath.Glob(jpath + ".old*"); len(old) != 3 {
		t.Fatalf("%d journals rotated aside (%v), want 3", len(old), old)
	}
}

// TestSamplingInjectedRunsExact: fault-injected runs force the invariant
// checker, which is incompatible with fast-forward spans, so the
// supervisor must run them exactly even in a sampled sweep. The injected
// run (a 1ms hang with no deadline) succeeds, exactly.
func TestSamplingInjectedRunsExact(t *testing.T) {
	p, jobs := supervisorParams(t)
	p.FailDir = t.TempDir()
	p.Sampling = testSampling()
	p.Inject = &faultinject.Spec{Workload: "vecadd", Variant: "vt", Cycle: 100,
		Kind: faultinject.Hang, HangFor: time.Millisecond}

	res, err := runMany(p, jobs)
	if err != nil {
		t.Fatalf("a hang without a deadline must not fail the run, got %v", err)
	}
	if r := res[key{"vecadd", "vt"}]; r == nil || r.Sampling != nil {
		t.Fatalf("injected run: %+v, want an exact (unsampled) result", r)
	}
	m := p.Sweep.Metrics()
	// Three healthy jobs sampled; the injected one did not.
	if m.SampledRuns != 3 {
		t.Fatalf("SampledRuns = %d, want 3 (injected job runs exactly)", m.SampledRuns)
	}
}

// TestSamplingDisablesPrefixFork: forked runs must be bit-identical to
// full runs, which extrapolated clocks cannot promise, so Checkpoint and
// Sampling together fall back to ordinary full executions.
func TestSamplingDisablesPrefixFork(t *testing.T) {
	p := inSweep(t, Params{Scale: 1, Config: testsupport.Small(), Workers: 2, Dilute: 40,
		Checkpoint: true, Sampling: testSampling()})
	jobs := swapLatJobs("pathfinder", []int{0, 64, 256})
	if _, err := runMany(p, jobs); err != nil {
		t.Fatal(err)
	}
	m := p.Sweep.Metrics()
	if m.CheckpointsCaptured != 0 || m.CheckpointHits != 0 {
		t.Fatalf("sampled sweep must not fork: %+v", m)
	}
	if m.SampledRuns == 0 {
		t.Fatal("sweep did not sample at all")
	}
}

// TestSampledFigureIsFlagged: a figure produced by a sampled sweep must
// carry the "sampled" column so it can never pass for exact data; the
// same figure from an exact sweep must not.
func TestSampledFigureIsFlagged(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	p := inSweep(t, Params{Scale: 1, Config: config.GTX480(), Dilute: 30, Sampling: testSampling()})
	out, err := runExperiment(p, "fig-speedup")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sampled") || !strings.Contains(out, testSampling().String()) {
		t.Errorf("sampled figure not flagged:\n%s", out)
	}
	// A static table simulates nothing, so a sampled sweep leaves it
	// unflagged.
	if out, err := runExperiment(p, "table1-config"); err != nil || strings.Contains(out, "sampled") {
		t.Errorf("static table flagged sampled (err %v):\n%s", err, out)
	}

	p.Sampling = gpu.SamplingOptions{}
	out, err = runExperiment(p, "fig-speedup")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "sampled") {
		t.Errorf("exact figure wrongly flagged:\n%s", out)
	}
}

// TestSamplingSwapLatDrill is the CI sampled-accuracy drill: one
// fig-swaplat point (pathfinder, baseline vs VT at swap latency 64) run
// exact and sampled. The reported per-run error bound must be honest —
// |sampled-exact|/exact within the bound — the architectural instruction
// count must be exact, spans must actually fire (no vacuous pass), and
// the VT-vs-baseline ordering the figure reports must be preserved.
func TestSamplingSwapLatDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation drill")
	}
	jobs := append(swapLatJobs("pathfinder", []int{64}),
		Job{Workload: "pathfinder", Variant: "baseline"})
	p := inSweep(t, Params{Scale: 1, Config: testsupport.Small(), Workers: 2})
	exact, err := runMany(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	ps := p
	ps.Sampling = gpu.SamplingOptions{DetailedCycles: 4000, FastForwardCycles: 8000, WarmupCycles: 1000}
	sampled, err := runMany(ps, jobs)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []key{{Workload: "pathfinder", Variant: "baseline"}, {Workload: "pathfinder", Variant: "lat64"}} {
		e, s := exact[k], sampled[k]
		if s.Sampling == nil || s.Sampling.Spans == 0 || s.Sampling.ExtrapolatedCycles == 0 {
			t.Fatalf("%s: no fast-forward spans ran (%+v); drill is vacuous", k.Variant, s.Sampling)
		}
		if s.SM.Issued != e.SM.Issued {
			t.Errorf("%s: sampled Issued %d != exact %d (architectural state must be exact)",
				k.Variant, s.SM.Issued, e.SM.Issued)
		}
		rel := math.Abs(float64(s.Cycles-e.Cycles)) / float64(e.Cycles)
		t.Logf("%s: exact %d sampled %d rel err %.4f bound %.4f (%d spans, %d extrapolated cycles)",
			k.Variant, e.Cycles, s.Cycles, rel, s.Sampling.ErrorBound,
			s.Sampling.Spans, s.Sampling.ExtrapolatedCycles)
		if rel > s.Sampling.ErrorBound {
			t.Errorf("%s: error %.4f exceeds the reported bound %.4f (dishonest bound)",
				k.Variant, rel, s.Sampling.ErrorBound)
		}
	}

	// The figure's conclusion — does VT at this latency beat baseline? —
	// must not flip under sampling.
	eb := exact[key{Workload: "pathfinder", Variant: "baseline"}].Cycles
	ev := exact[key{Workload: "pathfinder", Variant: "lat64"}].Cycles
	sb := sampled[key{Workload: "pathfinder", Variant: "baseline"}].Cycles
	sv := sampled[key{Workload: "pathfinder", Variant: "lat64"}].Cycles
	if (ev < eb) != (sv < sb) {
		t.Errorf("VT-vs-baseline ordering flipped: exact %d/%d, sampled %d/%d", eb, ev, sb, sv)
	}
}
