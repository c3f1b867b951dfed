package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
)

// inSweep binds p to a fresh Sweep, closed when the test ends: a test's
// stand-in for a new process.
func inSweep(t testing.TB, p Params) Params {
	t.Helper()
	p.Sweep = NewSweep()
	t.Cleanup(p.Sweep.Close)
	return p
}

// reboot closes p's sweep — barrier, journal, store — and rebinds p to a
// fresh one, the way a new process over the same directories starts.
func reboot(t testing.TB, p Params) Params {
	t.Helper()
	p.Sweep.Close()
	return inSweep(t, p)
}

func testParams(t testing.TB) Params {
	return inSweep(t, Params{Scale: 1, Config: config.GTX480(), Dilute: 30})
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1-config", "table2-benchmarks", "fig-limiter", "fig-tlp",
		"fig-speedup", "fig-ideal-gap", "fig-fullswap", "fig-swaplat",
		"fig-virtcap", "fig-rfsize", "fig-sched", "table-swap", "table-hw",
		"ablation-vt", "ablation-model", "fig-extras",
		"table-energy", "fig-kepler", "fig-multikernel",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("experiments = %d, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("experiment %d = %q, want %q", i, got[i].ID, id)
		}
		if got[i].Title == "" || got[i].Paper == "" {
			t.Errorf("%s: missing title or paper expectation", id)
		}
	}
}

func TestGetExperiment(t *testing.T) {
	e, err := Get("fig-speedup")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "fig-speedup" {
		t.Fatalf("got %q", e.ID)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestStaticExperiments(t *testing.T) {
	// Static (no-simulation) experiments run instantly and must render
	// non-empty tables.
	for _, id := range []string{"table1-config", "table2-benchmarks", "fig-limiter", "table-hw"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := e.Run(DefaultParams(), &sb); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(sb.String()) < 100 {
			t.Errorf("%s: suspiciously short output:\n%s", id, sb.String())
		}
	}
}

func TestTable2ReportsMajorityScheduling(t *testing.T) {
	e, _ := Get("table2-benchmarks")
	var sb strings.Builder
	if err := e.Run(DefaultParams(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "scheduling-limited") {
		t.Fatalf("missing summary note:\n%s", out)
	}
	if !strings.Contains(out, "of 22 workloads") {
		t.Fatalf("expected the suite summary note:\n%s", out)
	}
}

func TestSpeedupExperimentDiluted(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Get("fig-speedup")
	var sb strings.Builder
	if err := e.Run(testParams(t), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"vecadd", "lud", "nw", "average speedup"} {
		if !strings.Contains(out, name) {
			t.Errorf("output missing %q:\n%s", name, out)
		}
	}
}

func TestSwapTableDiluted(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Get("table-swap")
	var sb strings.Builder
	if err := e.Run(testParams(t), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "swaps-out") {
		t.Fatalf("bad output:\n%s", sb.String())
	}
}

// TestRunMemoization pins the memo-cache contract: identical simulation
// points execute gpu.Run once, repeats are cache hits, and distinct
// configs never collide.
func TestRunMemoization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	p := inSweep(t, Params{Scale: 1, Config: config.Small(), Dilute: 50, Workers: 2})
	jobs := policyJobs([]string{"pathfinder", "nw"},
		[]config.Policy{config.PolicyBaseline, config.PolicyVT})

	first, err := runMany(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Sweep.Metrics()
	if m.Requests != 4 || m.Executed != 4 || m.CacheHits != 0 {
		t.Fatalf("cold batch: %+v, want 4 requests all executed", m)
	}
	if m.SimCycles <= 0 {
		t.Fatalf("cold batch recorded no simulated cycles: %+v", m)
	}

	second, err := runMany(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	m = p.Sweep.Metrics()
	if m.Requests != 8 || m.Executed != 4 || m.CacheHits != 4 {
		t.Fatalf("warm batch: %+v, want 4 hits and no new executions", m)
	}
	for k, res := range first {
		if second[k] != res {
			t.Errorf("%v: warm batch returned a different *Result", k)
		}
	}

	// A different hardware point must miss.
	bigger := p
	bigger.Config.NumSMs++
	if _, err := runMany(bigger, jobs[:1]); err != nil {
		t.Fatal(err)
	}
	if m = p.Sweep.Metrics(); m.Executed != 5 {
		t.Fatalf("config change did not miss the cache: %+v", m)
	}

	// A different grid (dilution) must miss too.
	coarser := p
	coarser.Dilute = 10
	if _, err := runMany(coarser, jobs[:1]); err != nil {
		t.Fatal(err)
	}
	if m = p.Sweep.Metrics(); m.Executed != 6 {
		t.Fatalf("grid change did not miss the cache: %+v", m)
	}
}

// TestRunAllMemoizes asserts the headline property: running overlapping
// experiments performs strictly fewer gpu.Run calls than the sum of
// their job lists, because shared (kernel, grid, config) points are
// computed once.
func TestRunAllMemoizes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	p := inSweep(t, Params{Scale: 1, Config: config.GTX480(), Dilute: 60, Workers: 2})
	var sb strings.Builder
	// fig-speedup runs suite x {baseline, vt}; fig-ideal-gap runs suite x
	// {baseline, vt, ideal}: the baseline and vt columns overlap exactly.
	for _, id := range []string{"fig-speedup", "fig-ideal-gap"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(p, &sb); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	m := p.Sweep.Metrics()
	if m.Executed >= m.Requests {
		t.Fatalf("no memoization across experiments: %+v", m)
	}
	if m.CacheHits == 0 {
		t.Fatalf("expected cache hits across overlapping experiments: %+v", m)
	}
}

func TestRunManyPropagatesErrors(t *testing.T) {
	p := testParams(t)
	_, err := runMany(p, []Job{{Workload: "does-not-exist", Variant: "x"}})
	if err == nil {
		t.Fatal("expected error for unknown workload")
	}
	p.Sweep = nil
	if _, err := runMany(p, nil); err == nil || !strings.Contains(err.Error(), "no Sweep") {
		t.Fatalf("batch without a sweep: err = %v, want it refused", err)
	}
}

// TestRunAllDiluted executes every experiment end-to-end on heavily
// diluted grids: the full reproduction pipeline in one test.
func TestRunAllDiluted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	p := inSweep(t, Params{Scale: 1, Config: config.GTX480(), Dilute: 60})
	var sb strings.Builder
	if err := RunExperiments(p, &sb, Experiments(), true, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, e := range Experiments() {
		if !strings.Contains(out, "### "+e.ID) {
			t.Errorf("output missing experiment %s", e.ID)
		}
	}
	if !strings.Contains(out, "average speedup") {
		t.Error("missing headline summary")
	}
}

// TestWorkersEquivalence is the serial-vs-parallel equivalence: every
// simulation is single-threaded, so host parallelism exists only across
// runs, and how many run side by side must change nothing — the tables
// byte for byte, every Result, and the simulated-cycle total.
func TestWorkersEquivalence(t *testing.T) {
	e, err := Get("fig-swaplat")
	if err != nil {
		t.Fatal(err)
	}
	type pass struct {
		tables  string
		results map[key]*gpu.Result
		cycles  int64
	}
	run := func(workers int) pass {
		tap := &tapExecutor{}
		p := testParams(t) // an empty memo: every pass simulates every point
		p.Workers = workers
		p.Executor = tap
		var sb strings.Builder
		if err := RunOne(e, p, &sb); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results := map[key]*gpu.Result{}
		for _, out := range tap.outs {
			results[key{out.Entry.Workload, out.Entry.Variant}] = out.Result
		}
		return pass{sb.String(), results, p.Sweep.Metrics().SimCycles}
	}
	ref := run(1)
	if len(ref.results) != 48 || ref.cycles == 0 {
		t.Fatalf("serial pass ran %d simulations for %d cycles, want 48 and > 0", len(ref.results), ref.cycles)
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if got.tables != ref.tables {
			t.Errorf("workers=%d: tables differ from the serial pass:\n%s\nwant:\n%s", workers, got.tables, ref.tables)
		}
		if !reflect.DeepEqual(got.results, ref.results) {
			t.Errorf("workers=%d: results differ from the serial pass", workers)
		}
		if got.cycles != ref.cycles {
			t.Errorf("workers=%d: SimCycles = %d, want %d", workers, got.cycles, ref.cycles)
		}
	}
}
