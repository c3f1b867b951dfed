package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/testsupport"
)

// inSweep binds p to a fresh Sweep, closed when the test ends: a test's
// stand-in for a new process. A p that names no StoreFault gets
// testsupport.PassThrough, so a store it opens skips the fsync syscall:
// every crash these tests drive is simulated inside the process, where
// the page cache survives it.
func inSweep(t testing.TB, p Params) Params {
	t.Helper()
	if p.StoreFault == nil {
		p.StoreFault = testsupport.PassThrough()
	}
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

// key names a run by its label.
type key struct {
	Workload string
	Variant  string
}

// runMany runs jobs as one plan and returns the results of the jobs that
// succeeded, keyed by (workload, variant): the lookup most tests want.
func runMany(p Params, jobs []Job) (map[key]*gpu.Result, error) {
	res, err := RunJobs(p, jobs)
	byKey := make(map[key]*gpu.Result, len(res))
	for i, r := range res {
		if r != nil {
			byKey[key{jobs[i].Workload, jobs[i].Variant}] = r
		}
	}
	return byKey, err
}

// runExperiment runs experiment id alone under p and returns its
// rendered, untitled output.
func runExperiment(p Params, id string) (string, error) {
	e, err := Get(id)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	err = RunExperiments(p, []Experiment{e}, Output{W: &sb}, nil)
	return sb.String(), err
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
	// Static (no-simulation) experiments declare no jobs, so they request
	// nothing, run instantly and must render non-empty tables.
	p := inSweep(t, DefaultParams())
	for _, id := range []string{"table1-config", "table2-benchmarks", "fig-limiter", "table-hw"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if e.Jobs != nil {
			t.Errorf("%s: a static table declares jobs", id)
		}
		out, err := runExperiment(p, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 100 {
			t.Errorf("%s: suspiciously short output:\n%s", id, out)
		}
	}
	if m := p.Sweep.Metrics(); m.Requests != 0 {
		t.Errorf("static tables requested %d runs", m.Requests)
	}
}

func TestTable2ReportsMajorityScheduling(t *testing.T) {
	out, err := runExperiment(inSweep(t, DefaultParams()), "table2-benchmarks")
	if err != nil {
		t.Fatal(err)
	}
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
	out, err := runExperiment(testParams(t), "fig-speedup")
	if err != nil {
		t.Fatal(err)
	}
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
	out, err := runExperiment(testParams(t), "table-swap")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "swaps-out") {
		t.Fatalf("bad output:\n%s", out)
	}
}

// TestRunMemoization pins the memo-cache contract: identical simulation
// points execute gpu.Run once, repeats are cache hits, and distinct
// configs never collide.
func TestRunMemoization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	p := inSweep(t, Params{Scale: 1, Config: testsupport.Small(), Dilute: 50, Workers: 2})
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
	// fig-speedup runs suite x {baseline, vt}; fig-ideal-gap runs suite x
	// {baseline, vt, ideal}: the baseline and vt columns overlap exactly.
	var todo []Experiment
	for _, id := range []string{"fig-speedup", "fig-ideal-gap"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		todo = append(todo, e)
	}
	if err := RunExperiments(p, todo, Output{W: io.Discard}, nil); err != nil {
		t.Fatal(err)
	}
	m := p.Sweep.Metrics()
	if m.Executed >= m.Requests {
		t.Fatalf("no memoization across experiments: %+v", m)
	}
	if m.CacheHits == 0 {
		t.Fatalf("expected cache hits across overlapping experiments: %+v", m)
	}
	n := len(suiteNames())
	if m.Requests != 5*n || m.Executed != 3*n {
		t.Fatalf("%d requests, %d executed; want %d requests of %d distinct points", m.Requests, m.Executed, 5*n, 3*n)
	}
}

// TestRunManyPropagatesErrors: a failed job's error reaches the caller
// under its label, its result slot stays nil while the rest of the batch
// still runs, and a batch without a sweep is refused.
func TestRunManyPropagatesErrors(t *testing.T) {
	p := testParams(t)
	res, err := RunJobs(p, []Job{{Workload: "does-not-exist", Variant: "x"}, {Workload: "vecadd", Variant: "ok"}})
	if err == nil || !strings.Contains(err.Error(), "does-not-exist/x: ") {
		t.Fatalf("unknown workload: err = %v, want it reported under its label", err)
	}
	if len(res) != 2 || res[0] != nil || res[1] == nil {
		t.Fatalf("results = %v, want nil for the failed job and a result for the other", res)
	}
	p.Sweep = nil
	if _, err := runMany(p, nil); err == nil || !strings.Contains(err.Error(), "no Sweep") {
		t.Fatalf("batch without a sweep: err = %v, want it refused", err)
	}
	if err := RunExperiments(p, Experiments()[:1], Output{W: io.Discard}, nil); err == nil || !strings.Contains(err.Error(), "no Sweep") {
		t.Fatalf("experiments without a sweep: err = %v, want them refused", err)
	}
}

// TestRunAllDiluted executes every experiment end-to-end on diluted
// grids — the full reproduction pipeline in one test — and pins what it
// prints: every table byte for byte against bench/golden/all-d30.tables.txt
// (read, never written; normalized as bench/vtperf normalizes it), one
// CSV per experiment ID, and every number in a note as a named value the
// reduced table hands back.
func TestRunAllDiluted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "bench", "golden", "all-d30.tables.txt"))
	if err != nil {
		t.Fatal(err)
	}
	p := inSweep(t, Params{Scale: 1, Config: config.GTX480(), Dilute: 30})
	dir := t.TempDir()
	var sb strings.Builder
	tables := map[string]*stats.Table{}
	keep := func(r ExperimentRun) { tables[r.ID] = r.Table }
	if err := RunExperiments(p, Experiments(), Output{W: &sb, Titled: true, CSVDir: dir}, keep); err != nil {
		t.Fatal(err)
	}
	got, want := strings.Split(normalizeTables(sb.String()), "\n"), strings.Split(string(golden), "\n")
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("tables differ from the golden from line %d:\n%s\nwant:\n%s", i+1,
				strings.Join(got[i:min(i+5, len(got))], "\n"), strings.Join(want[i:min(i+5, len(want))], "\n"))
		}
	}
	for _, e := range Experiments() {
		if _, err := os.Stat(filepath.Join(dir, e.ID+".csv")); err != nil {
			t.Errorf("no CSV for %s: %v", e.ID, err)
		}
		// A note's numbers are its named values: with their renderings
		// cut out, no digit is left.
		tb := tables[e.ID]
		for _, line := range strings.Split(tb.String(), "\n") {
			if !strings.HasPrefix(line, "  note: ") {
				continue
			}
			for _, v := range tb.Values() {
				line = strings.ReplaceAll(line, v.String(), "")
			}
			if strings.ContainsAny(line, "0123456789") {
				t.Errorf("%s: a number in a note is not a named value: %q", e.ID, line)
			}
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != len(Experiments()) {
		t.Errorf("CSV dir holds %d files (err %v), want one per experiment", len(entries), err)
	}

	// The headline reads back as computed: the geometric mean of the
	// per-workload speedups, served again from the sweep's memo.
	e, err := Get("fig-speedup")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunJobs(p, e.Jobs(p))
	if err != nil {
		t.Fatal(err)
	}
	var sp []float64
	for i := 0; i < len(res); i += 2 {
		sp = append(sp, float64(res[i].Cycles)/float64(res[i+1].Cycles))
	}
	geo, ok := tables["fig-speedup"].Values()["geomean_speedup"]
	if !ok || geo.Num() != stats.GeoMean(sp) {
		t.Errorf("geomean_speedup = %v (named: %v), want %v", geo.Num(), ok, stats.GeoMean(sp))
	}
}

// normalizeTables drops the output lines that report timing or fleet
// bookkeeping rather than results and trims trailing whitespace, as
// bench/vtperf does before comparing with a golden.
func normalizeTables(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "total wall time") && !strings.HasPrefix(line, "checkpoints:") && !strings.HasPrefix(line, "fleet:") {
			b.WriteString(strings.TrimRight(line, " \t") + "\n")
		}
	}
	return strings.TrimRight(b.String(), "\n") + "\n"
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
		if err := RunExperiments(p, []Experiment{e}, Output{W: &sb}, nil); err != nil {
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

// TestPlanEquivalence: every experiment run as one plan prints what each
// experiment run alone, in order, on one sweep printed — the tables byte
// for byte — and journals the same multiset of "workload/variant cycles"
// lines, so a point several experiments share keeps the label of the
// first job that requests it (fig-rfsize's baseline-rf32768 is journalled
// as fig-speedup's baseline) — at one worker and at eight.
func TestPlanEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	sweep := func(workers int, plans [][]Experiment) (tables string, journal []string) {
		p := inSweep(t, Params{Scale: 1, Config: config.GTX480(), Dilute: 60, Workers: workers, CacheDir: t.TempDir()})
		if err := p.Sweep.OpenJournal(p); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, todo := range plans {
			if err := RunExperiments(p, todo, Output{W: &sb, Titled: true}, nil); err != nil {
				t.Fatal(err)
			}
		}
		p.Sweep.Close()
		b, err := os.ReadFile(filepath.Join(p.CacheDir, JournalFileName))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			var e JournalEntry
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatal(err)
			}
			if e.FP != "" {
				journal = append(journal, fmt.Sprintf("%s/%s %d", e.Workload, e.Variant, e.Cycles))
			}
		}
		sort.Strings(journal)
		return sb.String(), journal
	}
	var alone [][]Experiment
	for _, e := range Experiments() {
		alone = append(alone, []Experiment{e})
	}
	wantTables, wantJournal := sweep(1, alone)
	if len(wantJournal) == 0 {
		t.Fatal("the sweep journalled nothing")
	}
	for _, line := range wantJournal {
		if strings.Contains(line, "/baseline-rf32768 ") {
			t.Errorf("journal line %q: fig-speedup's baseline run requested that point first", line)
		}
	}
	for _, workers := range []int{1, 8} {
		tables, journal := sweep(workers, [][]Experiment{Experiments()})
		if tables != wantTables {
			t.Errorf("workers=%d: one plan's tables differ from the experiments run alone:\n%s\nwant:\n%s", workers, tables, wantTables)
		}
		if !slices.Equal(journal, wantJournal) {
			t.Errorf("workers=%d: one plan journals %d lines, the experiments run alone %d, and they differ", workers, len(journal), len(wantJournal))
		}
	}
}
