// Command vtperf is the repository's benchmark: one end-to-end and
// per-layer measurement of the simulator and its sweep stack.
//
// It builds vtbench and vtsweepd from source, runs named workloads
// through their command lines, checks every output against committed
// goldens, and prints every metric by name and unit. It touches the
// program only through surfaces a refactor of internal/ keeps: the
// vtbench/vtsweepd flags and artifacts the CI drills pin, the public
// vtsim package, and the root micro-benchmark names.
//
//	go run -C bench ./vtperf                        # all workloads, end to end
//	go run -C bench ./vtperf -workload paper_cold   # one (the driver's form)
//	go run -C bench ./vtperf -trace 1               # the per-layer ledger
//	go run -C bench ./vtperf -smoke                 # dilute 60, one pass each, no goldens
//	go run -C bench ./vtperf -selfcheck -runs 10    # run-to-run spread against the bounds
//	go run -C bench ./vtperf -update-golden         # rewrite bench/golden from exact sweeps
//
// The last line of standard output of a -workload run is one JSON
// object: correct, attempted, failed, metrics. Times are calibrated
// seconds (calibrate.go); bench/README.md is the catalogue.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name         = flag.String("workload", "", "run only this workload (default: all five, in seed order)")
		seed         = flag.Int64("seed", 1, "recorded with the results; permutes workload order and which fleet worker registers first (the simulated inputs are the fixed 22-kernel suite)")
		seconds      = flag.Float64("seconds", runSeconds, "how long one workload measures: timed passes fill this window")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		smoke        = flag.Bool("smoke", false, "dilute 60, one pass per workload, goldens skipped")
		selfcheck    = flag.Bool("selfcheck", false, "measure every workload in two sets of -runs runs and fail if a metric's spread or drift exceeds its bound")
		runs         = flag.Int("runs", 1, "with -selfcheck, runs per set")
		updateGolden = flag.Bool("update-golden", false, "regenerate bench/golden from exact single-process sweeps and exit")
		record       = flag.Bool("record", false, "also write the results under bench/results/")
		manifest     = flag.Bool("print-manifest", false, "print BENCHMARK.json as the catalogue defines it and exit")
	)
	flag.Parse()
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fatalf("-trace takes 0 or 1")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := findRoot()
	if err != nil {
		return fatalf("%v", err)
	}
	base := filepath.Join(root, ".bench_build", "vtperf")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return fatalf("%v", err)
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return fatalf("%v", err)
	}
	defer os.RemoveAll(work)

	c := runConfig{Root: root, Work: work, Seed: *seed, Seconds: *seconds, Smoke: *smoke}
	todo := append([]workload(nil), workloads...)
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fatalf("unknown workload %q", *name)
		}
		todo = []workload{w}
	} else {
		rand.New(rand.NewSource(*seed)).Shuffle(len(todo), func(i, j int) { todo[i], todo[j] = todo[j], todo[i] })
	}

	switch {
	case *updateGolden:
		err = updateGoldens(ctx, c)
	case *selfcheck:
		err = runSelfcheck(ctx, c, todo, *runs, *record)
	case *trace == 1:
		err = runTraced(ctx, c, todo, *name == "", *record)
	default:
		err = runEndToEnd(ctx, c, todo, *record)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vtperf: %v\n", err)
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "vtperf: "+format+"\n", args...)
	return 1
}

// errIncorrect is returned when a run completed but an output failed
// its check; the result line has been printed with correct: false.
var errIncorrect = errors.New("outputs failed verification")

// findRoot walks up from the working directory to the module the
// benchmark measures.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(b)), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module repro above the working directory")
		}
		dir = parent
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func printResultLine(r resultLine) {
	b, _ := json.Marshal(r)
	fmt.Println(string(b))
}

func printMetrics(m metrics, only []metricDef) {
	names := make([]string, 0, len(m))
	if only != nil {
		for _, d := range only {
			names = append(names, d.Name)
		}
	} else {
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	for _, n := range names {
		if v, ok := m[n]; ok {
			fmt.Printf("  %-38s %16.6g %s\n", n, v.Value, v.Unit)
		}
	}
}

func runEndToEnd(ctx context.Context, c runConfig, todo []workload, record bool) error {
	var all []*workloadResult
	incorrect := false
	for _, w := range todo {
		res, err := runWorkload(ctx, c, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		all = append(all, res)
		fmt.Printf("== %s: seed %d, %d timed passes (raw wall min %.3f s, max %.3f s), fail_ratio %d/%d ==\n",
			w.Name, c.Seed, res.Wall.N, res.Wall.Min, res.Wall.Max, res.Failed, res.Attempted)
		printMetrics(res.Metrics, endToEnd)
		fmt.Println("  before calibration:")
		printMetrics(res.Raw, nil)
		for _, p := range res.Problems {
			fmt.Println("PROBLEM", p)
		}
		incorrect = incorrect || !res.Correct
		printResultLine(resultLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	}
	if record {
		if err := writeResults(c, "latest.json", map[string]any{"workloads": all}); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// tracedWorkload is one workload's per-layer result.
type tracedWorkload struct {
	Workload      string  `json:"workload"`
	Correct       bool    `json:"correct"`
	Attempted     int     `json:"attempted"`
	Failed        int     `json:"failed"`
	UntracedWallS float64 `json:"untraced_wall_s"`
	TracedWallS   float64 `json:"traced_wall_s"`
	Metrics       metrics `json:"metrics"`
	// SpanMs summarises the traced pass's span durations by kind.
	SpanMs   map[string]summary `json:"span_ms,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

// traceWorkload runs w with the program's spans off and on, twice each,
// and derives the workload's per-layer metrics from the better traced
// pass.
func traceWorkload(ctx context.Context, c runConfig, w workload, rec *recorder) (*tracedWorkload, *env, error) {
	sp := rec.begin("workload", "name", w.Name)
	defer rec.end(sp)
	g, err := goldenFor(c, w)
	if err != nil {
		return nil, nil, err
	}
	e, st, err := setUp(ctx, c, w, g, rec)
	if err != nil {
		return nil, nil, err
	}
	out := &tracedWorkload{Workload: w.Name}
	// Untraced and traced passes interleave, and each side is judged by
	// its better pass, so a slow spell of the machine lands on both.
	var best [2]*passResult
	var last verdict
	for i := 0; i < 4; i++ {
		o := passOpts{Traced: i%2 == 1}
		ps := rec.begin("pass", "traced", fmt.Sprint(o.Traced))
		p, err := runPass(ctx, e, w, o)
		if err != nil {
			rec.end(ps)
			return nil, nil, err
		}
		vs := rec.begin("verify")
		v := verifyPass(w, g, p)
		rec.end(vs)
		rec.end(ps)
		out.Attempted += v.Attempted
		out.Failed += v.Failed
		out.Problems = append(out.Problems, v.Problems...)
		if b := best[i%2]; b == nil || p.WallS < b.WallS {
			best[i%2] = p
			if o.Traced {
				last = v
			}
		}
	}
	out.Correct = out.Failed == 0 && len(out.Problems) == 0
	out.UntracedWallS, out.TracedWallS = best[0].WallS, best[1].WallS
	out.Metrics = traceMetrics(w, best[1], best[0], last)
	if d := best[1].dump; d != nil {
		out.SpanMs = spanSummaries(d)
	}
	out.Metrics.set("cmd.build_s", st.BuildS)
	out.Metrics.set("cmd.startup_ms", st.StartupMs)
	return out, e, nil
}

// runTraced is the traced mode. For one workload it prints every
// per-layer metric of BENCHMARK.json (0 where the layer recorded no work
// on that workload). For all of them — the ledger — it adds the slower
// probes and, with -record, writes bench/results/trace.json.
func runTraced(ctx context.Context, c runConfig, todo []workload, ledger, record bool) error {
	rec := newRecorder()
	run := rec.begin("run")
	var traced []*tracedWorkload
	var e *env
	incorrect := false
	for _, w := range todo {
		t, env, err := traceWorkload(ctx, c, w, rec)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		e = env
		traced = append(traced, t)
		incorrect = incorrect || !t.Correct
	}
	probes := metrics{}
	add := func(m metrics, err error) error {
		for k, v := range m {
			probes[k] = v
		}
		return err
	}
	before := refSlice()
	if err := add(engineProbe(rec)); err != nil {
		return err
	}
	probes.set("host.speed_index", speedOf(before, refSlice()))
	if err := add(microProbe(ctx, c.Root, rec)); err != nil {
		return err
	}
	if ledger && !c.Smoke {
		if err := add(multikernelProbe(rec)); err != nil {
			return err
		}
		if err := add(inProcessProbes(rec)); err != nil {
			return err
		}
		if err := add(sweepProbes(ctx, e, rec)); err != nil {
			return err
		}
	}
	rec.end(run)

	for _, t := range traced {
		fmt.Printf("== %s: traced %.3f s, untraced %.3f s, fail_ratio %d/%d ==\n",
			t.Workload, t.TracedWallS, t.UntracedWallS, t.Failed, t.Attempted)
		printMetrics(t.Metrics, nil)
		for _, p := range t.Problems {
			fmt.Println("PROBLEM", p)
		}
	}
	fmt.Println("== probes ==")
	printMetrics(probes, nil)

	if record {
		doc := map[string]any{"workloads": traced, "probes": probes, "own_spans": rec.spans, "own_self_s": rec.selfTimes()}
		if err := writeResults(c, "trace.json", doc); err != nil {
			return err
		}
	}
	if !ledger {
		t := traced[0]
		line := resultLine{t.Correct, t.Attempted, t.Failed, metrics{}}
		for _, d := range perLayer {
			v := t.Metrics[d.Name].Value
			if pv, ok := probes[d.Name]; ok {
				v = pv.Value
			}
			line.Metrics[d.Name] = metricValue{v, d.Unit}
		}
		printResultLine(line)
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// writeResults writes one document under bench/results/ with the run's
// provenance beside the payload.
func writeResults(c runConfig, file string, payload map[string]any) error {
	payload["schema"] = 1
	payload["date"] = time.Now().UTC().Format(time.RFC3339)
	payload["go"] = runtime.Version()
	payload["nproc"] = runtime.NumCPU()
	payload["seed"] = c.Seed
	payload["seconds"] = c.Seconds
	payload["smoke"] = c.Smoke
	b, err := json.MarshalIndent(payload, "", " ")
	if err != nil {
		return err
	}
	dir := filepath.Join(c.Root, "bench", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), append(b, '\n'), 0o644)
}

// updateGoldens regenerates every golden from an exact single-process
// sweep of its job set. It is the only writer of bench/golden.
func updateGoldens(ctx context.Context, c runConfig) error {
	e, _, err := setUp(ctx, c, workload{}, nil, nil)
	if err != nil {
		return err
	}
	for _, set := range goldenSets {
		p, err := runPass(ctx, e, workload{Name: "golden", Set: set}, passOpts{})
		if err != nil {
			return fmt.Errorf("golden %s: %w", set.Name, err)
		}
		js := p.journals["journal"]
		if v := verifyStructure(js, p.report.RunsFailed); !v.correct() {
			return fmt.Errorf("golden %s: sweep had failures: %v", set.Name, v.Problems)
		}
		if err := writeGolden(filepath.Join(c.Root, "bench", "golden"), set.Name, p.tables, js); err != nil {
			return err
		}
		_, sum := cycleLines(js)
		fmt.Printf("golden %-11s %3d jobs, cycle sum %d\n", set.Name, len(js), sum)
	}
	return nil
}

// manifestJSON renders BENCHMARK.json from the catalogue.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "./vtperf"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}
