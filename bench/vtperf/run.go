package main

// Running one workload: set-up, timed passes, verification, metrics.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metricValue

func (m metrics) set(name string, v float64) { m[name] = metricValue{v, unitOf(name)} }

// runConfig is what the command line fixes for every workload of a run.
type runConfig struct {
	Root    string
	Work    string
	Seed    int64
	Seconds float64
	Smoke   bool
}

// setupTimes is one set-up's cost by part, in raw seconds, and the
// machine's speed index while it ran.
type setupTimes struct {
	Speed     float64 `json:"speed_index,omitempty"`
	TotalS    float64 `json:"total_s"`
	BuildS    float64 `json:"build_s"`
	StartupMs float64 `json:"startup_ms"`
	PopulateS float64 `json:"populate_s,omitempty"`
}

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	// Raw are the same medians before calibration, in measured seconds,
	// and the passes' median speed index and busy share.
	Raw      metrics       `json:"raw"`
	Wall     summary       `json:"wall_raw_s_summary"`
	Passes   []*passResult `json:"passes"`
	Setups   []setupTimes  `json:"setups"`
	Problems []string      `json:"problems,omitempty"`
}

// goldenFor loads the golden a workload verifies against: its own job
// set's exact sweep. Smoke runs use diluted sets that have none.
func goldenFor(c runConfig, w workload) (*golden, error) {
	if c.Smoke {
		return nil, nil
	}
	return loadGolden(filepath.Join(c.Root, "bench", "golden"), w.Set.Name)
}

// setUp builds both binaries from source into a fresh directory, checks
// that they start, and for a warm workload populates the store its
// passes will copy. It returns the environment for the passes.
func setUp(ctx context.Context, c runConfig, w workload, g *golden, rec *recorder) (*env, setupTimes, error) {
	sp := rec.begin("setup")
	defer rec.end(sp)
	var st setupTimes
	t0 := time.Now()
	dir, err := os.MkdirTemp(c.Work, "setup-")
	if err != nil {
		return nil, st, err
	}
	bin := filepath.Join(dir, "bin")
	e := &env{
		Work: c.Work, Smoke: c.Smoke, Rec: rec,
		Vtbench: filepath.Join(bin, "vtbench"), Vtsweepd: filepath.Join(bin, "vtsweepd"),
		Rand: rand.New(rand.NewSource(c.Seed)),
	}

	b := rec.begin("build")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin+string(os.PathSeparator), "./cmd/vtbench", "./cmd/vtsweepd")
	build.Dir = c.Root
	out, err := build.CombinedOutput()
	rec.end(b)
	if err != nil {
		return nil, st, fmt.Errorf("go build: %w\n%s", err, out)
	}
	st.BuildS = time.Since(t0).Seconds()

	t1 := time.Now()
	if out, err := exec.CommandContext(ctx, e.Vtbench, "-list").CombinedOutput(); err != nil {
		return nil, st, fmt.Errorf("vtbench -list: %w\n%s", err, out)
	}
	st.StartupMs = float64(time.Since(t1).Microseconds()) / 1000

	if w.Warm {
		p := rec.begin("populate")
		t2 := time.Now()
		e.Pristine = filepath.Join(dir, "pristine")
		if err := os.Mkdir(e.Pristine, 0o755); err != nil {
			return nil, st, err
		}
		cold := w
		cold.Warm = false
		pctx, cancel := context.WithTimeout(ctx, passTimeout)
		res, err := runLocalPass(pctx, e, cold, passOpts{}, e.Pristine)
		cancel()
		rec.end(p)
		if err != nil {
			return nil, st, fmt.Errorf("populate store: %w", err)
		}
		if v := verifyPass(w, g, res); !v.correct() {
			return nil, st, fmt.Errorf("populated store is wrong: %v", v.Problems)
		}
		if err := os.Remove(filepath.Join(e.Pristine, "report.json")); err != nil {
			return nil, st, err
		}
		st.PopulateS = time.Since(t2).Seconds()
	}
	st.TotalS = time.Since(t0).Seconds()
	return e, st, nil
}

// verifyPass picks the check a workload's pass goes through.
func verifyPass(w workload, g *golden, p *passResult) verdict {
	switch {
	case g == nil:
		return verifyStructure(p.journals["journal"], p.report.RunsFailed)
	case w.Sampled:
		return verifySampled(g, p.tables, p.journals["journal"], p.report.RunsFailed)
	default:
		return verifyExact(g, p.tables, p.journals, p.report.RunsFailed)
	}
}

// cycleSum is the numerator of simcycles_per_s: the exact cycle count of
// the workload's distinct jobs, so a warm, fleet or sampled sweep is
// credited with the cycles the cold exact sweep simulates.
func cycleSum(g *golden, p *passResult) int64 {
	if g != nil {
		return g.CycleSum
	}
	_, sum := cycleLines(p.journals["journal"])
	return sum
}

// runWorkload measures one workload end to end with tracing off.
func runWorkload(ctx context.Context, c runConfig, w workload) (*workloadResult, error) {
	g, err := goldenFor(c, w)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Workload: w.Name, Seed: c.Seed, Metrics: metrics{}}

	// Set up several times and report the median; the passes use the
	// last one's binaries. A reference slice before and after each
	// set-up, and around the passes below, measures the machine's speed
	// (see calibrate.go); `ref` always holds the latest slice.
	var e *env
	var setupS, setupRaw []float64
	ref := refSlice()
	setups := 3
	if c.Smoke {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		var st setupTimes
		if e, st, err = setUp(ctx, c, w, g, nil); err != nil {
			return nil, err
		}
		before := ref
		ref = refSlice()
		st.Speed = speedOf(before, ref)
		res.Setups = append(res.Setups, st)
		setupS, setupRaw = append(setupS, st.TotalS*st.Speed), append(setupRaw, st.TotalS)
	}

	var walls, cpus, rawWalls, rawCPUs, speeds, busy []float64
	var sum int64
	worstErr := 0.0
	minPasses := 4
	if c.Smoke {
		minPasses = 1
	}
	// Passes since the last reference slice share the next one: a long
	// pass is bracketed by itself, short ones about a second at a time.
	var open []*passResult
	openS := 0.0
	closeBracket := func() {
		before := ref
		ref = refSlice()
		for _, p := range open {
			p.Speed = speedOf(before, ref)
			walls = append(walls, calibratedWall(p.WallS, p.BusyShare, p.Speed))
			cpus = append(cpus, p.CPUS*p.Speed)
			speeds, busy = append(speeds, p.Speed), append(busy, p.BusyShare)
		}
		open, openS = nil, 0
	}
	// Passes fill the --seconds window, which also holds their untimed
	// parts (store copy, reference slices, verification): another pass
	// starts while at least half of a typical one still fits.
	window := time.Now()
	for i := 0; i < minPasses || (!c.Smoke && time.Since(window).Seconds()+median(rawWalls)/2 <= c.Seconds); i++ {
		p, err := runPass(ctx, e, w, passOpts{})
		if err != nil {
			return nil, err
		}
		v := verifyPass(w, g, p)
		res.Attempted += v.Attempted
		res.Failed += v.Failed
		for _, pr := range v.Problems {
			res.Problems = append(res.Problems, fmt.Sprintf("pass %d: %s", i+1, pr))
		}
		worstErr = max(worstErr, v.MaxErrPct)
		sum = cycleSum(g, p)
		// Verified: keep the measurements, drop the artifacts, so the
		// generator's heap (and with it the reference job's GC cost)
		// does not grow with the pass count.
		p.tables, p.journals = "", nil
		res.Passes = append(res.Passes, p)
		rawWalls, rawCPUs = append(rawWalls, p.WallS), append(rawCPUs, p.CPUS)
		open, openS = append(open, p), openS+p.WallS
		if openS >= 1 {
			closeBracket()
		}
	}
	if len(open) > 0 {
		closeBracket()
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	res.Wall = summarize(rawWalls)
	res.Metrics.set("wall_s", median(walls))
	res.Metrics.set("cpu_s", median(cpus))
	res.Metrics.set("simcycles_per_s", float64(sum)/median(walls))
	res.Metrics.set("cycle_accuracy_pct", 100-worstErr)
	res.Metrics.set("setup_s", median(setupS))
	res.Raw = metrics{
		"wall_raw_s":  {median(rawWalls), "s"},
		"cpu_raw_s":   {median(rawCPUs), "s"},
		"setup_raw_s": {median(setupRaw), "s"},
		"speed_index": {median(speeds), "ratio"},
		"busy_share":  {median(busy), "ratio"},
	}
	return res, nil
}
