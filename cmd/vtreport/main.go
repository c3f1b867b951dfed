// Command vtreport prints the static occupancy analysis for the workload
// suite (or one workload): how many CTAs fit under each hardware
// constraint, which limit binds, and how much thread-level parallelism the
// scheduling limit strands — the paper's motivating analysis. With -rings
// it instead renders the timeline summary of a telemetry ring dump
// (vtsim -telemetry): the occupancy ramp and the swap-rate phases. Given
// two files it diffs them: two `vtsim -json` results metric by metric, or
// with -rings two ring dumps phase by phase.
//
// Usage:
//
//	vtreport                    # whole suite (the table2-benchmarks table)
//	vtreport -workload nw       # one workload, with the per-constraint breakdown
//	vtreport -rings dump.json   # timeline summary of a telemetry ring dump
//	vtreport base.json vt.json  # relative change of every headline metric
//	vtreport -rings a.json b.json     # per-phase diff of two ring dumps
//	vtreport -store dir         # result-store inventory + integrity audit
//	vtreport -store p -mirror m # ... across both replica sides
//	vtreport -tracepath trace.json    # critical path + stage breakdown of a sweep trace
//	vtreport -tracepath storedir      # ... loaded from the store's sweep-trace artifact
//	vtreport -tracepath t -perfetto p # ... also rendered for chrome://tracing
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	vtsim "repro"
	"repro/internal/cta"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/resultstore"
	"repro/internal/stats"
	"repro/internal/sweepobs"
	"repro/internal/telemetry"
)

func main() {
	var (
		workload  = flag.String("workload", "", "analyze one workload in detail")
		scale     = flag.Int("scale", 1, "grid size multiplier")
		rings     = flag.String("rings", "", "render the timeline summary of a telemetry ring dump (vtsim -telemetry); given a second dump as an argument, diff the two phase by phase")
		storeDir  = flag.String("store", "", "query a result store: per-kind inventory, replica sides, and a read-only integrity audit of its objects and journal")
		mirror    = flag.String("mirror", "", "with -store or -tracepath, also use this mirror side")
		tracePath = flag.String("tracepath", "", "analyze a sweep trace (vtbench -sweeptrace file, or a store directory holding the trace artifact): critical path, per-stage breakdown, stragglers")
		perfetto  = flag.String("perfetto", "", "with -tracepath, also render the trace for chrome://tracing / ui.perfetto.dev into this file")
	)
	flag.Parse()

	// A report reads a store; it never creates one. Opening a directory
	// that is not there would lay out an empty store and audit it healthy.
	for _, d := range []string{*storeDir, *mirror} {
		if fi, err := os.Stat(d); d != "" && (err != nil || !fi.IsDir()) {
			fatalf("no store directory %s", d)
		}
	}

	if *rings != "" {
		if flag.NArg() > 1 {
			fatalf("usage: vtreport -rings a.json [b.json]")
		}
		dumps, err := loadEach(telemetry.ReadDump, append([]string{*rings}, flag.Args()...))
		if err != nil {
			fatalf("%v", err)
		}
		if len(dumps) == 1 {
			ringsReport(dumps[0])
		} else {
			diffRings(dumps[0], dumps[1])
		}
		return
	}

	if flag.NArg() > 0 {
		if flag.NArg() != 2 {
			fatalf("usage: vtreport a.json b.json (two vtsim -json results)")
		}
		results, err := loadEach(loadResult, flag.Args())
		if err != nil {
			fatalf("%v", err)
		}
		diffResults(results[0], results[1])
		return
	}

	if *tracePath != "" {
		if err := traceReport(*tracePath, *mirror, *perfetto); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *storeDir != "" {
		if err := storeReport(*storeDir, *mirror); err != nil {
			fatalf("%v", err)
		}
		return
	}

	cfg := vtsim.GTX480()

	if *workload != "" {
		w, err := kernels.Build(*workload, *scale)
		if err != nil {
			fatalf("%v", err)
		}
		o := cta.ComputeOccupancy(w.Launch, &cfg)
		fp := o.Footprint
		t := stats.NewTable(fmt.Sprintf("%s occupancy on %s", w.Name, cfg.Name),
			"constraint", "per-CTA demand", "hardware", "max CTAs")
		t.Row("CTA slots", 1, cfg.MaxCTAsPerSM, o.ByCTASlots)
		t.Row("warp slots", fp.Warps, cfg.MaxWarpsPerSM, o.ByWarps)
		t.Row("thread slots", fp.Threads, cfg.MaxThreadsPerSM, o.ByThreads)
		t.Row("registers", fp.Regs, cfg.RegFileSize, o.ByRegs)
		t.Row("shared memory", fp.SMem, cfg.SharedMemPerSM, o.BySMem)
		t.Note("binding limiter: {limiter} -> {ctas} CTAs/SM; capacity alone allows {capacity_ctas}",
			o.Limiter.String(), o.CTAs, o.CapacityCTAs)
		if o.SchedulingLimited() {
			t.Note("scheduling-limited: Virtual Thread can keep {headroom}x more CTAs resident",
				o.CapacityCTAs/max(o.CTAs, 1))
		} else {
			t.Note("capacity-limited: Virtual Thread has no residency headroom here")
		}
		t.Fprint(os.Stdout)
		return
	}

	// The suite table is the table2-benchmarks experiment's, a static
	// table: its Reduce reads only the configuration and the suite.
	e, err := harness.Get("table2-benchmarks")
	if err != nil {
		fatalf("%v", err)
	}
	p := harness.DefaultParams()
	p.Config, p.Scale = cfg, *scale
	e.Reduce(p, nil).Fprint(os.Stdout)
}

// storeReport opens the result store read-mostly (opening replays the
// index and recovers any interrupted transaction) and prints the
// per-kind inventory, the replica sides, and a Verify audit of every
// object and of the journal on both sides — without modifying either
// (vtbench -repair heals).
func storeReport(dir, mirror string) error {
	st, err := resultstore.Open(resultstore.Options{Dir: dir, Mirror: mirror})
	if err != nil {
		return err
	}
	defer st.Close()

	t := stats.NewTable("result store inventory: "+dir, "kind", "objects", "bytes")
	for _, inv := range st.Inventory() {
		t.Row(inv.Kind, inv.Objects, inv.Bytes)
	}
	t.Fprint(os.Stdout)
	fmt.Println()

	s := stats.NewTable("replica sides", "role", "directory", "indexed")
	for _, sd := range st.Sides() {
		s.Row(sd.Role, sd.Dir, sd.Indexed)
	}
	s.Fprint(os.Stdout)
	fmt.Println()

	rep := st.Verify()
	fmt.Printf("audit: %d objects checked, %d healthy\n", rep.Checked, rep.Healthy)
	for _, d := range rep.Damaged {
		fmt.Printf("damaged: %s\n", d)
	}
	for _, u := range rep.Unrecoverable {
		fmt.Printf("unrecoverable: %s\n", u)
	}
	if len(rep.Damaged) > 0 || len(rep.Unrecoverable) > 0 {
		return fmt.Errorf("store has %d damaged and %d unrecoverable objects or journals; run vtbench -store %s -repair",
			len(rep.Damaged), len(rep.Unrecoverable), dir)
	}
	fmt.Println("store is healthy")
	return nil
}

// loadSweepDump reads a sweep trace from either a vtbench -sweeptrace
// JSON file or a result-store directory holding the sweep-trace
// artifact.
func loadSweepDump(path, mirror string) (*sweepobs.Dump, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return harness.LoadSweepTrace(path, mirror)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := sweepobs.DecodeDump(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// traceReport prints the critical-path analysis of one sweep trace: the
// chain of jobs that determined the wall-clock, the per-stage self-time
// breakdown, and any straggler jobs far above the median duration.
func traceReport(path, mirror, perfOut string) error {
	d, err := loadSweepDump(path, mirror)
	if err != nil {
		return err
	}
	a := sweepobs.Analyze(d)
	if a == nil {
		return fmt.Errorf("%s: trace has no spans", path)
	}

	fmt.Printf("sweep trace: %d spans, %d jobs, %d worker slots, %.3fs wall (started %s)\n",
		len(d.Spans), a.Jobs, a.Workers, a.WallSeconds, d.StartTime)
	fmt.Printf("span coverage: %.1f%% of wall-clock inside plan/job/store-batch spans\n\n", 100*a.Coverage)

	fmt.Printf("critical path (%.3fs — the chain that set the wall-clock):\n", a.PathSeconds)
	for _, s := range a.Path {
		fmt.Println("  " + sweepobs.FormatStep(s))
	}
	fmt.Println()

	t := stats.NewTable("stage breakdown (self time across all workers)",
		"stage", "count", "seconds", "share")
	var total float64
	for _, b := range a.Breakdown {
		total += b.Seconds
	}
	for _, b := range a.Breakdown {
		share := stats.None
		if total > 0 {
			share = stats.Percent(b.Seconds/total, 1)
		}
		t.Row(b.Stage, b.Count, b.Seconds, share)
	}
	if a.Workers > 1 {
		t.Note("totals span {workers} concurrent worker slots; divide by {workers} for an average-per-slot view",
			a.Workers)
	}
	t.Fprint(os.Stdout)

	if len(a.Stragglers) > 0 {
		fmt.Println()
		s := stats.NewTable("stragglers (jobs > 2x the median duration)",
			"job", "seconds", "x median")
		for _, st := range a.Stragglers {
			s.Row(st.Workload+"/"+st.Variant, st.Seconds, stats.Fixed(st.Ratio, 1))
		}
		s.Fprint(os.Stdout)
	}

	if perfOut != "" {
		f, err := os.Create(perfOut)
		if err != nil {
			return err
		}
		werr := sweepobs.WritePerfetto(f, d)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("perfetto: %v", werr)
		}
		fmt.Printf("\nwrote %s (open in chrome://tracing or ui.perfetto.dev)\n", perfOut)
	}
	return nil
}

// ringsReport renders the per-workload timeline summary of one ring
// dump: when occupancy finished ramping, and how the run divides into
// swap-rate phases (idle / low / high relative to the peak rate).
func ringsReport(d *telemetry.Dump) {
	fmt.Printf("telemetry timeline: %s under %s — %d SMs, %d cycles, %d windows\n\n",
		d.Kernel, d.Policy, d.NumSMs, d.Cycles, len(d.GPU))

	// Occupancy ramp: the first window where active warps reach 90% of
	// their peak marks the end of the launch ramp.
	peakWarps := 0
	for _, w := range d.GPU {
		peakWarps = max(peakWarps, w.ActiveWarps)
	}
	rampEnd := int64(-1)
	for _, w := range d.GPU {
		if w.ActiveWarps*10 >= peakWarps*9 {
			rampEnd = w.Cycle
			break
		}
	}
	if rampEnd >= 0 && d.Cycles > 0 {
		fmt.Printf("occupancy ramp: peak %d active warps, reached 90%% by cycle %d (%.1f%% of the run)\n",
			peakWarps, rampEnd, 100*float64(rampEnd)/float64(d.Cycles))
	}

	// Swap-rate phases: consecutive windows with the same level (idle:
	// no swaps; high: at least half the peak per-cycle swap rate; low:
	// in between) collapse into one phase row.
	peakRate := 0.0
	for _, w := range d.GPU {
		if w.Cycles > 0 {
			peakRate = max(peakRate, float64(w.SwapsOut)/float64(w.Cycles))
		}
	}
	level := func(w telemetry.Window) string {
		switch {
		case w.SwapsOut == 0:
			return "idle"
		case peakRate > 0 && float64(w.SwapsOut)/float64(w.Cycles) >= peakRate/2:
			return "high"
		}
		return "low"
	}
	type phase struct {
		start, end telemetry.Window
		level      string
		agg        telemetry.Window
	}
	var phases []phase
	for _, w := range d.GPU {
		lv := level(w)
		if n := len(phases); n > 0 && phases[n-1].level == lv {
			phases[n-1].end = w
			phases[n-1].agg = telemetry.MergeWindows(phases[n-1].agg, w)
		} else {
			phases = append(phases, phase{start: w, end: w, level: lv, agg: w})
		}
	}
	t := stats.NewTable("swap-rate phases",
		"cycles", "level", "swaps out/in", "IPC", "act warps", "res warps", "swaps/kcyc")
	for _, p := range phases {
		rate := 0.0
		if p.agg.Cycles > 0 {
			rate = 1000 * float64(p.agg.SwapsOut) / float64(p.agg.Cycles)
		}
		t.Row(fmt.Sprintf("%d..%d", p.start.Cycle-p.start.Cycles, p.end.Cycle),
			p.level, fmt.Sprintf("%d/%d", p.agg.SwapsOut, p.agg.SwapsIn),
			p.agg.IPC(), p.end.ActiveWarps, p.end.ResidentWarps, stats.Fixed(rate, 2))
	}
	t.Fprint(os.Stdout)

	// Bounded timeline table: the ring rebucketed to at most 16 rows.
	ws := telemetry.Rebucket(d.GPU, 16)
	t = stats.NewTable("timeline (rebucketed)",
		"cycles", "IPC", "act warps", "res warps", "swaps out", "L1 hit", "ctx bytes")
	for _, w := range ws {
		hit := stats.None
		if w.L1Accesses > 0 {
			hit = stats.Fixed(float64(w.L1Hits)/float64(w.L1Accesses), 3)
		}
		t.Row(fmt.Sprintf("%d..%d", w.Cycle-w.Cycles, w.Cycle), w.IPC(),
			w.ActiveWarps, w.ResidentWarps, w.SwapsOut, hit, w.CtxBytes)
	}
	if len(d.SwapLatency) > 0 {
		// Buckets are emitted in ascending order, so the range is just
		// first.Lo .. last.Hi.
		var n int64
		for _, b := range d.SwapLatency {
			n += b.Count
		}
		lo := d.SwapLatency[0].Lo
		if hi := d.SwapLatency[len(d.SwapLatency)-1].Hi; hi == -1 {
			t.Note("swap latency: {swaps} swaps, from {lo_cycles} cycles up (unbounded top bucket)", n, lo)
		} else {
			t.Note("swap latency: {swaps} swaps across [{lo_cycles}..{hi_cycles}] cycles", n, lo, hi)
		}
	}
	if d.SpansDropped > 0 {
		t.Note("warning: {spans_dropped} spans dropped (the collector keeps {spans_per_sm} per SM)", d.SpansDropped, telemetry.SpansPerSM)
	}
	t.Fprint(os.Stdout)
}

// diffResults prints the relative change of every headline metric from
// one vtsim -json result to another: the quick way to quantify a
// configuration or policy change.
func diffResults(a, b *gpu.Result) {
	warnKernels(a.Kernel, b.Kernel)
	fmt.Printf("%-24s %14s %14s %10s\n", "metric", a.Policy.String(), b.Policy.String(), "change")
	row := func(name string, va, vb float64) {
		change := stats.None
		if va != 0 {
			change = stats.Gain(vb / va)
		}
		fmt.Printf("%-24s %14.3f %14.3f %10s\n", name, va, vb, change)
	}
	row("cycles", float64(a.Cycles), float64(b.Cycles))
	row("IPC", a.IPC(), b.IPC())
	row("active warps/SM", a.AvgActiveWarpsPerSM(), b.AvgActiveWarpsPerSM())
	row("resident warps/SM", a.AvgResidentWarpsPerSM(), b.AvgResidentWarpsPerSM())
	row("SIMD efficiency", a.SIMDEfficiency(), b.SIMDEfficiency())
	row("L1 hit rate", a.Mem.L1HitRate(), b.Mem.L1HitRate())
	row("L2 hit rate", a.Mem.L2HitRate(), b.Mem.L2HitRate())
	row("DRAM reads", float64(a.Mem.DRAMReads), float64(b.Mem.DRAMReads))
	row("swaps out", float64(a.VT.SwapsOut), float64(b.VT.SwapsOut))
	if a.Cycles > 0 && b.Cycles > 0 {
		fmt.Printf("\nspeedup (a/b cycles): %.3fx\n", float64(a.Cycles)/float64(b.Cycles))
	}
}

// diffRings compares two ring dumps phase by phase: both GPU rings are
// rebucketed onto a common grid of at most 16 spans (each covering the
// same fraction of its run, so runs of different lengths still align by
// phase), then every bucket's IPC, swap, and stall-mix deltas print, and
// the bucket with the largest IPC swing is called out.
func diffRings(a, b *telemetry.Dump) {
	warnKernels(a.Kernel, b.Kernel)
	fmt.Printf("a: %s under %s — %d cycles, %d windows\n", a.Kernel, a.Policy, a.Cycles, len(a.GPU))
	fmt.Printf("b: %s under %s — %d cycles, %d windows\n\n", b.Kernel, b.Policy, b.Cycles, len(b.GPU))

	n := min(len(a.GPU), len(b.GPU), 16)
	wa := telemetry.Rebucket(a.GPU, n)
	wb := telemetry.Rebucket(b.GPU, n)
	n = min(len(wa), len(wb))
	wa, wb = wa[:n], wb[:n]

	memPct := func(w telemetry.Window) float64 {
		total := w.SlotIssued + w.SlotStallMem + w.SlotStallALU +
			w.SlotStallBar + w.SlotStallStr + w.SlotIdle
		if total == 0 {
			return 0
		}
		return 100 * float64(w.SlotStallMem) / float64(total)
	}
	fmt.Printf("%-5s %-13s %-13s %8s %9s %9s %10s\n",
		"phase", "a cycles", "b cycles", "ΔIPC", "Δswaps", "Δmem%", "Δwarps")
	worst, worstDelta := -1, 0.0
	for i := range wa {
		x, y := wa[i], wb[i]
		dIPC := y.IPC() - x.IPC()
		if d := math.Abs(dIPC); d > worstDelta {
			worst, worstDelta = i, d
		}
		fmt.Printf("%-5d %-13s %-13s %+8.2f %+9d %+9.1f %+10d\n", i,
			fmt.Sprintf("%d..%d", x.Cycle-x.Cycles, x.Cycle),
			fmt.Sprintf("%d..%d", y.Cycle-y.Cycles, y.Cycle),
			dIPC, y.SwapsOut-x.SwapsOut, memPct(y)-memPct(x),
			y.ActiveWarps-x.ActiveWarps)
	}
	if worst >= 0 {
		x, y := wa[worst], wb[worst]
		fmt.Printf("\nlargest IPC swing: phase %d (a %d..%d vs b %d..%d): %.2f -> %.2f\n",
			worst, x.Cycle-x.Cycles, x.Cycle, y.Cycle-y.Cycles, y.Cycle, x.IPC(), y.IPC())
	}
}

// warnKernels notes a diff of runs of two different kernels.
func warnKernels(a, b string) {
	if a != b {
		fmt.Printf("warning: comparing different kernels (%s vs %s)\n\n", a, b)
	}
}

// loadEach reads every path with load, stopping at the first error.
func loadEach[T any](load func(string) (*T, error), paths []string) ([]*T, error) {
	out := make([]*T, len(paths))
	for i, p := range paths {
		v, err := load(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// loadResult reads one vtsim -json result.
func loadResult(path string) (*gpu.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r gpu.Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vtreport: "+format+"\n", args...)
	os.Exit(1)
}
