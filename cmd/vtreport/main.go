// Command vtreport prints the static occupancy analysis for the workload
// suite (or one workload): how many CTAs fit under each hardware
// constraint, which limit binds, and how much thread-level parallelism the
// scheduling limit strands — the paper's motivating analysis. With -rings
// it instead renders the timeline summary of a telemetry ring dump
// (vtsim -telemetry): the occupancy ramp and the swap-rate phases.
//
// Usage:
//
//	vtreport                    # whole suite (the table2-benchmarks table)
//	vtreport -workload nw       # one workload, with the per-constraint breakdown
//	vtreport -rings dump.json   # timeline summary of a telemetry ring dump
//	vtreport -store dir         # result-store inventory + integrity audit
//	vtreport -store p -mirror m # ... across both replica sides
//	vtreport -tracepath trace.json    # critical path + stage breakdown of a sweep trace
//	vtreport -tracepath storedir      # ... loaded from the store's sweep-trace artifact
//	vtreport -tracepath t -perfetto p # ... also rendered for chrome://tracing
package main

import (
	"flag"
	"fmt"
	"os"

	vtsim "repro"
	"repro/internal/cta"
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
		rings     = flag.String("rings", "", "render the timeline summary of a telemetry ring dump (vtsim -telemetry)")
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
			fmt.Fprintf(os.Stderr, "vtreport: no store directory %s\n", d)
			os.Exit(1)
		}
	}

	if *rings != "" {
		if err := ringsReport(*rings); err != nil {
			fmt.Fprintf(os.Stderr, "vtreport: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *tracePath != "" {
		if err := traceReport(*tracePath, *mirror, *perfetto); err != nil {
			fmt.Fprintf(os.Stderr, "vtreport: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *storeDir != "" {
		if err := storeReport(*storeDir, *mirror); err != nil {
			fmt.Fprintf(os.Stderr, "vtreport: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := vtsim.GTX480()

	if *workload != "" {
		w, err := kernels.Build(*workload, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vtreport: %v\n", err)
			os.Exit(1)
		}
		o := cta.ComputeOccupancy(w.Launch, &cfg)
		fp := o.Footprint
		t := stats.NewTable(fmt.Sprintf("%s occupancy on %s", w.Name, cfg.Name),
			"constraint", "per-CTA demand", "hardware", "max CTAs")
		t.Rowf("CTA slots", 1, cfg.MaxCTAsPerSM, o.ByCTASlots)
		t.Rowf("warp slots", fp.Warps, cfg.MaxWarpsPerSM, o.ByWarps)
		t.Rowf("thread slots", fp.Threads, cfg.MaxThreadsPerSM, o.ByThreads)
		t.Rowf("registers", fp.Regs, cfg.RegFileSize, o.ByRegs)
		t.Rowf("shared memory", fp.SMem, cfg.SharedMemPerSM, o.BySMem)
		t.Note("binding limiter: %s -> %d CTAs/SM; capacity alone allows %d",
			o.Limiter, o.CTAs, o.CapacityCTAs)
		if o.SchedulingLimited() {
			t.Note("scheduling-limited: Virtual Thread can keep %dx more CTAs resident",
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
		fmt.Fprintf(os.Stderr, "vtreport: %v\n", err)
		os.Exit(1)
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
		t.Rowf(inv.Kind, inv.Objects, inv.Bytes)
	}
	t.Fprint(os.Stdout)
	fmt.Println()

	s := stats.NewTable("replica sides", "role", "directory", "indexed")
	for _, sd := range st.Sides() {
		s.Rowf(sd.Role, sd.Dir, sd.Indexed)
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
		share := "-"
		if total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*b.Seconds/total)
		}
		t.Rowf(b.Stage, b.Count, stats.F3(b.Seconds), share)
	}
	if a.Workers > 1 {
		t.Note("totals span %d concurrent worker slots; divide by %d for an average-per-slot view",
			a.Workers, a.Workers)
	}
	t.Fprint(os.Stdout)

	if len(a.Stragglers) > 0 {
		fmt.Println()
		s := stats.NewTable("stragglers (jobs > 2x the median duration)",
			"job", "seconds", "x median")
		for _, st := range a.Stragglers {
			s.Rowf(st.Workload+"/"+st.Variant, stats.F3(st.Seconds), fmt.Sprintf("%.1f", st.Ratio))
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
func ringsReport(path string) error {
	d, err := telemetry.ReadDump(path)
	if err != nil {
		return err
	}
	fmt.Printf("telemetry timeline: %s under %s — %d SMs, %d cycles, %d windows\n\n",
		d.Kernel, d.Policy, d.NumSMs, d.Cycles, len(d.GPU))

	// Occupancy ramp: the first window where active warps reach 90% of
	// their peak marks the end of the launch ramp.
	peakWarps := 0
	for _, w := range d.GPU {
		if w.ActiveWarps > peakWarps {
			peakWarps = w.ActiveWarps
		}
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
	level := func(w telemetry.Window) string {
		if w.SwapsOut == 0 {
			return "idle"
		}
		return "low"
	}
	peakRate := 0.0
	for _, w := range d.GPU {
		if w.Cycles > 0 {
			if r := float64(w.SwapsOut) / float64(w.Cycles); r > peakRate {
				peakRate = r
			}
		}
	}
	if peakRate > 0 {
		level = func(w telemetry.Window) string {
			switch r := float64(w.SwapsOut) / float64(w.Cycles); {
			case w.SwapsOut == 0:
				return "idle"
			case r >= peakRate/2:
				return "high"
			default:
				return "low"
			}
		}
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
		t.Rowf(fmt.Sprintf("%d..%d", p.start.Cycle-p.start.Cycles, p.end.Cycle),
			p.level, fmt.Sprintf("%d/%d", p.agg.SwapsOut, p.agg.SwapsIn),
			stats.F3(p.agg.IPC()), p.end.ActiveWarps, p.end.ResidentWarps,
			fmt.Sprintf("%.2f", rate))
	}
	t.Fprint(os.Stdout)

	// Bounded timeline table: the ring rebucketed to at most 16 rows.
	ws := telemetry.Rebucket(d.GPU, 16)
	t = stats.NewTable("timeline (rebucketed)",
		"cycles", "IPC", "act warps", "res warps", "swaps out", "L1 hit", "ctx bytes")
	for _, w := range ws {
		hit := "-"
		if w.L1Accesses > 0 {
			hit = stats.F3(float64(w.L1Hits) / float64(w.L1Accesses))
		}
		t.Rowf(fmt.Sprintf("%d..%d", w.Cycle-w.Cycles, w.Cycle), stats.F3(w.IPC()),
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
			t.Note("swap latency: %d swaps, from %d cycles up (unbounded top bucket)", n, lo)
		} else {
			t.Note("swap latency: %d swaps across [%d..%d] cycles", n, lo, hi)
		}
	}
	if d.SpansDropped > 0 {
		t.Note("warning: %d spans dropped (the collector keeps %d per SM)", d.SpansDropped, telemetry.SpansPerSM)
	}
	t.Fprint(os.Stdout)
	return nil
}
