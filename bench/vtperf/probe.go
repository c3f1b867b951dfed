package main

// Per-layer numbers. Three sources, none of which reaches into
// repro/internal: the in-process engine probe over the public vtsim
// API, the root package's micro-benchmarks through `go test -bench`, and
// a workload's traced pass (its -json record, its journal, and the
// -sweeptrace dump read by span kind).

import (
	"context"
	"fmt"
	"io"
	"math"
	"os/exec"
	"runtime"
	"time"

	vtsim "repro"
)

// engineProbe times vtsim.Run on every suite kernel under the baseline
// and VT policies on one core and divides host time by the simulator's
// own counters. The simulated counters are exact and repeat on every
// run; only the host times carry noise.
func engineProbe(rec *recorder) (metrics, error) {
	sp := rec.begin("probe.engine")
	defer rec.end(sp)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	m := metrics{}
	names := vtsim.WorkloadNames()
	t0 := time.Now()
	suite := make([]vtsim.Workload, len(names))
	for i, n := range names {
		w, err := vtsim.BuildWorkload(n, 1)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", n, err)
		}
		suite[i] = w
	}
	m.set("kernels.build_suite_ms", float64(time.Since(t0).Microseconds())/1000)

	type acc struct {
		hostNs, cycles, slots                     float64
		issued, mem, alu, bar, str, idle          float64
		l1a, l1h, l2a, l2h, dram                  float64
		warpInstr, threadInstr, warpSize, retries float64
		rejects, merges                           float64
	}
	policies := []struct {
		tag string
		pol vtsim.Policy
	}{{"baseline", vtsim.PolicyBaseline}, {"vt", vtsim.PolicyVT}}
	var by [2]acc
	var runMs []float64
	var speedups []float64
	var residual, schedLimited float64
	type run struct{ ns, cycles float64 }
	runs := map[string]run{} // by "kernel/policy"
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, w := range suite {
		var ipc [2]float64
		for p, pol := range policies {
			k := rec.begin("probe.run", "kernel", names[i], "policy", pol.tag)
			t := time.Now()
			r, err := vtsim.Run(w, vtsim.GTX480().WithPolicy(pol.pol))
			ns := float64(time.Since(t).Nanoseconds())
			rec.end(k)
			if err != nil {
				return nil, fmt.Errorf("run %s/%s: %w", names[i], pol.tag, err)
			}
			runs[names[i]+"/"+pol.tag] = run{ns, float64(r.Cycles)}
			runMs = append(runMs, ns/1e6)
			ipc[p] = r.IPC()
			slotSum := r.SM.SlotIssued + r.SM.SlotStallMem + r.SM.SlotStallALU + r.SM.SlotStallBar + r.SM.SlotStallStr + r.SM.SlotIdle
			residual += math.Abs(float64(slotSum - r.Cycles*int64(r.Schedulers)*int64(r.NumSMs)))
			a := &by[p]
			a.hostNs += ns
			a.cycles += float64(r.Cycles)
			a.slots += float64(slotSum)
			a.issued += float64(r.SM.SlotIssued)
			a.mem += float64(r.SM.SlotStallMem)
			a.alu += float64(r.SM.SlotStallALU)
			a.bar += float64(r.SM.SlotStallBar)
			a.str += float64(r.SM.SlotStallStr)
			a.idle += float64(r.SM.SlotIdle)
			a.l1a += float64(r.Mem.L1Accesses)
			a.l1h += float64(r.Mem.L1Hits)
			a.l2a += float64(r.Mem.L2Accesses)
			a.l2h += float64(r.Mem.L2Hits)
			a.dram += float64(r.Mem.DRAMReads)
			a.warpInstr += float64(r.SM.Issued)
			a.threadInstr += float64(r.SM.ThreadInstrs)
			a.warpSize = float64(r.WarpSize)
			a.retries += float64(r.SM.LSURetries)
			a.rejects += float64(r.Mem.L1Rejects)
			a.merges += float64(r.Mem.L1MSHRMerges)
			switch {
			case pol.tag == "baseline" && r.Occupancy.SchedulingLimited():
				schedLimited++
			case pol.tag == "vt":
				m.set("core.swaps_out", m["core.swaps_out"].Value+float64(r.VT.SwapsOut))
				m.set("core.swap_stall_cycles", m["core.swap_stall_cycles"].Value+float64(r.VT.SwapStallCycles))
				m.set("core.denied_by_buffer", m["core.denied_by_buffer"].Value+float64(r.VT.DeniedByBuffer))
				m.set("core.ctx_peak_bytes", max(m["core.ctx_peak_bytes"].Value, float64(r.VT.ContextPeak)))
				m.set("core.max_resident", max(m["core.max_resident"].Value, float64(r.VT.MaxResident)))
			}
			switch names[i] + "/" + pol.tag {
			case "montecarlo/baseline": // 0% memory stall: the issue path alone
				m.set("sm.host_ns_per_issue.compute", ns/float64(r.SM.Issued))
			case "vecadd/baseline": // L1 hit rate 0: every transaction goes through
				m.set("mem.host_ns_per_txn.stream", ns/float64(r.SM.GlobalTxns))
			case "bfs/baseline":
				m.set("simt.simd_efficiency.bfs", r.SIMDEfficiency())
			}
		}
		speedups = append(speedups, ipc[1]/ipc[0])
	}
	runtime.ReadMemStats(&ms1)
	nRuns := float64(len(runMs))
	m.set("gpu.alloc_kb_per_run", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/nRuns)
	m.set("gpu.allocs_per_run", float64(ms1.Mallocs-ms0.Mallocs)/nRuns)

	total := by[0].hostNs + by[1].hostNs
	m.set("gpu.simcycles_per_s_1core", (by[0].cycles+by[1].cycles)/total*1e9)
	m.set("gpu.siminstr_per_s_1core", (by[0].warpInstr+by[1].warpInstr)/total*1e9)
	m.set("gpu.run_ms_p50", median(runMs))
	m.set("gpu.run_ms_max", percentile(runMs, 100))
	m.set("warp.host_ns_per_thread_instr", total/(by[0].threadInstr+by[1].threadInstr))
	m.set("warp.simd_efficiency", (by[0].threadInstr+by[1].threadInstr)/((by[0].warpInstr+by[1].warpInstr)*by[0].warpSize))
	m.set("sm.slot_sum_residual", residual)
	m.set("sm.lsu_retries", by[0].retries+by[1].retries)
	m.set("mem.l1_rejects", by[0].rejects+by[1].rejects)
	m.set("mem.mshr_merges", by[0].merges+by[1].merges)
	m.set("cta.sched_limited_workloads", schedLimited)
	for p, pol := range policies {
		a := by[p]
		m.set("gpu.host_ns_per_simcycle."+pol.tag, a.hostNs/a.cycles)
		m.set("sm.slot_issued_frac."+pol.tag, a.issued/a.slots)
		m.set("sm.slot_stall_mem_frac."+pol.tag, a.mem/a.slots)
		m.set("sm.slot_stall_alu_frac."+pol.tag, a.alu/a.slots)
		m.set("sm.slot_stall_bar_frac."+pol.tag, a.bar/a.slots)
		m.set("sm.slot_stall_str_frac."+pol.tag, a.str/a.slots)
		m.set("sm.slot_idle_frac."+pol.tag, a.idle/a.slots)
		m.set("mem.l1_hit_rate."+pol.tag, a.l1h/a.l1a)
		m.set("mem.l2_hit_rate."+pol.tag, a.l2h/a.l2a)
		m.set("mem.dram_reads."+pol.tag, a.dram)
	}
	mean, logSum := 0.0, 0.0
	for _, s := range speedups {
		mean += s
		logSum += math.Log(s)
	}
	n := float64(len(speedups))
	meanPct := 100 * (mean/n - 1)
	m.set("core.vt_speedup_mean_pct", meanPct)
	m.set("core.vt_speedup_geomean_pct", 100*(math.Exp(logSum/n)-1))
	m.set("core.paper_gap_pp", math.Abs(meanPct-paperSpeedupPct))
	if b, v := runs["nw/baseline"], runs["nw/vt"]; b.ns > 0 && v.cycles > 0 {
		// Host ns per simulated cycle under VT over baseline, on the
		// kernel that swaps most.
		m.set("core.vt_host_cost_ratio", (v.ns/v.cycles)/(b.ns/b.cycles))
	}
	return m, nil
}

// paperSpeedupPct is the paper's headline: VT's average speed-up over
// the baseline across its benchmarks.
const paperSpeedupPct = 23.9

// microBenchmarks maps a root-package benchmark to the metric its ns/op
// feeds; a benchmark `go test` does not print leaves its metric absent.
var microBenchmarks = map[string]string{
	"SIMTStackDivergence": "simt.divergence_ns_op",
	"CacheAccess":         "mem.tagarray_ns_op",
	"EventQueue":          "event.queue_ns_op",
}

func microProbe(ctx context.Context, root string, rec *recorder) (metrics, error) {
	sp := rec.begin("probe.micro")
	defer rec.end(sp)
	cmd := exec.CommandContext(ctx, "go", "test", "-run", "^$", "-bench",
		"^Benchmark(SIMTStackDivergence|CacheAccess|EventQueue)$", "-benchtime", "300ms", ".")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, tail(string(out), 20))
	}
	m := metrics{}
	for name, nsPerOp := range parseGoBench(string(out)) {
		if metric, ok := microBenchmarks[name]; ok {
			m.set(metric, nsPerOp)
		}
	}
	return m, nil
}

// spanMs returns the durations of a span kind in ms, filtered by an
// attribute when key is non-empty.
func spanMs(d *sweepDump, kind, key, val string) []float64 {
	var out []float64
	for _, s := range d.Spans {
		if s.Kind == kind && (key == "" || s.Attrs[key] == val) {
			out = append(out, float64(s.DurNs)/1e6)
		}
	}
	return out
}

// spanSummaries reports every span kind's durations (ms) the way a
// timing is to be reported: median, the highest percentile the sample
// count supports, extremes and count.
func spanSummaries(d *sweepDump) map[string]summary {
	byKind := map[string][]float64{}
	for _, s := range d.Spans {
		byKind[s.Kind] = append(byKind[s.Kind], float64(s.DurNs)/1e6)
	}
	out := map[string]summary{}
	for k, ms := range byKind {
		out[k] = summarize(ms)
	}
	return out
}

// traceMetrics turns one workload's traced pass (and the untraced pass
// run beside it) into its per-layer metrics. A span kind the pass did
// not emit yields no metric.
func traceMetrics(w workload, traced, untraced *passResult, v verdict) metrics {
	m := metrics{}
	m.set("harness.peak_rss_mb", traced.RSSMB)
	r := traced.report
	m.set("harness.jobs_requested", float64(r.RunsRequested))
	m.set("harness.jobs_executed", float64(r.RunsExecuted))
	if r.RunsRequested > 0 {
		m.set("harness.memo_hit_ratio", float64(r.CacheHits)/float64(r.RunsRequested))
	}
	m.set("harness.failures", float64(r.RunsFailed))
	m.set("harness.retries", float64(r.RunsRetried))
	m.set("harness.process_overhead_ms", 1000*(traced.WallS-r.TotalWallSec))
	m.set("resultstore.hits", float64(r.StoreHits))
	m.set("resultstore.misses", float64(r.StoreMisses))
	m.set("resultstore.repairs", float64(r.StoreRepairs))
	m.set("resultstore.retries", float64(r.StoreRetries))
	if r.RunsExecuted > 0 && traced.storeBytes > 0 {
		m.set("resultstore.bytes_per_job", float64(traced.storeBytes)/float64(r.RunsExecuted))
	}
	var static float64
	for _, e := range r.Experiments {
		// An experiment that requests no run is a static table, except
		// fig-multikernel, which simulates outside the memo and store.
		if e.RunsRequested == 0 && e.ID != "fig-multikernel" {
			static += 1000 * e.WallSeconds
		}
		m["experiment."+e.ID+".wall_s"] = metricValue{e.WallSeconds, "s"}
	}
	m.set("harness.static_tables_ms", static)
	m.set("sweepobs.trace_overhead_pct", 100*(traced.WallS-untraced.WallS)/untraced.WallS)

	if w.Sampled && r.SimCycles > 0 {
		m.set("gpu.sampled_extrapolated_frac", float64(r.ExtrapolatedCycles)/float64(r.SimCycles))
		m.set("gpu.sampled_err_pct_p50", median(v.ErrPct))
		m.set("gpu.sampled_max_bound_pct", v.MaxBound)
		m.set("gpu.sampled_bound_cover", v.BoundCover)
	}

	if traced.StartupMs > 0 {
		m.set("fabric.startup_ms", traced.StartupMs)
		m.set("fabric.linger_ms", traced.LingerMs)
	}
	if fc, ok := parseFleetLine(traced.tables); ok {
		m.set("fabric.leases_granted", float64(fc.Granted))
		m.set("fabric.leases_expired", float64(fc.Expired))
		m.set("fabric.dup_completions", float64(fc.Duplicates))
	}

	// Stage totals by span kind: from the dump where the program wrote
	// one, else from the coordinator's exposition (sums and counts only).
	total := map[string]float64{} // seconds
	count := map[string]float64{}
	if d := traced.dump; d != nil {
		byKind, covered := stages(*d)
		for k, st := range byKind {
			total[k], count[k] = float64(st.TotalNs)/1e9, float64(st.Count)
			m["stage."+k+".self_s"] = metricValue{float64(st.SelfNs) / 1e9, "s"}
		}
		m.set("sweepobs.spans", float64(len(d.Spans)))
		m.set("sweepobs.dump_kb", traced.dumpKB)
		m.set("harness.untraced_share", 1-float64(covered)/1e9/traced.WallS)
		if d.Workers > 0 && d.WallNs > 0 {
			m.set("harness.slot_utilisation", total["job"]/(float64(d.Workers)*float64(d.WallNs)/1e9))
		}
		pct := func(name string, xs []float64, p float64, scale float64) {
			if len(xs) > 0 && (p == 50 || supported(len(xs), p)) {
				m.set(name, scale*percentile(xs, p))
			}
		}
		job := spanMs(d, "job", "", "")
		pct("harness.job_ms_p50", job, 50, 1)
		pct("harness.job_ms_p90", job, 90, 1)
		tx := spanMs(d, "store.tx", "", "")
		pct("resultstore.tx_ms_p50", tx, 50, 1)
		pct("resultstore.tx_ms_p90", tx, 90, 1)
		pct("resultstore.stage_ms_p50", spanMs(d, "store.stage", "", ""), 50, 1)
		pct("resultstore.commit_ms_p50", spanMs(d, "store.commit", "", ""), 50, 1)
		pct("resultstore.apply_ms_p50", spanMs(d, "store.apply", "", ""), 50, 1)
		pct("resultstore.replicate_ms_p50", spanMs(d, "store.replicate", "", ""), 50, 1)
		pct("resultstore.get_hit_us_p50", spanMs(d, "store.get", "outcome", "hit"), 50, 1000)
		pct("resultstore.get_miss_us_p50", spanMs(d, "store.get", "outcome", "miss"), 50, 1000)
	} else {
		for series, v := range traced.prom {
			var kind string
			if _, err := fmt.Sscanf(series, `vtsweep_span_seconds_sum{kind=%q}`, &kind); err == nil {
				total[kind] = v
			} else if _, err := fmt.Sscanf(series, `vtsweep_span_seconds_count{kind=%q}`, &kind); err == nil {
				count[kind] = v
			}
		}
		var spans float64
		for _, n := range count {
			spans += n
		}
		m.set("sweepobs.spans", spans)
	}
	for kind, name := range map[string]string{
		"plan":            "harness.plan_ms",
		"execute":         "harness.execute_s",
		"store.tx":        "resultstore.tx_total_s",
		"fabric.dispatch": "fabric.dispatch_total_s",
	} {
		if count[kind] > 0 {
			v := total[kind]
			if kind == "plan" {
				v *= 1000
			}
			m.set(name, v)
		}
	}
	// Every kind, known to this file or not, under its own name.
	for kind, s := range total {
		m["stage."+kind+".total_s"] = metricValue{s, "s"}
		m["stage."+kind+".count"] = metricValue{count[kind], "count"}
	}
	return m
}

// multikernelProbe times the experiment no store or memo serves.
func multikernelProbe(rec *recorder) (metrics, error) {
	sp := rec.begin("probe.multikernel")
	defer rec.end(sp)
	p := vtsim.DefaultExperimentParams()
	p.Workers = 2
	p.FailDir = ""
	vtsim.ResetExperimentMetrics()
	t0 := time.Now()
	if err := vtsim.RunExperiment("fig-multikernel", p, io.Discard); err != nil {
		return nil, err
	}
	m := metrics{}
	m.set("gpu.multikernel_s", time.Since(t0).Seconds())
	return m, nil
}

// inProcessProbes are the remaining in-process comparisons: the
// parallel engine on two cores against one, and a run with the
// telemetry collector attached against one without.
func inProcessProbes(rec *recorder) (metrics, error) {
	sp := rec.begin("probe.inprocess")
	defer rec.end(sp)
	m := metrics{}
	timeRun := func(kernel string, procs int, collected bool) (float64, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		w, err := vtsim.BuildWorkload(kernel, 1)
		if err != nil {
			return 0, err
		}
		cfg := vtsim.GTX480().WithPolicy(vtsim.PolicyVT)
		var best float64
		for i := 0; i < 3; i++ {
			t := time.Now()
			if collected {
				_, err = vtsim.RunCollected(w, cfg, 0, nil, vtsim.NewCollector(vtsim.TelemetryConfig{}))
			} else {
				_, err = vtsim.Run(w, cfg)
			}
			if err != nil {
				return 0, err
			}
			if s := time.Since(t).Seconds(); i == 0 || s < best {
				best = s
			}
		}
		return best, nil
	}
	one, err := timeRun("mummer", 1, false)
	if err != nil {
		return nil, err
	}
	two, err := timeRun("mummer", 2, false)
	if err != nil {
		return nil, err
	}
	m.set("gpu.parallel_engine_ratio", one/two)
	plain, err := timeRun("pathfinder", 1, false)
	if err != nil {
		return nil, err
	}
	collected, err := timeRun("pathfinder", 1, true)
	if err != nil {
		return nil, err
	}
	m.set("telemetry.overhead_pct", 100*(collected-plain)/plain)
	return m, nil
}

// comparePasses runs `reps` alternating pairs of two variants of a
// workload's sweep and returns each side's median wall and b's last pass.
func comparePasses(ctx context.Context, e *env, reps int, wa workload, oa passOpts, wb workload, ob passOpts) (a, b float64, lastB *passResult, err error) {
	var as, bs []float64
	for i := 0; i < reps; i++ {
		pa, err := runPass(ctx, e, wa, oa)
		if err != nil {
			return 0, 0, nil, err
		}
		if lastB, err = runPass(ctx, e, wb, ob); err != nil {
			return 0, 0, nil, err
		}
		as, bs = append(as, pa.WallS), append(bs, lastB.WallS)
	}
	return median(as), median(bs), lastB, nil
}

// sweepProbes are the ledger's comparisons between two ways of running
// the same sweep; each costs several passes, so only the ledger run
// makes them.
func sweepProbes(ctx context.Context, e *env, rec *recorder) (metrics, error) {
	sp := rec.begin("probe.sweeps")
	defer rec.end(sp)
	const reps = 3
	m := metrics{}
	small, _ := findWorkload("small_durable")
	sampled, _ := findWorkload("swaplat_sampled")
	fleet, _ := findWorkload("swaplat_fleet")
	exact := sampled
	exact.Sampled = false

	// Durability: the same sweep with no store, with a store, mirrored.
	none, stored, _, err := comparePasses(ctx, e, reps, small, passOpts{NoStore: true}, small, passOpts{NoMirror: true})
	if err != nil {
		return nil, err
	}
	_, mirrored, _, err := comparePasses(ctx, e, reps, small, passOpts{NoStore: true}, small, passOpts{})
	if err != nil {
		return nil, err
	}
	m.set("resultstore.durable_overhead_s", stored-none)
	m.set("resultstore.mirror_overhead_s", mirrored-stored)

	// Sampling and forking against the exact fig-swaplat sweep.
	ex, sa, _, err := comparePasses(ctx, e, reps, exact, passOpts{}, sampled, passOpts{})
	if err != nil {
		return nil, err
	}
	m.set("gpu.sampled_speedup_ratio", ex/sa)
	plain, forked, fk, err := comparePasses(ctx, e, reps, exact, passOpts{}, exact, passOpts{Extra: []string{"-checkpoint"}})
	if err != nil {
		return nil, err
	}
	m.set("harness.fork_speedup_ratio", plain/forked)
	m.set("harness.fork_prefix_cycles_saved", float64(fk.report.PrefixCyclesSaved))
	m.set("harness.fork_checkpoint_hits", float64(fk.report.CheckpointHits))

	// The fleet against one process running the same jobs.
	local := fleet
	local.Fleet = false
	fl, lo, _, err := comparePasses(ctx, e, reps, fleet, passOpts{}, local, passOpts{})
	if err != nil {
		return nil, err
	}
	m.set("fabric.overhead_s", fl-lo)
	m.set("fabric.efficiency_vs_local", lo/fl)
	return m, nil
}
