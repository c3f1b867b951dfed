package main

// The benchmark's catalogue: job sets, workloads, and every metric by
// name, unit, direction and bound. BENCHMARK.json is printed from it
// (-print-manifest) and a test keeps the two equal.

import "strconv"

// jobSet is a fixed list of simulations, named by the vtbench flags
// that select it. Inputs are the program's own 22-kernel suite, so a
// set is the same on every run and has a committed golden.
type jobSet struct {
	Name   string
	Run    string // -run
	Dilute int    // -dilute (1 = evaluation size)
}

func (s jobSet) args(smoke bool) []string {
	d := s.Dilute
	if smoke {
		d = smokeDilute
	}
	return []string{"-run", s.Run, "-dilute", strconv.Itoa(d)}
}

const smokeDilute = 60

// runSeconds is BENCHMARK.json's run_seconds: the --seconds the driver
// passes, and the default here.
const runSeconds = 15

var (
	setHeadline  = jobSet{"headline", "fig-speedup", 1}
	setAllSmall  = jobSet{"all-d30", "all", 30}
	setSwaplatD4 = jobSet{"swaplat-d4", "fig-swaplat", 4}
	setSwaplat   = jobSet{"swaplat", "fig-swaplat", 1}
)

// goldenSets are the sets -update-golden regenerates.
var goldenSets = []jobSet{setHeadline, setAllSmall, setSwaplatD4, setSwaplat}

const samplingSpec = "4000:8000:1000"

type workload struct {
	Name string
	Why  string // one line, printed into BENCHMARK.json
	Set  jobSet
	// Mirror adds -mirror to the store; Warm runs against a store a
	// set-up pass populated (copied fresh for each pass) instead of an
	// empty one; Fleet runs the sweep through vtsweepd and two workers;
	// Sampled adds -sample and measures against the exact golden.
	Mirror, Warm, Fleet, Sampled bool
}

// workloads are sized for the driver's budget on two cores: a pass is
// at most ~4 s so that one --seconds window holds at least four, and
// the warm workload's store can be populated inside set-up. The README
// records what each would cost at the paper's full size.
var workloads = []workload{
	{Name: "paper_cold", Set: setHeadline, Mirror: true,
		Why: "headline fig-speedup sweep at evaluation size into an empty mirrored store: at least 95% of the time is the engine (gpu/sm/mem/event/warp/core)"},
	{Name: "paper_warm", Set: setAllSmall, Mirror: true, Warm: true,
		Why: "all 19 experiments re-run against a populated store: resultstore reads, harness memo/journal, static tables and the un-memoized fig-multikernel; the engine does nothing else"},
	{Name: "small_durable", Set: setAllSmall, Mirror: true,
		Why: "all 19 experiments at dilute 30 into an empty mirrored store: per-job fixed costs (WAL stage/commit/apply/replicate, index, journal) rival simulation"},
	{Name: "swaplat_fleet", Set: setSwaplatD4, Mirror: true, Fleet: true,
		Why: "fig-swaplat through vtsweepd and two one-slot workers: the only workload that runs fabric (lease, dispatch, object sync, completion commit, linger)"},
	{Name: "swaplat_sampled", Set: setSwaplat, Sampled: true,
		Why: "fig-swaplat under -sample 4000:8000:1000: the only workload that runs the sampling engine and may differ from exact, so speed bought with accuracy shows"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer
// metrics, which have none).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the sweep stack sees; every
// workload reports all of them with tracing off. fail_ratio is the
// result line's failed ÷ attempted and is not repeated here. Times are
// calibrated seconds (calibrate.go); even so the bounds are the widest
// the manifest allows, because what calibration leaves of this
// sandbox's speed swings is about a third of that (see the README's
// spread table). Peak RSS swings further than any allowed bound with GC
// timing, so it is a per-layer metric.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"simcycles_per_s", "cycles/s", "higher", 0.25},
	{"cycle_accuracy_pct", "%", "higher", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the per-layer metrics every workload's traced run
// reports (0 where the layer did no work on that workload). The ledger
// run (-trace 1 without -workload) reports more; see the README.
var perLayer = []metricDef{
	// The machine's speed index around the engine probe: per-layer host
	// times are raw, and this says how far to discount them.
	{Name: "host.speed_index", Unit: "ratio", Better: "higher"},
	// gpu: the engine probe, 22 kernels x {baseline, vt} in-process at GOMAXPROCS=1.
	{Name: "gpu.simcycles_per_s_1core", Unit: "cycles/s", Better: "higher"},
	{Name: "gpu.siminstr_per_s_1core", Unit: "instr/s", Better: "higher"},
	{Name: "gpu.host_ns_per_simcycle.baseline", Unit: "ns", Better: "lower"},
	{Name: "gpu.host_ns_per_simcycle.vt", Unit: "ns", Better: "lower"},
	{Name: "gpu.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gpu.run_ms_max", Unit: "ms", Better: "lower"},
	{Name: "gpu.alloc_kb_per_run", Unit: "KiB", Better: "lower"},
	{Name: "gpu.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "gpu.sampled_extrapolated_frac", Unit: "ratio", Better: "higher"},
	{Name: "gpu.sampled_err_pct_p50", Unit: "%", Better: "lower"},
	{Name: "gpu.sampled_max_bound_pct", Unit: "%", Better: "lower"},
	{Name: "gpu.sampled_bound_cover", Unit: "ratio", Better: "higher"},
	// sm: host cost of the issue path and the exact issue-slot ledger.
	{Name: "sm.host_ns_per_issue.compute", Unit: "ns", Better: "lower"},
	{Name: "sm.slot_issued_frac.baseline", Unit: "ratio", Better: "higher"},
	{Name: "sm.slot_issued_frac.vt", Unit: "ratio", Better: "higher"},
	{Name: "sm.slot_stall_mem_frac.baseline", Unit: "ratio", Better: "lower"},
	{Name: "sm.slot_stall_mem_frac.vt", Unit: "ratio", Better: "lower"},
	{Name: "sm.slot_stall_alu_frac.baseline", Unit: "ratio", Better: "lower"},
	{Name: "sm.slot_stall_alu_frac.vt", Unit: "ratio", Better: "lower"},
	{Name: "sm.slot_stall_bar_frac.baseline", Unit: "ratio", Better: "lower"},
	{Name: "sm.slot_stall_bar_frac.vt", Unit: "ratio", Better: "lower"},
	{Name: "sm.slot_stall_str_frac.baseline", Unit: "ratio", Better: "lower"},
	{Name: "sm.slot_stall_str_frac.vt", Unit: "ratio", Better: "lower"},
	{Name: "sm.slot_idle_frac.baseline", Unit: "ratio", Better: "lower"},
	{Name: "sm.slot_idle_frac.vt", Unit: "ratio", Better: "lower"},
	{Name: "sm.slot_sum_residual", Unit: "count", Better: "lower"},
	{Name: "sm.lsu_retries", Unit: "count", Better: "lower"},
	{Name: "warp.host_ns_per_thread_instr", Unit: "ns", Better: "lower"},
	{Name: "warp.simd_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "simt.simd_efficiency.bfs", Unit: "ratio", Better: "higher"},
	{Name: "simt.divergence_ns_op", Unit: "ns", Better: "lower"},
	{Name: "event.queue_ns_op", Unit: "ns", Better: "lower"},
	{Name: "mem.tagarray_ns_op", Unit: "ns", Better: "lower"},
	{Name: "mem.host_ns_per_txn.stream", Unit: "ns", Better: "lower"},
	{Name: "mem.l1_hit_rate.baseline", Unit: "ratio", Better: "higher"},
	{Name: "mem.l1_hit_rate.vt", Unit: "ratio", Better: "higher"},
	{Name: "mem.l2_hit_rate.baseline", Unit: "ratio", Better: "higher"},
	{Name: "mem.l2_hit_rate.vt", Unit: "ratio", Better: "higher"},
	{Name: "mem.dram_reads.baseline", Unit: "count", Better: "lower"},
	{Name: "mem.dram_reads.vt", Unit: "count", Better: "lower"},
	{Name: "mem.l1_rejects", Unit: "count", Better: "lower"},
	{Name: "mem.mshr_merges", Unit: "count", Better: "higher"},
	{Name: "core.vt_speedup_mean_pct", Unit: "%", Better: "higher"},
	{Name: "core.vt_speedup_geomean_pct", Unit: "%", Better: "higher"},
	{Name: "core.paper_gap_pp", Unit: "pp", Better: "lower"},
	{Name: "core.swaps_out", Unit: "count", Better: "lower"},
	{Name: "core.swap_stall_cycles", Unit: "cycles", Better: "lower"},
	{Name: "core.ctx_peak_bytes", Unit: "B", Better: "lower"},
	{Name: "core.max_resident", Unit: "count", Better: "higher"},
	{Name: "core.denied_by_buffer", Unit: "count", Better: "lower"},
	{Name: "core.vt_host_cost_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cta.sched_limited_workloads", Unit: "count", Better: "higher"},
	{Name: "kernels.build_suite_ms", Unit: "ms", Better: "lower"},
	// harness, resultstore, fabric, sweepobs: the workload's own traced pass.
	{Name: "harness.jobs_requested", Unit: "count", Better: "lower"},
	{Name: "harness.jobs_executed", Unit: "count", Better: "lower"},
	{Name: "harness.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "harness.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "harness.job_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "harness.execute_s", Unit: "s", Better: "lower"},
	{Name: "harness.slot_utilisation", Unit: "ratio", Better: "higher"},
	{Name: "harness.static_tables_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.process_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.untraced_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.failures", Unit: "count", Better: "lower"},
	{Name: "harness.retries", Unit: "count", Better: "lower"},
	{Name: "harness.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "resultstore.tx_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "resultstore.tx_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "resultstore.stage_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "resultstore.commit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "resultstore.apply_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "resultstore.replicate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "resultstore.tx_total_s", Unit: "s", Better: "lower"},
	{Name: "resultstore.get_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "resultstore.get_miss_us_p50", Unit: "us", Better: "lower"},
	{Name: "resultstore.bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "resultstore.hits", Unit: "count", Better: "higher"},
	{Name: "resultstore.misses", Unit: "count", Better: "lower"},
	{Name: "resultstore.repairs", Unit: "count", Better: "lower"},
	{Name: "resultstore.retries", Unit: "count", Better: "lower"},
	{Name: "fabric.dispatch_total_s", Unit: "s", Better: "lower"},
	{Name: "fabric.startup_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.linger_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.leases_granted", Unit: "count", Better: "lower"},
	{Name: "fabric.leases_expired", Unit: "count", Better: "lower"},
	{Name: "fabric.dup_completions", Unit: "count", Better: "lower"},
	{Name: "sweepobs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "sweepobs.spans", Unit: "count", Better: "lower"},
	{Name: "sweepobs.dump_kb", Unit: "KiB", Better: "lower"},
	{Name: "cmd.build_s", Unit: "s", Better: "lower"},
	{Name: "cmd.startup_ms", Unit: "ms", Better: "lower"},
}

// ledgerOnly are the further per-layer metrics the ledger run adds from
// probes too slow to repeat in every workload's traced run.
var ledgerOnly = []metricDef{
	{Name: "gpu.parallel_engine_ratio", Unit: "ratio", Better: "higher"},
	{Name: "gpu.multikernel_s", Unit: "s", Better: "lower"},
	{Name: "gpu.sampled_speedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "harness.fork_speedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "harness.fork_prefix_cycles_saved", Unit: "cycles", Better: "higher"},
	{Name: "harness.fork_checkpoint_hits", Unit: "count", Better: "higher"},
	{Name: "resultstore.durable_overhead_s", Unit: "s", Better: "lower"},
	{Name: "resultstore.mirror_overhead_s", Unit: "s", Better: "lower"},
	{Name: "fabric.overhead_s", Unit: "s", Better: "lower"},
	{Name: "fabric.efficiency_vs_local", Unit: "ratio", Better: "higher"},
	{Name: "telemetry.overhead_pct", Unit: "%", Better: "lower"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer, ledgerOnly} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
