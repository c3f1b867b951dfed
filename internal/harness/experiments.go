package harness

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/cta"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/stats"
)

// experiments is the registry, in paper order: the paper's tables and
// figures, then the extensions.
var experiments = []Experiment{
	tableConfig(),
	tableBenchmarks(),
	figLimiter(),
	figTLP(),
	figSpeedup(),
	figIdealGap(),
	figFullSwap(),
	figSwapLatency(),
	figVirtualCap(),
	figRFSize(),
	figScheduler(),
	tableSwap(),
	tableHardware(),
	ablationVT(),
	ablationModel(),
	figExtras(),
	tableEnergy(),
	figKepler(),
	figMultiKernel(),
}

// policyJobs builds one job per (workload, policy) pair, workload-major:
// a reducer finds workload i's results at res[i*len(policies):].
func policyJobs(names []string, policies []config.Policy) []Job {
	var jobs []Job
	for _, n := range names {
		for _, p := range policies {
			p := p
			jobs = append(jobs, Job{
				Workload: n,
				Variant:  p.String(),
				Mutate:   func(c *config.GPUConfig) { c.Policy = p },
			})
		}
	}
	return jobs
}

// suiteNames returns every headline workload name.
func suiteNames() []string { return kernels.Names(kernels.Headline) }

// sweepNames is the focused subset used by the parameter sweeps: the five
// scheduling-limited gainers plus one capacity-limited control, chosen to
// keep sweep run time tractable while covering both regimes.
func sweepNames() []string {
	return []string{"bfs", "spmv", "pathfinder", "lud", "nw", "srad"}
}

// tableConfig reproduces the simulated-hardware configuration table.
func tableConfig() Experiment {
	return Experiment{
		ID:    "table1-config",
		Title: "Simulated GPU configuration",
		Paper: "GPGPU-Sim GTX 480 profile: 15 SMs, 48 warps/8 CTAs/1536 threads per SM, 128 KB registers, 48 KB shared memory",
		Reduce: func(p Params, _ []*gpu.Result) *stats.Table {
			c := p.Config
			t := stats.NewTable("simulated hardware", "parameter", "value")
			t.Row("SMs", c.NumSMs)
			t.Row("warp size", c.WarpSize)
			t.Row("warp schedulers / SM", fmt.Sprintf("%d (%s)", c.NumSchedulers, c.Scheduler))
			t.Row("max CTAs / SM (scheduling)", c.MaxCTAsPerSM)
			t.Row("max warps / SM (scheduling)", c.MaxWarpsPerSM)
			t.Row("max threads / SM (scheduling)", c.MaxThreadsPerSM)
			t.Row("register file / SM (capacity)", fmt.Sprintf("%d KB", c.RegFileSize*4/1024))
			t.Row("shared memory / SM (capacity)", fmt.Sprintf("%d KB", c.SharedMemPerSM/1024))
			t.Row("L1D / SM", fmt.Sprintf("%d KB, %d-way, %d B lines, %d MSHRs",
				c.L1D.SizeBytes()/1024, c.L1D.Ways, c.L1D.LineSize, c.L1D.MSHRs))
			t.Row("L2 (total)", fmt.Sprintf("%d KB across %d partitions",
				c.L2.SizeBytes()*c.NumMemPartitions/1024, c.NumMemPartitions))
			t.Row("DRAM latency / service", fmt.Sprintf("%d cyc + %d cyc per 128 B burst",
				c.DRAMLatency, c.DRAMServiceCycles))
			t.Row("VT swap latency (out/in)", fmt.Sprintf("%d / %d cyc", c.VT.SwapOutLatency, c.VT.SwapInLatency))
			t.Row("VT context buffer / SM", fmt.Sprintf("%d KB", c.VT.ContextBufferBytes/1024))
			return t
		},
	}
}

// tableBenchmarks reproduces the benchmark-characteristics table with the
// binding occupancy limiter per workload.
func tableBenchmarks() Experiment {
	return Experiment{
		ID:    "table2-benchmarks",
		Title: "Benchmark characteristics and occupancy limiter",
		Paper: "motivation: concurrency in most general-purpose workloads is curtailed by the scheduling limit, not the capacity limit",
		Reduce: func(p Params, _ []*gpu.Result) *stats.Table {
			t := stats.NewTable("workloads",
				"workload", "threads/CTA", "regs/thr", "shmem/CTA", "CTAs/SM", "capacity-CTAs", "limiter", "sched-limited")
			sched := 0
			for _, wl := range p.Sweep.suite(p.Scale) {
				o := cta.ComputeOccupancy(wl.Launch, &p.Config)
				if o.SchedulingLimited() {
					sched++
				}
				t.Row(wl.Name, wl.Launch.BlockDim.Size(), wl.Launch.Kernel.NumRegs,
					wl.Launch.Kernel.SMemBytes, o.CTAs, o.CapacityCTAs,
					o.Limiter.String(), o.SchedulingLimited())
			}
			t.Note("{sched_limited} of {workloads} workloads are scheduling-limited", sched, len(suiteNames()))
			return t
		},
	}
}

// figLimiter reproduces the motivation figure: the fraction of
// capacity-supported thread-level parallelism the scheduling limit denies.
func figLimiter() Experiment {
	return Experiment{
		ID:    "fig-limiter",
		Title: "TLP lost to the scheduling limit (static analysis)",
		Paper: "scheduling structures strand large fractions of on-chip memory capacity",
		Reduce: func(p Params, _ []*gpu.Result) *stats.Table {
			t := stats.NewTable("stranded parallelism",
				"workload", "warps(sched)", "warps(capacity)", "stranded")
			var fractions []float64
			for _, wl := range p.Sweep.suite(p.Scale) {
				o := cta.ComputeOccupancy(wl.Launch, &p.Config)
				ws := o.CTAs * o.Footprint.Warps
				wc := o.CapacityCTAs * o.Footprint.Warps
				if wc > p.Config.MaxWarpsPerSM*4 {
					wc = p.Config.MaxWarpsPerSM * 4 // context-buffer-scale bound for display
				}
				frac := 0.0
				if wc > ws {
					frac = 1 - float64(ws)/float64(wc)
				}
				fractions = append(fractions, frac)
				t.Row(wl.Name, ws, wc, stats.Percent(frac, 0))
			}
			t.Note("mean stranded TLP: {mean_stranded}", stats.Percent(stats.Mean(fractions), 0))
			return t
		},
	}
}

// figTLP reproduces the thread-level-parallelism figure: average active and
// resident warps per SM under each policy.
func figTLP() Experiment {
	pols := []config.Policy{config.PolicyBaseline, config.PolicyVT, config.PolicyIdeal}
	return Experiment{
		ID:    "fig-tlp",
		Title: "Average active/resident warps per SM (baseline vs VT vs ideal)",
		Paper: "VT keeps capacity-limit-many CTAs resident while active CTAs respect the scheduling limit",
		Jobs:  func(Params) []Job { return policyJobs(suiteNames(), pols) },
		Reduce: func(_ Params, res []*gpu.Result) *stats.Table {
			t := stats.NewTable("warps per SM",
				"workload", "base-active", "vt-active", "vt-resident", "ideal-active")
			for i, n := range suiteNames() {
				b, v, ideal := res[3*i], res[3*i+1], res[3*i+2]
				t.Row(n, b.AvgActiveWarpsPerSM(), v.AvgActiveWarpsPerSM(),
					v.AvgResidentWarpsPerSM(), ideal.AvgActiveWarpsPerSM())
			}
			return t
		},
	}
}

// figSpeedup reproduces the headline result: per-workload VT speedup over
// the baseline.
func figSpeedup() Experiment {
	pols := []config.Policy{config.PolicyBaseline, config.PolicyVT}
	return Experiment{
		ID:    "fig-speedup",
		Title: "VT speedup over baseline (headline result)",
		Paper: "VT improves performance by 23.9% on average [abstract]",
		Jobs:  func(Params) []Job { return policyJobs(suiteNames(), pols) },
		Reduce: func(_ Params, res []*gpu.Result) *stats.Table {
			t := stats.NewTable("speedup", "workload", "base-IPC", "vt-IPC", "speedup", "swaps")
			var sp []float64
			for i, n := range suiteNames() {
				b, v := res[2*i], res[2*i+1]
				s := float64(b.Cycles) / float64(v.Cycles)
				sp = append(sp, s)
				t.Row(n, b.IPC(), v.IPC(), s, v.VT.SwapsOut)
			}
			t.Note("average speedup: {mean_speedup} (arithmetic), {geomean_speedup} (geometric); paper reports {paper_speedup} average",
				stats.Gain(stats.Mean(sp)), stats.Gain(stats.GeoMean(sp)), stats.Gain(1.239))
			return t
		},
	}
}

// figIdealGap reproduces the comparison against unbounded scheduling
// structures.
func figIdealGap() Experiment {
	pols := []config.Policy{config.PolicyBaseline, config.PolicyVT, config.PolicyIdeal}
	return Experiment{
		ID:    "fig-ideal-gap",
		Title: "VT vs ideal (unbounded scheduling structures)",
		Paper: "VT approaches the performance of scaling the scheduling structures without their hardware cost",
		Jobs:  func(Params) []Job { return policyJobs(suiteNames(), pols) },
		Reduce: func(_ Params, res []*gpu.Result) *stats.Table {
			t := stats.NewTable("normalized to baseline", "workload", "vt", "ideal", "vt-capture")
			const idealFloor = 0.05 // capture means nothing where ideal gains less
			var caps []float64
			for i, n := range suiteNames() {
				b := float64(res[3*i].Cycles)
				v := b / float64(res[3*i+1].Cycles)
				ideal := b / float64(res[3*i+2].Cycles)
				capture := stats.None
				if ideal > 1+idealFloor {
					c := (v - 1) / (ideal - 1)
					caps = append(caps, c)
					capture = stats.Percent(c, 0)
				}
				t.Row(n, v, ideal, capture)
			}
			t.Note("mean capture of ideal's gain (where ideal gains >{ideal_floor}): {mean_capture}",
				stats.Percent(idealFloor, 0), stats.Percent(stats.Mean(caps), 0))
			return t
		},
	}
}

// figFullSwap reproduces the strawman comparison: swapping full contexts
// off-chip instead of keeping them resident.
func figFullSwap() Experiment {
	pols := []config.Policy{config.PolicyBaseline, config.PolicyVT, config.PolicyFullSwap}
	return Experiment{
		ID:    "fig-fullswap",
		Title: "VT vs off-chip context switching (FullSwap strawman)",
		Paper: "keeping both active and inactive CTAs within the capacity limit obviates saving/restoring large CTA state",
		Jobs:  func(Params) []Job { return policyJobs(suiteNames(), pols) },
		Reduce: func(_ Params, res []*gpu.Result) *stats.Table {
			t := stats.NewTable("normalized to baseline", "workload", "vt", "fullswap")
			var vs, fs []float64
			for i, n := range suiteNames() {
				b := float64(res[3*i].Cycles)
				v := b / float64(res[3*i+1].Cycles)
				f := b / float64(res[3*i+2].Cycles)
				vs = append(vs, v)
				fs = append(fs, f)
				t.Row(n, v, f)
			}
			t.Note("geomean: vt {geomean_vt}, fullswap {geomean_fullswap}", stats.Gain(stats.GeoMean(vs)), stats.Gain(stats.GeoMean(fs)))
			return t
		},
	}
}

// figScheduler reproduces the warp-scheduler interaction study. Its runs
// are a paired speedup sweep's ("baseline-gto" vs "vt-gto", ...); its
// table adds a geomean note rather than a geomean row.
func figScheduler() Experiment {
	runs := speedupSweep{points: []sweepPoint{
		named("gto", func(c *config.GPUConfig) { c.Scheduler = config.SchedGTO }),
		named("lrr", func(c *config.GPUConfig) { c.Scheduler = config.SchedLRR }),
	}, paired: true}
	return Experiment{
		ID:    "fig-sched",
		Title: "Interaction with the warp scheduler (GTO vs LRR)",
		Paper: "VT's gains are not an artifact of one warp scheduling policy",
		Jobs:  runs.jobs,
		Reduce: func(_ Params, res []*gpu.Result) *stats.Table {
			t := stats.NewTable("VT speedup by scheduler", "workload", "gto", "lrr")
			var g, l []float64
			for i, n := range sweepNames() {
				r := res[4*i:]
				sg := float64(r[0].Cycles) / float64(r[1].Cycles)
				sl := float64(r[2].Cycles) / float64(r[3].Cycles)
				g = append(g, sg)
				l = append(l, sl)
				t.Row(n, sg, sl)
			}
			t.Note("geomean: gto {geomean_gto}, lrr {geomean_lrr}", stats.Gain(stats.GeoMean(g)), stats.Gain(stats.GeoMean(l)))
			return t
		},
	}
}

// tableSwap reproduces the swap-behaviour statistics table.
func tableSwap() Experiment {
	return Experiment{
		ID:    "table-swap",
		Title: "VT swap behaviour",
		Paper: "swaps are frequent but cheap; context buffer stays small",
		Jobs: func(Params) []Job {
			return policyJobs(suiteNames(), []config.Policy{config.PolicyVT})
		},
		Reduce: func(_ Params, res []*gpu.Result) *stats.Table {
			t := stats.NewTable("swap statistics",
				"workload", "swaps-out", "swaps-in", "fresh", "stall-cyc", "ctx-peak(B)", "max-resident")
			for i, n := range suiteNames() {
				v := res[i].VT
				t.Row(n, v.SwapsOut, v.SwapsIn, v.FreshActivates,
					v.SwapStallCycles, v.ContextPeak, v.MaxResident)
			}
			return t
		},
	}
}

// tableHardware reproduces the hardware-overhead estimate.
func tableHardware() Experiment {
	return Experiment{
		ID:    "table-hw",
		Title: "VT hardware overhead estimate (static)",
		Paper: "VT needs only a small context buffer plus CTA state bits, far below scaled scheduling structures",
		Reduce: func(p Params, _ []*gpu.Result) *stats.Table {
			c := p.Config
			t := stats.NewTable("per-SM overhead", "component", "bytes")
			perWarpCtx := 4 + 20 + 64 + 4 // PC + depth-1 stack + scoreboard + flags
			t.Row("context buffer (configured)", c.VT.ContextBufferBytes)
			t.Row("warp context (depth-1 stack)", perWarpCtx)
			t.Row("inactive 2-warp CTAs supported", c.VT.ContextBufferBytes/(2*perWarpCtx))
			t.Row("inactive 8-warp CTAs supported", c.VT.ContextBufferBytes/(8*perWarpCtx))
			t.Row("CTA state table (64 x 8 B)", 64*8)
			perSM := c.VT.ContextBufferBytes + 64*8
			t.Row("total per SM", perSM)
			t.Row("total per GPU", perSM*c.NumSMs)
			t.Note("compare: doubling warp slots replicates {warp_slots} SIMT stacks + PCs per SM", c.MaxWarpsPerSM)
			return t
		},
	}
}
