package harness

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/stats"
)

// Five experiments share one shape: VT's speedup over baseline on each
// sweep workload at every point of one axis — a swap latency, a virtual
// CTA budget, a register-file size, a mechanism or a simulator-model
// variant — one column per point and a geomean row. A speedupSweep
// declares such an experiment's jobs and reduces their results.

// sweepPoint is one column of a speedup sweep: its header, the variant
// label of its runs, and the config change it makes.
type sweepPoint struct {
	header, variant string
	mutate          func(*config.GPUConfig)
}

// speedupSweep is one "VT speedup vs X" table. Unpaired points are VT
// variants measured against one plain baseline run per workload; paired
// points change the hardware both policies run on, so each is measured
// against a baseline run at the same point ("baseline-<variant>" vs
// "vt-<variant>").
type speedupSweep struct {
	title  string
	paired bool
	points []sweepPoint
}

// experiment makes the sweep a registered experiment.
func (s speedupSweep) experiment(id, title, paper string) Experiment {
	return Experiment{ID: id, Title: title, Paper: paper, Jobs: s.jobs, Reduce: s.reduce}
}

// run is the job of point pt on workload n under policy pol.
func (pt sweepPoint) run(n string, pol config.Policy, variant string) Job {
	return Job{Workload: n, Variant: variant, Mutate: func(c *config.GPUConfig) {
		c.Policy = pol
		pt.mutate(c)
	}}
}

func (s speedupSweep) jobs(Params) []Job {
	var jobs []Job
	for _, n := range sweepNames() {
		if !s.paired {
			jobs = append(jobs, Job{Workload: n, Variant: "baseline"})
		}
		for _, pt := range s.points {
			if s.paired {
				jobs = append(jobs, pt.run(n, config.PolicyBaseline, "baseline-"+pt.variant),
					pt.run(n, config.PolicyVT, "vt-"+pt.variant))
			} else {
				jobs = append(jobs, pt.run(n, config.PolicyVT, pt.variant))
			}
		}
	}
	return jobs
}

func (s speedupSweep) reduce(_ Params, res []*gpu.Result) *stats.Table {
	headers := []string{"workload"}
	for _, pt := range s.points {
		headers = append(headers, pt.header)
	}
	t := stats.NewTable(s.title, headers...)
	per := make([][]float64, len(s.points))
	for _, n := range sweepNames() {
		row := []any{n}
		var base *gpu.Result
		for i := range s.points {
			if i == 0 || s.paired {
				base, res = res[0], res[1:]
			}
			sp := float64(base.Cycles) / float64(res[0].Cycles)
			res = res[1:]
			per[i] = append(per[i], sp)
			row = append(row, sp)
		}
		t.Row(row...)
	}
	geo := []any{"geomean"}
	for _, xs := range per {
		geo = append(geo, stats.GeoMean(xs))
	}
	t.Row(geo...)
	return t
}

// figSwapLatency reproduces the swap-latency sensitivity sweep.
func figSwapLatency() Experiment {
	var pts []sweepPoint
	for _, l := range []int{0, 8, 24, 64, 128, 256, 512} {
		l := l
		pts = append(pts, sweepPoint{fmt.Sprintf("lat=%d", l), fmt.Sprintf("lat%d", l), func(c *config.GPUConfig) {
			c.VT.SwapOutLatency = l
			c.VT.SwapInLatency = l
		}})
	}
	return speedupSweep{"VT speedup vs swap latency", false, pts}.experiment("fig-swaplat",
		"Sensitivity to swap latency (sweep subset)",
		"VT's benefit relies on swaps costing only scheduling-state save/restore")
}

// figVirtualCap reproduces the virtual-CTA-budget sensitivity sweep.
func figVirtualCap() Experiment {
	var pts []sweepPoint
	for _, cp := range []int{8, 12, 16, 24, 32, 0} { // 0 = capacity bound
		cp := cp
		header := fmt.Sprintf("cap=%d", cp)
		if cp == 0 {
			header = "cap=inf"
		}
		pts = append(pts, sweepPoint{header, fmt.Sprintf("cap%d", cp), func(c *config.GPUConfig) {
			c.VT.MaxVirtualCTAsPerSM = cp
		}})
	}
	return speedupSweep{"VT speedup vs virtual CTA budget", false, pts}.experiment("fig-virtcap",
		"Sensitivity to the virtual CTA budget (sweep subset)",
		"benefit grows with resident CTAs until capacity binds")
}

// figRFSize reproduces the register-file-size sensitivity study.
func figRFSize() Experiment {
	var pts []sweepPoint
	for _, sz := range []int{16384, 32768, 65536} { // 64/128/256 KB
		sz := sz
		pts = append(pts, sweepPoint{fmt.Sprintf("rf=%dKB", sz*4/1024), fmt.Sprintf("rf%d", sz), func(c *config.GPUConfig) {
			c.RegFileSize = sz
		}})
	}
	return speedupSweep{"VT speedup vs register file size", true, pts}.experiment("fig-rfsize",
		"Sensitivity to register file size (sweep subset)",
		"a larger register file raises the capacity limit and VT's headroom")
}

// named is a point whose header and variant label are one name.
func named(name string, mutate func(*config.GPUConfig)) sweepPoint {
	return sweepPoint{name, name, mutate}
}

// ablationVT explores the Virtual Thread design space the paper's
// mechanism sections discuss: how eagerly to trigger swaps, which ready
// CTA to activate, and how many context-buffer ports to provision.
func ablationVT() Experiment {
	pts := []sweepPoint{
		named("default", func(c *config.GPUConfig) {}),
		named("act-newest", func(c *config.GPUConfig) { c.VT.Activation = config.ActNewest }),
		named("trig-0.75", func(c *config.GPUConfig) { c.VT.TriggerFraction = 0.75 }),
		named("trig-0.50", func(c *config.GPUConfig) { c.VT.TriggerFraction = 0.50 }),
		named("ports-2", func(c *config.GPUConfig) { c.VT.SwapPorts = 2 }),
		named("ports-4", func(c *config.GPUConfig) { c.VT.SwapPorts = 4 }),
		named("no-min-res", func(c *config.GPUConfig) { c.VT.MinResidencyCycles = 0 }),
	}
	return speedupSweep{"VT speedup by mechanism variant", false, pts}.experiment("ablation-vt",
		"VT design-space ablation (sweep subset)",
		"mechanism choices: full-stall trigger, FIFO-age activation, single context-buffer port")
}

// ablationModel checks that VT's benefit is not an artifact of simulator
// modeling detail: it holds with and without the DRAM row-buffer model and
// with a banked register file.
func ablationModel() Experiment {
	pts := []sweepPoint{
		named("default", func(c *config.GPUConfig) {}),
		named("flat-dram", func(c *config.GPUConfig) { c.DRAMBanks = 0 }),
		named("rf-banks", func(c *config.GPUConfig) { c.RegFileBanks = 16 }),
		named("two-level", func(c *config.GPUConfig) { c.Scheduler = config.SchedTwoLevel }),
	}
	return speedupSweep{"VT speedup by simulator model", true, pts}.experiment("ablation-model",
		"Simulator-model ablation: VT gain robustness (sweep subset)",
		"the benefit follows from scheduling-limit virtualization, not from one microarchitectural detail")
}
