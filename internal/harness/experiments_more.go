package harness

import (
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/stats"
)

// figExtras evaluates the extension workloads (beyond the paper-facing
// suite) under every policy, as future-work-style coverage.
func figExtras() Experiment {
	names := kernels.Names(kernels.Extension)
	pols := []config.Policy{config.PolicyBaseline, config.PolicyVT, config.PolicyIdeal}
	return Experiment{
		ID:    "fig-extras",
		Title: "Extension workloads (gemm, histogram, bitonic)",
		Paper: "extension: additional workload classes beyond the reproduced suite",
		Jobs:  func(Params) []Job { return policyJobs(names, pols) },
		Reduce: func(_ Params, res []*gpu.Result) *stats.Table {
			t := stats.NewTable("normalized to baseline", "workload", "vt", "ideal", "swaps")
			for i, n := range names {
				b := float64(res[3*i].Cycles)
				v, ideal := res[3*i+1], res[3*i+2]
				t.Row(n, b/float64(v.Cycles), b/float64(ideal.Cycles), v.VT.SwapsOut)
			}
			return t
		},
	}
}

// tableEnergy estimates energy for baseline vs VT using the first-order
// model: VT finishes the same work in fewer cycles, cutting static energy,
// while swap traffic adds a small dynamic term.
func tableEnergy() Experiment {
	pols := []config.Policy{config.PolicyBaseline, config.PolicyVT}
	return Experiment{
		ID:    "table-energy",
		Title: "Energy estimate: baseline vs VT (first-order model)",
		Paper: "extension: the hardware-overhead argument implies an energy win from shorter runtime",
		Jobs:  func(Params) []Job { return policyJobs(suiteNames(), pols) },
		Reduce: func(p Params, res []*gpu.Result) *stats.Table {
			m := energy.Default()
			t := stats.NewTable("energy (mJ)",
				"workload", "base-total", "vt-total", "vt/base", "vt-swap-mJ", "edp-ratio")
			var ratios []float64
			for i, n := range suiteNames() {
				b, v := res[2*i], res[2*i+1]
				be := m.Estimate(b, &p.Config)
				ve := m.Estimate(v, &p.Config)
				ratio := ve.Total() / be.Total()
				ratios = append(ratios, ratio)
				edp := energy.EDP(ve, v.Cycles) / energy.EDP(be, b.Cycles)
				t.Row(n, be.Total(), ve.Total(), ratio, ve.Swap, edp)
			}
			t.Note("geomean VT/baseline energy: {geomean_energy_ratio} (energy-delay product improves wherever VT speeds up)",
				stats.GeoMean(ratios))
			return t
		},
	}
}

// figKepler evaluates VT on a Kepler-class configuration whose scheduling
// structures are twice Fermi's: the headroom (and hence VT's benefit)
// shrinks but does not vanish for tiny-CTA workloads.
func figKepler() Experiment {
	pols := []config.Policy{config.PolicyBaseline, config.PolicyVT}
	return Experiment{
		ID:    "fig-kepler",
		Title: "VT on a Kepler-class configuration (2x scheduling structures)",
		Paper: "extension: newer GPUs relax the scheduling limit; tiny-CTA workloads stay limited",
		Jobs: func(Params) []Job {
			jobs := policyJobs(sweepNames(), pols)
			// The Kepler runs keep the Fermi runs' labels: a point is named
			// by its fingerprint, and the config is part of that.
			for _, j := range policyJobs(sweepNames(), pols) {
				pol := j.Mutate
				j.Mutate = func(c *config.GPUConfig) {
					*c = config.KeplerLike()
					pol(c)
				}
				jobs = append(jobs, j)
			}
			return jobs
		},
		Reduce: func(_ Params, res []*gpu.Result) *stats.Table {
			fermi, kepler := res[:len(res)/2], res[len(res)/2:]
			t := stats.NewTable("VT speedup by hardware generation", "workload", "fermi", "kepler")
			var f, k []float64
			for i, n := range sweepNames() {
				sf := float64(fermi[2*i].Cycles) / float64(fermi[2*i+1].Cycles)
				sk := float64(kepler[2*i].Cycles) / float64(kepler[2*i+1].Cycles)
				f = append(f, sf)
				k = append(k, sk)
				t.Row(n, sf, sk)
			}
			t.Note("geomean: fermi {geomean_fermi}, kepler {geomean_kepler} — looser scheduling limits leave less stranded TLP",
				stats.Gain(stats.GeoMean(f)), stats.Gain(stats.GeoMean(k)))
			return t
		},
	}
}

// figMultiKernel evaluates concurrent kernel execution: a latency-bound
// tiny-CTA kernel co-scheduled with a compute-bound one. VT virtualizes
// the mix's CTAs exactly as it does a single kernel's. A mix is a job
// like any other: its workload name is the "+"-joined parts, which the
// sweep builds into disjoint arenas (kernels.BuildMix).
func figMultiKernel() Experiment {
	mixes := []string{"nw+montecarlo", "pathfinder+kmeans", "bfs+streamcluster"}
	pols := []config.Policy{config.PolicyBaseline, config.PolicyVT}
	return Experiment{
		ID:    "fig-multikernel",
		Title: "Concurrent kernel execution: latency-bound + compute-bound mixes",
		Paper: "extension: CTA virtualization applies unchanged to concurrent-kernel mixes",
		Jobs:  func(Params) []Job { return policyJobs(mixes, pols) },
		Reduce: func(_ Params, res []*gpu.Result) *stats.Table {
			t := stats.NewTable("co-scheduled mixes (cycles, normalized to baseline mix)",
				"mix", "baseline", "vt", "speedup", "swaps")
			for i, mix := range mixes {
				base, vt := res[2*i], res[2*i+1]
				t.Row(mix, base.Cycles, vt.Cycles,
					float64(base.Cycles)/float64(vt.Cycles), vt.VT.SwapsOut)
			}
			return t
		},
	}
}
