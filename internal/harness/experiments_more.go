package harness

import (
	"io"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/stats"
)

func init() {
	register(tableEnergy())
	register(figKepler())
}

// tableEnergy estimates energy for baseline vs VT using the first-order
// model: VT finishes the same work in fewer cycles, cutting static energy,
// while swap traffic adds a small dynamic term.
func tableEnergy() Experiment {
	return Experiment{
		ID:    "table-energy",
		Title: "Energy estimate: baseline vs VT (first-order model)",
		Paper: "extension: the hardware-overhead argument implies an energy win from shorter runtime",
		Run: func(p Params, w io.Writer) error {
			pols := []config.Policy{config.PolicyBaseline, config.PolicyVT}
			res, err := runMany(p, policyJobs(suiteNames(), pols))
			if err != nil {
				return err
			}
			m := energy.Default()
			t := stats.NewTable("energy (mJ)",
				"workload", "base-total", "vt-total", "vt/base", "vt-swap-mJ", "edp-ratio")
			var ratios []float64
			for _, n := range suiteNames() {
				b := res[key{n, "baseline"}]
				v := res[key{n, "vt"}]
				be := m.Estimate(b, &p.Config)
				ve := m.Estimate(v, &p.Config)
				ratio := ve.Total() / be.Total()
				ratios = append(ratios, ratio)
				edp := energy.EDP(ve, v.Cycles) / energy.EDP(be, b.Cycles)
				t.Rowf(n, be.Total(), ve.Total(), ratio, ve.Swap, edp)
			}
			t.Note("geomean VT/baseline energy: %.3f (energy-delay product improves wherever VT speeds up)",
				stats.GeoMean(ratios))
			markSampled(t, p)
			t.Fprint(w)
			return nil
		},
	}
}

// figKepler evaluates VT on a Kepler-class configuration whose scheduling
// structures are twice Fermi's: the headroom (and hence VT's benefit)
// shrinks but does not vanish for tiny-CTA workloads.
func figKepler() Experiment {
	return Experiment{
		ID:    "fig-kepler",
		Title: "VT on a Kepler-class configuration (2x scheduling structures)",
		Paper: "extension: newer GPUs relax the scheduling limit; tiny-CTA workloads stay limited",
		Run: func(p Params, w io.Writer) error {
			kp := p
			kp.Config = config.KeplerLike()
			fermi, err := runMany(p, policyJobs(sweepNames(), []config.Policy{config.PolicyBaseline, config.PolicyVT}))
			if err != nil {
				return err
			}
			kepler, err := runMany(kp, policyJobs(sweepNames(), []config.Policy{config.PolicyBaseline, config.PolicyVT}))
			if err != nil {
				return err
			}
			t := stats.NewTable("VT speedup by hardware generation", "workload", "fermi", "kepler")
			var f, k []float64
			for _, n := range sweepNames() {
				sf := float64(fermi[key{n, "baseline"}].Cycles) / float64(fermi[key{n, "vt"}].Cycles)
				sk := float64(kepler[key{n, "baseline"}].Cycles) / float64(kepler[key{n, "vt"}].Cycles)
				f = append(f, sf)
				k = append(k, sk)
				t.Rowf(n, sf, sk)
			}
			t.Note("geomean: fermi %s, kepler %s — looser scheduling limits leave less stranded TLP",
				stats.Pct(stats.GeoMean(f)), stats.Pct(stats.GeoMean(k)))
			markSampled(t, p)
			t.Fprint(w)
			return nil
		},
	}
}

func init() {
	register(figMultiKernel())
}

// figMultiKernel evaluates concurrent kernel execution: a latency-bound
// tiny-CTA kernel co-scheduled with a compute-bound one. VT virtualizes
// the mix's CTAs exactly as it does a single kernel's. A mix is a job
// like any other: its workload name is the "+"-joined parts, which the
// sweep builds into disjoint arenas (kernels.BuildMix).
func figMultiKernel() Experiment {
	mixes := []string{"nw+montecarlo", "pathfinder+kmeans", "bfs+streamcluster"}
	return Experiment{
		ID:    "fig-multikernel",
		Title: "Concurrent kernel execution: latency-bound + compute-bound mixes",
		Paper: "extension: CTA virtualization applies unchanged to concurrent-kernel mixes",
		Run: func(p Params, w io.Writer) error {
			res, err := runMany(p, policyJobs(mixes, []config.Policy{config.PolicyBaseline, config.PolicyVT}))
			if err != nil {
				return err
			}
			t := stats.NewTable("co-scheduled mixes (cycles, normalized to baseline mix)",
				"mix", "baseline", "vt", "speedup", "swaps")
			for _, mix := range mixes {
				base, vt := res[key{mix, "baseline"}], res[key{mix, "vt"}]
				t.Rowf(mix, base.Cycles, vt.Cycles,
					float64(base.Cycles)/float64(vt.Cycles), vt.VT.SwapsOut)
			}
			markSampled(t, p)
			t.Fprint(w)
			return nil
		},
	}
}
