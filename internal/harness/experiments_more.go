package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
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
// the mix's CTAs exactly as it does a single kernel's.
func figMultiKernel() Experiment {
	pairs := [][2]string{
		{"nw", "montecarlo"},
		{"pathfinder", "kmeans"},
		{"bfs", "streamcluster"},
	}
	return Experiment{
		ID:    "fig-multikernel",
		Title: "Concurrent kernel execution: latency-bound + compute-bound mixes",
		Paper: "extension: CTA virtualization applies unchanged to concurrent-kernel mixes",
		Run: func(p Params, w io.Writer) error {
			// The six mixes run like a sweep's jobs — concurrently, bounded by
			// the worker count, each under the sweep context, the per-run
			// deadline and the invariant checker — but stay out of the memo
			// cache, the store and the journal: a mix is two launches, which
			// a Job cannot name.
			run := func(pair [2]string, pol config.Policy) (*gpu.Result, error) {
				// Disjoint memory arenas keep the kernels' buffers
				// from colliding.
				wa, err := kernels.BuildAt(pair[0], p.Scale, kernels.DefaultArena)
				if err != nil {
					return nil, err
				}
				wb, err := kernels.BuildAt(pair[1], p.Scale,
					kernels.DefaultArena+kernels.ArenaStride)
				if err != nil {
					return nil, err
				}
				dil := func(l *isa.Launch) {
					if p.Dilute > 1 {
						g := l.GridDim.Size() / p.Dilute
						if g < 8 {
							g = 8
						}
						l.GridDim = isa.Dim1(g)
					}
				}
				dil(wa.Launch)
				dil(wb.Launch)
				cfg := p.Config
				cfg.Policy = pol
				ctx := p.ctx()
				if p.RunTimeout > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, p.RunTimeout)
					defer cancel()
				}
				return gpu.RunMulti([]*isa.Launch{wa.Launch, wb.Launch}, cfg, gpu.Options{
					InitMemory: func(bk *mem.Backing) {
						if wa.Init != nil {
							wa.Init(bk)
						}
						if wb.Init != nil {
							wb.Init(bk)
						}
					},
					Parallelism:     p.runParallelism(),
					CheckInvariants: p.CheckInvariants,
					Ctx:             ctx,
				})
			}
			policies := []config.Policy{config.PolicyBaseline, config.PolicyVT}
			results := make([]*gpu.Result, len(pairs)*len(policies))
			errs := make([]error, len(results))
			sem := make(chan struct{}, p.workers())
			var wg sync.WaitGroup
			for i := range results {
				pair, pol := pairs[i/len(policies)], policies[i%len(policies)]
				select {
				case <-p.ctx().Done():
					errs[i] = fmt.Errorf("%s+%s/%v: %w", pair[0], pair[1], pol, p.ctx().Err())
					continue
				case sem <- struct{}{}:
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer func() { <-sem }()
					if results[i], errs[i] = run(pair, pol); errs[i] != nil {
						errs[i] = fmt.Errorf("%s+%s/%v: %w", pair[0], pair[1], pol, errs[i])
					}
				}(i)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return err
			}
			t := stats.NewTable("co-scheduled mixes (cycles, normalized to baseline mix)",
				"mix", "baseline", "vt", "speedup", "swaps")
			for i, pair := range pairs {
				base, vt := results[2*i], results[2*i+1]
				t.Rowf(pair[0]+"+"+pair[1], base.Cycles, vt.Cycles,
					float64(base.Cycles)/float64(vt.Cycles), vt.VT.SwapsOut)
			}
			t.Fprint(w)
			return nil
		},
	}
}
