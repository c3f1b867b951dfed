package kernels_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/cta"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/testsupport"
)

func TestSuiteShape(t *testing.T) {
	suite := kernels.Suite(1)
	if len(suite) != 22 {
		t.Fatalf("suite size = %d, want 22", len(suite))
	}
	names := map[string]bool{}
	for _, w := range suite {
		if names[w.Name] {
			t.Fatalf("duplicate workload %q", w.Name)
		}
		names[w.Name] = true
		if err := w.Launch.Validate(); err != nil {
			t.Errorf("%s: invalid launch: %v", w.Name, err)
		}
		if w.Description == "" {
			t.Errorf("%s: missing description", w.Name)
		}
	}
	for _, want := range []string{"vecadd", "bfs", "backprop", "hotspot", "kmeans",
		"pathfinder", "srad", "lud", "nw", "spmv", "stencil3d", "montecarlo",
		"reduce", "transpose", "gaussian", "cfd", "streamcluster", "mummer",
		"dwt2d", "nn", "particlefilter", "heartwall"} {
		if !names[want] {
			t.Errorf("suite missing %q", want)
		}
	}
}

func TestBuildByName(t *testing.T) {
	w, err := kernels.Build("bfs", 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "bfs" {
		t.Fatalf("name = %q", w.Name)
	}
	if _, err := kernels.Build("nosuch", 1); err == nil {
		t.Fatal("unknown workload must error")
	}
	if n := len(kernels.Names(kernels.Headline)); n != 22 {
		t.Fatalf("Names(Headline) = %d entries", n)
	}
}

func TestScaleGrowsGrid(t *testing.T) {
	w1, _ := kernels.Build("vecadd", 1)
	w2, _ := kernels.Build("vecadd", 2)
	if w2.Launch.GridDim.Size() != 2*w1.Launch.GridDim.Size() {
		t.Fatalf("scale 2 grid = %d, want %d", w2.Launch.GridDim.Size(), 2*w1.Launch.GridDim.Size())
	}
}

// TestAllWorkloadsRunToCompletion executes a shrunken instance of every
// workload under every policy and requires each CTA to retire. This is the
// broad integration net for the whole simulator.
func TestAllWorkloadsRunToCompletion(t *testing.T) {
	cfg := testsupport.Small()
	for _, w := range kernels.Suite(1) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			// Shrink the grid for test speed; Init was sized for the
			// full grid so all inputs stay valid.
			full := w.Launch.GridDim.Size()
			small := 24
			if small > full {
				small = full
			}
			for _, p := range []config.Policy{config.PolicyBaseline, config.PolicyVT} {
				w.Launch.GridDim.X = small
				w.Launch.GridDim.Y, w.Launch.GridDim.Z = 1, 1
				res, err := gpu.Run(w.Launch, cfg.WithPolicy(p), gpu.Options{InitMemory: w.Init})
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name, p, err)
				}
				if res.SM.CTAsCompleted != int64(small) {
					t.Fatalf("%s/%s: completed %d of %d CTAs", w.Name, p,
						res.SM.CTAsCompleted, small)
				}
				if res.SM.Issued == 0 {
					t.Fatalf("%s/%s: no instructions issued", w.Name, p)
				}
			}
		})
	}
}

// TestLimiterDistribution checks the motivation claim: the majority of the
// suite is scheduling-limited on the Fermi configuration.
func TestLimiterDistribution(t *testing.T) {
	cfg := config.GTX480()
	sched, capacity := 0, 0
	for _, w := range kernels.Suite(1) {
		o := cta.ComputeOccupancy(w.Launch, &cfg)
		if o.Limiter == cta.LimitGrid {
			t.Errorf("%s: grid too small to exercise the SM", w.Name)
			continue
		}
		if o.SchedulingLimited() {
			sched++
		} else {
			capacity++
		}
		t.Logf("%-12s limiter=%-10v ctas=%d capacity=%d", w.Name, o.Limiter, o.CTAs, o.CapacityCTAs)
	}
	if sched <= capacity {
		t.Fatalf("suite has %d scheduling-limited vs %d capacity-limited; paper requires a majority scheduling-limited", sched, capacity)
	}
}

func TestBFSFunctionalOutput(t *testing.T) {
	// BFS must mark at least one unvisited neighbour of the frontier.
	w, _ := kernels.Build("bfs", 1)
	w.Launch.GridDim.X = 8
	var out *mem.Backing
	_, err := gpu.Run(w.Launch, testsupport.Small(), gpu.Options{
		InitMemory:  w.Init,
		KeepBacking: func(bk *mem.Backing) { out = bk },
	})
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for i := 0; i < 8*64; i++ {
		v := out.LoadWord(0x0100_0000 + uint32(4*i))
		if v == 2 {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("BFS marked no level-2 nodes")
	}
}

func TestExtras(t *testing.T) {
	extras := kernels.Names(kernels.Extension)
	if want := []string{"gemm", "histogram", "bitonic", "scatteradd"}; !slices.Equal(extras, want) {
		t.Fatalf("extensions = %v, want %v", extras, want)
	}
	cfg := testsupport.Small()
	for _, n := range extras {
		// Extensions are reachable through Build but not part of the suite.
		w, err := kernels.Build(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.Name, func(t *testing.T) {
			w.Launch.GridDim.X = 16
			if err := w.Launch.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, p := range []config.Policy{config.PolicyBaseline, config.PolicyVT} {
				res, err := gpu.Run(w.Launch, cfg.WithPolicy(p), gpu.Options{InitMemory: w.Init})
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name, p, err)
				}
				if res.SM.CTAsCompleted != 16 {
					t.Fatalf("%s/%s: completed %d", w.Name, p, res.SM.CTAsCompleted)
				}
			}
		})
		if slices.Contains(kernels.Names(kernels.Headline), n) {
			t.Fatalf("extension %q leaked into the headline suite", n)
		}
	}
}

func TestBuildAtArenaDisjoint(t *testing.T) {
	a, err := kernels.BuildAt("kmeans", 1, kernels.DefaultArena)
	if err != nil {
		t.Fatal(err)
	}
	b, err := kernels.BuildAt("kmeans", 1, kernels.DefaultArena+kernels.ArenaStride)
	if err != nil {
		t.Fatal(err)
	}
	for i, pa := range a.Launch.Params {
		if pb := b.Launch.Params[i]; pb != pa+kernels.ArenaStride {
			t.Fatalf("param %d: %x vs %x, want stride offset", i, pa, pb)
		}
	}
	// Init must write into each workload's own arena.
	bk := mem.NewBacking()
	before := bk.TouchedWords()
	a.Init(bk)
	mid := bk.TouchedWords()
	b.Init(bk)
	after := bk.TouchedWords()
	if mid == before || after == mid {
		t.Fatal("Init wrote nothing")
	}
	if after-mid != mid-before {
		t.Fatalf("second arena wrote %d words vs %d: overlap suspected",
			after-mid, mid-before)
	}
}

// TestBuildMix: a "+"-joined name builds its parts in name order, part k
// in arena k, with one init that covers them all; a plain name is the
// default-arena build; an unknown part is named in the error.
func TestBuildMix(t *testing.T) {
	launches, init, err := kernels.BuildMix("kmeans+bfs+kmeans", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(launches) != 3 || launches[0].Kernel.Name != "kmeans" || launches[1].Kernel.Name != "bfs" {
		t.Fatalf("launches out of name order: %v", launches)
	}
	for i, p0 := range launches[0].Params {
		if p2 := launches[2].Params[i]; p2 != p0+2*kernels.ArenaStride {
			t.Fatalf("param %d: part 0 at %x, part 2 at %x, want two arenas apart", i, p0, p2)
		}
	}
	touched := func(init func(*mem.Backing)) int {
		bk := mem.NewBacking()
		init(bk)
		return bk.TouchedWords()
	}
	km, _ := kernels.Build("kmeans", 1)
	bfs, _ := kernels.Build("bfs", 1)
	if got, want := touched(init), 2*touched(km.Init)+touched(bfs.Init); got != want {
		t.Fatalf("combined init touched %d words, want %d (every part, no overlap)", got, want)
	}
	// Each kmeans part's centroids land in its own arena, where its launch
	// reads them, even though the init runs after every build returned.
	mix, alone := mem.NewBacking(), mem.NewBacking()
	init(mix)
	km.Init(alone)
	for _, k := range []int{0, 2} {
		c := launches[k].Params[1]
		if got, want := mix.LoadWord(c), alone.LoadWord(km.Launch.Params[1]); got != want {
			t.Errorf("part %d: centroid at %#x reads %#x, want %#x", k, c, got, want)
		}
	}

	solo, _, err := kernels.BuildMix("kmeans", 1)
	if err != nil || len(solo) != 1 || solo[0].Params[0] != km.Launch.Params[0] {
		t.Fatalf("plain name: err %v, launches %v, want the default-arena build", err, solo)
	}
	if _, _, err := kernels.BuildMix("nw+nope", 1); err == nil || !strings.Contains(err.Error(), `unknown workload "nope"`) {
		t.Fatalf("nw+nope: err = %v, want an unknown-workload error naming the part", err)
	}
}

func TestConcurrentArenasNoCollision(t *testing.T) {
	// bfs co-scheduled with streamcluster previously livelocked because
	// their Init regions collided; with disjoint arenas the mix must
	// finish in the same order of magnitude as the solo runs.
	cfg := testsupport.Small()
	a, _ := kernels.BuildAt("bfs", 1, kernels.DefaultArena)
	b, _ := kernels.BuildAt("streamcluster", 1, kernels.DefaultArena+kernels.ArenaStride)
	a.Launch.GridDim.X = 16
	b.Launch.GridDim.X = 12
	res, err := gpu.RunMulti([]*isa.Launch{a.Launch, b.Launch}, cfg, gpu.Options{
		InitMemory: func(bk *mem.Backing) { a.Init(bk); b.Init(bk) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SM.CTAsCompleted != 28 {
		t.Fatalf("completed %d CTAs", res.SM.CTAsCompleted)
	}
	if res.Cycles > 200_000 {
		t.Fatalf("mix took %d cycles: arena collision suspected", res.Cycles)
	}
}

func TestScatterAddConservation(t *testing.T) {
	// The total of all counters must equal threads x rounds under every
	// policy — atomicity and policy-independence in one check.
	w, err := kernels.Build("scatteradd", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch.GridDim.X = 12
	threads := 12 * 64
	const rounds = 12
	for _, p := range []config.Policy{config.PolicyBaseline, config.PolicyVT} {
		w2, _ := kernels.Build("scatteradd", 1)
		w2.Launch.GridDim.X = 12
		var out *mem.Backing
		res, err := gpu.Run(w2.Launch, testsupport.Small().WithPolicy(p), gpu.Options{
			InitMemory:  w2.Init,
			KeepBacking: func(bk *mem.Backing) { out = bk },
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.SM.CTAsCompleted != 12 {
			t.Fatalf("%s: completed %d", p, res.SM.CTAsCompleted)
		}
		total := uint32(0)
		for i := 0; i < 16384; i++ {
			total += out.LoadWord(0x0100_0000 + uint32(4*i))
		}
		if total != uint32(threads*rounds) {
			t.Fatalf("%s: counter total = %d, want %d", p, total, threads*rounds)
		}
	}
}

// hostReferences compute, on the host, the output words a workload
// writes, from its initial image (Init applied; untouched words read the
// backing's synthesized values). They take the launch's in and out
// buffers, its grid in CTAs and its block in threads.
var hostReferences = map[string]func(in func(i uint32) uint32, ctas, block uint32) map[uint32]uint32{
	// reduce: CTA c sums in[g] + in[g + gridThreads] over its threads'
	// global ids g through the barrier ladder; thread 0 writes out[c].
	"reduce": func(in func(uint32) uint32, ctas, block uint32) map[uint32]uint32 {
		out := map[uint32]uint32{}
		for c := uint32(0); c < ctas; c++ {
			var sum uint32
			for tid := uint32(0); tid < block; tid++ {
				g := c*block + tid
				sum += in(g) + in(g+ctas*block)
			}
			out[c] = sum
		}
		return out
	},
	// transpose: each CTA's 256 elements are a 16x16 tile, written back
	// transposed through shared memory.
	"transpose": func(in func(uint32) uint32, ctas, block uint32) map[uint32]uint32 {
		out := map[uint32]uint32{}
		for c := uint32(0); c < ctas; c++ {
			for tid := uint32(0); tid < block; tid++ {
				out[c*block+tid] = in(c*block + (tid%16)*16 + tid/16)
			}
		}
		return out
	},
}

// TestHostReferences runs each workload with a host reference on the
// oracle's 24-CTA grid at testsupport.Small() under all four policies,
// and compares every output word of the final backing with the host's.
// Unlike the oracle's cross-policy row, a defect every policy shares
// fails here.
func TestHostReferences(t *testing.T) {
	const ctas = 24
	for name, ref := range hostReferences {
		for _, p := range []config.Policy{config.PolicyBaseline, config.PolicyVT, config.PolicyIdeal, config.PolicyFullSwap} {
			t.Run(name+"/"+p.String(), func(t *testing.T) {
				w, err := kernels.Build(name, 1)
				if err != nil {
					t.Fatal(err)
				}
				w.Launch.GridDim = isa.Dim1(ctas)
				image := mem.NewBacking()
				if w.Init != nil {
					w.Init(image)
				}
				inBase, outBase := w.Launch.Params[0], w.Launch.Params[1]
				want := ref(func(i uint32) uint32 { return image.LoadWord(inBase + 4*i) },
					ctas, uint32(w.Launch.BlockDim.X))
				var out *mem.Backing
				res, err := gpu.Run(w.Launch, testsupport.Small().WithPolicy(p), gpu.Options{
					InitMemory:  w.Init,
					KeepBacking: func(bk *mem.Backing) { out = bk },
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.SM.CTAsCompleted != ctas {
					t.Fatalf("completed %d CTAs, want %d", res.SM.CTAsCompleted, ctas)
				}
				bad := 0
				for i, v := range want {
					if got := out.LoadWord(outBase + 4*i); got != v {
						if bad++; bad <= 3 {
							t.Errorf("out[%d] = %#x, the host computes %#x", i, got, v)
						}
					}
				}
				if bad > 0 {
					t.Fatalf("%d of %d output words differ from the host reference", bad, len(want))
				}
			})
		}
	}
}
