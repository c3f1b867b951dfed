package vtsim

// Component and hot-path micro-benchmarks: SIMT stack, cache, event
// queue, whole runs, warp execution and the VT controller. The paper's
// experiments are timed end to end by `vtbench -run <id>` and the
// vtperf benchmark (bench/), not here.

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cta"
	"repro/internal/event"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/simt"
	"repro/internal/sm"
	"repro/internal/testsupport"
	"repro/internal/warp"
)

// --- component micro-benchmarks ---

// BenchmarkSIMTStackDivergence measures divergence/reconvergence handling.
func BenchmarkSIMTStackDivergence(b *testing.B) {
	var s simt.Stack
	for i := 0; i < b.N; i++ {
		s.Reset(32)
		s.Branch(0x0000FFFF, 10, 20)
		for !s.Finished() {
			pc, active, ok := s.Current()
			if !ok {
				break
			}
			if pc >= 19 {
				s.Exit(active)
				continue
			}
			s.Advance()
		}
	}
}

// BenchmarkCacheAccess measures tag-array probe/fill throughput.
func BenchmarkCacheAccess(b *testing.B) {
	ta := mem.NewTagArray(32, 4, 128)
	for i := 0; i < b.N; i++ {
		line := uint32(i%1024) * 128
		if !ta.Probe(line) {
			ta.Fill(line)
		}
	}
}

// eventCounter counts the typed events delivered to it.
type eventCounter struct{ n int }

func (c *eventCounter) HandleEvent(uint8, uint32, uint32) { c.n++ }

// BenchmarkEventQueue measures the discrete-event spine on the typed
// path every engine site takes.
func BenchmarkEventQueue(b *testing.B) {
	q := event.NewQueue()
	var h eventCounter
	for i := 0; i < b.N; i++ {
		q.Post(int64(i+10), &h, 0, uint32(i), 0)
		if i%16 == 15 {
			q.AdvanceTo(int64(i))
		}
	}
	q.AdvanceTo(int64(b.N + 10))
	if h.n != b.N {
		b.Fatalf("ran %d of %d events", h.n, b.N)
	}
}

// BenchmarkSimulationCyclesPerSecond measures end-to-end simulator speed on
// one representative workload; the metric is simulated cycles per wall
// second.
func BenchmarkSimulationCyclesPerSecond(b *testing.B) {
	cfg := config.GTX480()
	// Build outside the timed region: workload generation is setup, not
	// simulation, and gpu.Run never mutates the Launch.
	w, err := kernels.Build("pathfinder", 1)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := gpu.Run(w.Launch, cfg, gpu.Options{InitMemory: w.Init})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkSimulationVT measures end-to-end speed with the VT controller
// active (swap machinery on the hot path).
func BenchmarkSimulationVT(b *testing.B) {
	cfg := config.GTX480().WithPolicy(config.PolicyVT)
	w, err := kernels.Build("pathfinder", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpu.Run(w.Launch, cfg, gpu.Options{InitMemory: w.Init}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- hot-path micro-benchmarks (zero allocations asserted) ---

// BenchmarkWarpExecute measures functional execution through the row
// kernels, in host ns per thread-instruction: dense is a full-mask warp on
// the ALU mix of address and loop arithmetic, sparse the same mix under a
// divergent mask, mem the shared and global lane loops.
func BenchmarkWarpExecute(b *testing.B) {
	alu := []isa.Instr{
		{Op: isa.OpIAdd, Dst: 3, SrcA: 0, SrcB: 1},
		{Op: isa.OpIAdd, Dst: 0, SrcA: 0, Imm: 4, UseImm: true},
		{Op: isa.OpShl, Dst: 4, SrcA: 0, Imm: 2, UseImm: true},
		{Op: isa.OpIMad, Dst: 5, SrcA: 0, SrcB: 1, SrcC: 2},
		{Op: isa.OpSetp, Dst: 6, SrcA: 0, Imm: 4096, UseImm: true, Target: int32(isa.CmpILT)},
		{Op: isa.OpFFma, Dst: 7, SrcA: 8, SrcB: 9, SrcC: 10},
		{Op: isa.OpMov, Dst: 1, SrcA: 5},
		{Op: isa.OpAnd, Dst: 2, SrcA: 3, Imm: 0xFFFF, UseImm: true},
	}
	memOps := []isa.Instr{
		{Op: isa.OpStShared, SrcA: 4, SrcC: 0},
		{Op: isa.OpLdShared, Dst: 3, SrcA: 4},
		{Op: isa.OpStGlobal, SrcA: 4, SrcC: 1, Imm: 0x1000},
		{Op: isa.OpLdGlobal, Dst: 5, SrcA: 4, Imm: 0x1000},
	}
	for _, bc := range []struct {
		name   string
		code   []isa.Instr
		active simt.Mask
	}{
		{"dense", alu, simt.FullMask(32)},
		{"sparse", alu, 0x8421_F00D},
		{"mem", memOps, simt.FullMask(32)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			k := isa.NewKernel("bench", bc.code, 11, 1024)
			l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(1), BlockDim: isa.Dim1(32)}
			w := warp.NewCTA(l, 0, 32).Warps[0]
			for lane := 0; lane < 32; lane++ {
				w.SetReg(0, lane, uint32(lane))
				w.SetReg(4, lane, uint32(lane*4))
				for r := isa.Reg(8); r <= 10; r++ { // normal floats: denormals would time the host FPU's slow path
					w.SetReg(r, lane, math.Float32bits(1.5+float32(lane)))
				}
			}
			gmem := mem.NewBacking()
			buf := make([]uint32, 32)
			step := func(i int) {
				if i&0xFFFF == 0 {
					w.Stack.Reset(32) // keep the (unused) PC from running away
				}
				warp.Execute(w, &k.Code[i%len(k.Code)], bc.active, gmem, buf)
			}
			for i := 0; i < 64; i++ {
				step(i) // touch the global page before counting allocations
			}
			if a := testing.AllocsPerRun(256, func() { step(1) }); a != 0 {
				b.Fatalf("%v allocs per executed instruction, want 0", a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.active.Count()), "ns/thread-instr")
		})
	}
}

// vtRig is one SM under the VT controller running an always-missing load
// loop: every warp spends most cycles memory-blocked, so the controller
// has pending CTAs to run and stalled CTAs to swap.
type vtRig struct {
	ev    *event.Queue
	s     *sm.SM
	ctl   *core.Controller
	grid  *cta.Grid
	cycle int64
}

func newVTRig(b *testing.B, ctas, iters int) *vtRig {
	kb := isa.NewBuilder("memloop_bench")
	kb.S2R(0, isa.SrCTAIdX)
	kb.S2R(1, isa.SrNTidX)
	kb.IMul(2, 0, 1)
	kb.S2R(3, isa.SrTidX)
	kb.IAdd(2, 2, 3)
	kb.ShlImm(4, 2, 2)
	kb.MovImm(9, 0)
	kb.Label("loop")
	kb.LdG(6, 4, 0x100000)
	kb.IAdd(8, 8, 6)
	kb.IAddImm(4, 4, 4096+128)
	kb.AndImm(4, 4, 0x3FFFF)
	kb.IAddImm(9, 9, 1)
	kb.SetpImm(10, isa.CmpILT, 9, int32(iters))
	kb.Bra(10, "loop", "done")
	kb.Label("done")
	kb.Exit()
	k, err := kb.Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := testsupport.Small().WithPolicy(config.PolicyVT)
	cfg.NumSMs = 1
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(ctas), BlockDim: isa.Dim1(64)}
	r := &vtRig{ev: event.NewQueue()}
	r.grid = cta.NewGrid(l, &cfg)
	r.ctl = core.NewController(r.grid, 1, false)
	r.s = sm.New(0, &cfg, r.ev, mem.NewSystem(&cfg, r.ev), mem.NewBacking(), 1, r.ctl)
	return r
}

func (r *vtRig) step() {
	r.s.Cycle()
	r.cycle++
	r.ev.AdvanceTo(r.cycle)
}

func (r *vtRig) done() bool { return r.grid.Remaining() == 0 && r.s.Idle() }

// BenchmarkVTControllerCycle measures the VT controller in host ns per
// SM-cycle. idle and ready-no-port call Controller.Cycle at a frozen cycle
// — no ready CTA at all, and a ready CTA that can neither take slots nor
// trigger a swap because the context-buffer port is busy — which is what
// the controller costs on the cycles where it has nothing to decide. swap
// steps whole SM cycles of the swap-heavy run, controller included.
func BenchmarkVTControllerCycle(b *testing.B) {
	frozen := func(b *testing.B, r *vtRig) {
		for i := 0; i < 4; i++ {
			r.ctl.Cycle(r.s) // settle: activations that need no port happen once
		}
		if a := testing.AllocsPerRun(256, func() { r.ctl.Cycle(r.s) }); a != 0 {
			b.Fatalf("%v allocs per controller cycle, want 0", a)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.ctl.Cycle(r.s)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sm-cycle")
	}
	b.Run("idle", func(b *testing.B) {
		r := newVTRig(b, 4, 1<<20) // the whole grid is active: nothing is ever ready
		for i := 0; i < 200; i++ {
			r.step()
		}
		if r.s.ReadyCTA() != nil || r.grid.Remaining() != 0 {
			b.Fatal("rig is not idle")
		}
		frozen(b, r)
	})
	b.Run("ready-no-port", func(b *testing.B) {
		r := newVTRig(b, 64, 1<<20)
		for r.ctl.SwapsInFlight(0, r.cycle) == 0 || r.s.ReadyCTA() == nil {
			r.step()
			if r.cycle > 100000 {
				b.Fatal("no swap within 100k cycles")
			}
		}
		frozen(b, r)
		if r.ctl.SwapsInFlight(0, r.cycle) == 0 || r.s.ReadyCTA() == nil {
			b.Fatal("rig left the ready-no-port state")
		}
	})
	b.Run("swap", func(b *testing.B) {
		// Every CTA fits in capacity and is admitted in the first cycle, so
		// the steady state allocates nothing: swaps only move warps between
		// slots and the context buffer.
		fresh := func() *vtRig {
			r := newVTRig(b, 12, 1<<12)
			for i := 0; i < 2000; i++ {
				r.step()
			}
			return r
		}
		r := fresh()
		if a := testing.AllocsPerRun(2000, r.step); a != 0 {
			b.Fatalf("%v allocs per SM cycle, want 0", a)
		}
		swaps0 := r.ctl.Stats.SwapsOut
		b.ReportAllocs()
		b.ResetTimer()
		var swaps int64
		for i := 0; i < b.N; i++ {
			if r.done() {
				b.StopTimer()
				swaps += r.ctl.Stats.SwapsOut - swaps0
				r = fresh()
				swaps0 = r.ctl.Stats.SwapsOut
				b.StartTimer()
			}
			r.step()
		}
		swaps += r.ctl.Stats.SwapsOut - swaps0
		if b.N > 10000 && swaps == 0 {
			b.Fatal("the swap-heavy run never swapped")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sm-cycle")
	})
}
