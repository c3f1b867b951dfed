package sm

import (
	"testing"

	"repro/internal/config"
	"repro/internal/cta"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/testsupport"
	"repro/internal/warp"
)

// testController admits CTAs greedily like the baseline dispatcher.
type testController struct {
	grid *cta.Grid
}

func (tc *testController) Attach(s *SM) {}

func (tc *testController) Cycle(s *SM) {
	for {
		c := tc.grid.Next(func(regs, smem, warps, threads int) bool {
			return s.HasCapacityFor(regs, smem) && s.CanActivateFor(warps, threads)
		})
		if c == nil {
			return
		}
		s.AddResident(c)
		s.Activate(c)
	}
}

// rig bundles one SM with its environment for direct pipeline tests.
type rig struct {
	cfg  config.GPUConfig
	ev   *event.Queue
	sm   *SM
	ctl  *testController
	gmem *mem.Backing
}

func newRig(t *testing.T, cfg config.GPUConfig, l *isa.Launch) *rig {
	t.Helper()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	ev := event.NewQueue()
	gmem := mem.NewBacking()
	msys := mem.NewSystem(&cfg, ev)
	ctl := &testController{grid: cta.NewGrid(l, &cfg)}
	s := New(0, &cfg, ev, msys, gmem, 1, ctl)
	return &rig{cfg: cfg, ev: ev, sm: s, ctl: ctl, gmem: gmem}
}

// run cycles the SM until the grid drains or maxCycles elapse.
func (r *rig) run(t *testing.T, maxCycles int64) {
	t.Helper()
	for c := int64(1); ; c++ {
		r.sm.Cycle()
		if r.ctl.grid.Remaining() == 0 && r.sm.Idle() {
			return
		}
		r.ev.AdvanceTo(c)
		if c >= maxCycles {
			t.Fatalf("SM did not drain in %d cycles", maxCycles)
		}
	}
}

func launch(k *isa.Kernel, ctas, block int, params ...uint32) *isa.Launch {
	return &isa.Launch{Kernel: k, GridDim: isa.Dim1(ctas), BlockDim: isa.Dim1(block), Params: params}
}

func aluKernel(n int) *isa.Kernel {
	b := isa.NewBuilder("alu")
	b.MovImm(0, 1)
	for i := 0; i < n; i++ {
		b.IAddImm(0, 0, 1)
	}
	b.Exit()
	return b.MustBuild()
}

func TestALUDependencyStalls(t *testing.T) {
	// A chain of dependent adds: each issue must wait ALULatency.
	cfg := testsupport.Small()
	cfg.NumSMs = 1
	const chain = 10
	r := newRig(t, cfg, launch(aluKernel(chain), 1, 32))
	r.run(t, 10000)
	st := r.sm.Stats
	// chain+2 instructions, each (after the first) stalled ~ALULatency.
	minCycles := int64(chain * cfg.ALULatency)
	if st.Cycles < minCycles {
		t.Fatalf("cycles = %d, want >= %d (dependent chain must stall)", st.Cycles, minCycles)
	}
	if st.SlotStallALU == 0 {
		t.Fatal("expected ALU-dependency stalls")
	}
	if st.Issued != chain+2 {
		t.Fatalf("issued = %d, want %d", st.Issued, chain+2)
	}
}

func TestIndependentWarpsHideALULatency(t *testing.T) {
	// Many warps: the scheduler interleaves them, so total cycles grow
	// far slower than warps x chain latency.
	cfg := testsupport.Small()
	cfg.NumSMs = 1
	one := newRig(t, cfg, launch(aluKernel(10), 1, 32))
	one.run(t, 100000)
	many := newRig(t, cfg, launch(aluKernel(10), 1, 512)) // 16 warps
	many.run(t, 100000)
	if many.sm.Stats.Cycles > one.sm.Stats.Cycles*4 {
		t.Fatalf("16 warps took %d cycles vs 1 warp %d: latency not hidden",
			many.sm.Stats.Cycles, one.sm.Stats.Cycles)
	}
}

func TestBarrierSynchronizesCTA(t *testing.T) {
	b := isa.NewBuilder("bar")
	b.Bar()
	b.Exit()
	cfg := testsupport.Small()
	r := newRig(t, cfg, launch(b.MustBuild(), 1, 128)) // 4 warps
	r.run(t, 10000)
	if r.sm.Stats.BarrierReleases != 1 {
		t.Fatalf("barrier releases = %d, want 1", r.sm.Stats.BarrierReleases)
	}
	if n := r.sm.Stats.CTAsCompleted; n != 1 {
		t.Fatalf("retired = %d, want 1", n)
	}
}

func TestBarrierStallsUnevenWarps(t *testing.T) {
	// Warp 0 does extra work before the barrier; others must wait.
	b := isa.NewBuilder("uneven")
	b.S2R(0, isa.SrWarpID)
	b.SetpImm(1, isa.CmpIEQ, 0, 0)
	b.Bra(1, "slow", "meet")
	b.Jmp("meet")
	b.Label("slow")
	for i := 0; i < 20; i++ {
		b.IAddImm(2, 2, 1) // dependent chain: slow
	}
	b.Label("meet")
	b.Bar()
	b.Exit()
	cfg := testsupport.Small()
	r := newRig(t, cfg, launch(b.MustBuild(), 1, 64))
	r.run(t, 100000)
	if r.sm.Stats.SlotStallBar == 0 {
		t.Fatal("expected barrier stalls from the fast warp")
	}
	if r.sm.Stats.BarrierReleases != 1 {
		t.Fatalf("releases = %d", r.sm.Stats.BarrierReleases)
	}
}

func loadKernel() *isa.Kernel {
	b := isa.NewBuilder("ld")
	b.S2R(0, isa.SrTidX)
	b.ShlImm(1, 0, 2)
	b.LdParam(2, 0)
	b.IAdd(2, 2, 1)
	b.LdG(3, 2, 0)
	b.IAdd(4, 3, 3) // consume the load -> stall until it returns
	b.Exit()
	return b.MustBuild()
}

func TestGlobalLoadStallsAndCompletes(t *testing.T) {
	cfg := testsupport.Small()
	r := newRig(t, cfg, launch(loadKernel(), 1, 32, 0x10000))
	r.run(t, 100000)
	st := r.sm.Stats
	if st.SlotStallMem == 0 {
		t.Fatal("expected memory stalls on the dependent add")
	}
	if st.GlobalTxns != 1 {
		t.Fatalf("transactions = %d, want 1 (fully coalesced)", st.GlobalTxns)
	}
	// The stall must be at least the L2+interconnect round trip.
	min := int64(2*cfg.InterconnectDelay + cfg.L2.Latency)
	if st.Cycles < min {
		t.Fatalf("cycles = %d, want >= %d", st.Cycles, min)
	}
}

func TestUncoalescedLoadGeneratesManyTxns(t *testing.T) {
	b := isa.NewBuilder("gather")
	b.S2R(0, isa.SrTidX)
	b.IMulImm(1, 0, 512) // 512-byte stride: one line per lane
	b.LdParam(2, 0)
	b.IAdd(2, 2, 1)
	b.LdG(3, 2, 0)
	b.IAdd(4, 3, 3)
	b.Exit()
	cfg := testsupport.Small()
	r := newRig(t, cfg, launch(b.MustBuild(), 1, 32, 0x10000))
	r.run(t, 100000)
	if r.sm.Stats.GlobalTxns != 32 {
		t.Fatalf("transactions = %d, want 32", r.sm.Stats.GlobalTxns)
	}
}

func TestSharedMemoryBankConflictSerializes(t *testing.T) {
	// All lanes hit the same bank with different words: 32-way conflict.
	mk := func(stride int32) *isa.Kernel {
		b := isa.NewBuilder("smem")
		b.SharedMem(16 * 1024)
		b.S2R(0, isa.SrTidX)
		b.IMulImm(1, 0, stride)
		b.StS(1, 0, 0)
		b.LdS(2, 1, 0)
		b.IAdd(3, 2, 2)
		b.Exit()
		return b.MustBuild()
	}
	cfg := testsupport.Small()
	fast := newRig(t, cfg, launch(mk(4), 1, 32)) // conflict-free
	fast.run(t, 100000)
	slow := newRig(t, cfg, launch(mk(128), 1, 32)) // 32-way conflicts
	slow.run(t, 100000)
	if slow.sm.Stats.SMemConflictCyc == 0 {
		t.Fatal("expected bank-conflict cycles")
	}
	if slow.sm.Stats.Cycles <= fast.sm.Stats.Cycles {
		t.Fatalf("conflicted access (%d cyc) must be slower than conflict-free (%d cyc)",
			slow.sm.Stats.Cycles, fast.sm.Stats.Cycles)
	}
}

// TestSharedLoadWritebackFitsTheWheel pins the bound New sizes the
// writeback wheel for: a full-warp shared load whose lanes each hit a
// distinct word of one bank, the worst conflict, costs WarpSize-1 conflict
// cycles, so the longest writeback scheduleWB is handed is
// SMemLatency+WarpSize-1, within New's SMemLatency+WarpSize. The wheel
// drops its out-of-window handling on this bound: every latency it is
// handed, from a drain point equal to now, must land inside the live
// window (drained, drained+len(slots)), for every preset and at the
// widest warp Validate admits.
func TestSharedLoadWritebackFitsTheWheel(t *testing.T) {
	b := isa.NewBuilder("smem-one-bank")
	b.SharedMem(16 * 1024)
	b.S2R(0, isa.SrTidX)
	b.IMulImm(1, 0, 128) // 32 words apart: one bank, a distinct word per lane
	b.LdS(2, 1, 0)
	b.IAdd(3, 2, 2)
	b.Exit()
	k := b.MustBuild()
	for _, tc := range []struct {
		name string
		cfg  config.GPUConfig
	}{
		{"GTX480", config.GTX480()},
		{"Kepler", config.KeplerLike()},
		{"Small", testsupport.Small()},
		{"GTX480-warp64", func() config.GPUConfig { c := config.GTX480(); c.WarpSize = 64; return c }()},
	} {
		cfg := tc.cfg
		cfg.NumSMs = 1
		r := newRig(t, cfg, launch(k, 1, cfg.WarpSize))
		r.run(t, 100000)
		if got, want := r.sm.Stats.SMemConflictCyc, int64(cfg.WarpSize-1); got != want {
			t.Fatalf("%s: conflict cycles = %d, want %d (a WarpSize-way conflict)", tc.name, got, want)
		}
		longest := max(cfg.ALULatency, cfg.SFULatency, cfg.SMemLatency+cfg.WarpSize-1)
		if window := r.sm.wb.mask; int64(longest) > window {
			t.Fatalf("%s: longest writeback %d cycles, but the wheel's window spans %d", tc.name, longest, window)
		}
	}
}

func TestCTAResourceAccounting(t *testing.T) {
	b := isa.NewBuilder("res").ReserveRegs(16).SharedMem(1024)
	b.Nop().Exit()
	k := b.MustBuild()
	cfg := testsupport.Small()
	l := launch(k, 100, 64)
	r := newRig(t, cfg, l)
	// After the first cycle the controller saturates the SM.
	r.sm.Cycle()
	fp := cta.ComputeFootprint(l, &cfg)
	if r.sm.ActiveCTAs != cfg.MaxCTAsPerSM {
		t.Fatalf("active CTAs = %d, want %d", r.sm.ActiveCTAs, cfg.MaxCTAsPerSM)
	}
	if r.sm.RegsUsed != fp.Regs*cfg.MaxCTAsPerSM {
		t.Fatalf("regs used = %d", r.sm.RegsUsed)
	}
	if r.sm.SMemUsed != fp.SMem*cfg.MaxCTAsPerSM {
		t.Fatalf("smem used = %d", r.sm.SMemUsed)
	}
	r.run(t, 1000000)
	if r.sm.RegsUsed != 0 || r.sm.SMemUsed != 0 || r.sm.WarpsUsed != 0 || r.sm.ThreadsUsed != 0 {
		t.Fatalf("leaked resources: regs=%d smem=%d warps=%d threads=%d",
			r.sm.RegsUsed, r.sm.SMemUsed, r.sm.WarpsUsed, r.sm.ThreadsUsed)
	}
	if n := r.sm.Stats.CTAsCompleted; n != 100 {
		t.Fatalf("retired = %d, want 100", n)
	}
}

func TestGTOPrefersGreedyWarp(t *testing.T) {
	// GTO should keep issuing from one warp while it is ready; with
	// independent instructions, consecutive issues come from one warp.
	b := isa.NewBuilder("ind")
	for i := 0; i < 8; i++ {
		b.MovImm(isa.Reg(i), uint32(i))
	}
	b.Exit()
	cfg := testsupport.Small()
	cfg.NumSchedulers = 1
	r := newRig(t, cfg, launch(b.MustBuild(), 1, 64)) // 2 warps
	// Cycle a few times and confirm one warp runs ahead.
	for c := int64(1); c <= 4; c++ {
		r.sm.Cycle()
		r.ev.AdvanceTo(c)
	}
	w0 := r.sm.Slots[0]
	w1 := r.sm.Slots[1]
	if w0 == nil || w1 == nil {
		t.Fatal("warps not attached")
	}
	diff := w0.IssuedInstrs - w1.IssuedInstrs
	if diff < 0 {
		diff = -diff
	}
	if diff < 3 {
		t.Fatalf("GTO should run one warp ahead; issued %d vs %d", w0.IssuedInstrs, w1.IssuedInstrs)
	}
}

func TestLRRInterleavesWarps(t *testing.T) {
	b := isa.NewBuilder("ind")
	for i := 0; i < 8; i++ {
		b.MovImm(isa.Reg(i), uint32(i))
	}
	b.Exit()
	cfg := testsupport.Small()
	cfg.NumSchedulers = 1
	cfg.Scheduler = config.SchedLRR
	r := newRig(t, cfg, launch(b.MustBuild(), 1, 64))
	for c := int64(1); c <= 4; c++ {
		r.sm.Cycle()
		r.ev.AdvanceTo(c)
	}
	w0, w1 := r.sm.Slots[0], r.sm.Slots[1]
	diff := w0.IssuedInstrs - w1.IssuedInstrs
	if diff < -1 || diff > 1 {
		t.Fatalf("LRR should interleave; issued %d vs %d", w0.IssuedInstrs, w1.IssuedInstrs)
	}
}

func TestSFUInitiationInterval(t *testing.T) {
	b := isa.NewBuilder("sfu")
	b.MovImm(0, 0x3F800000) // 1.0f
	b.FSin(1, 0)
	b.FSin(2, 0)
	b.FSin(3, 0)
	b.Exit()
	cfg := testsupport.Small()
	cfg.NumSchedulers = 1
	r := newRig(t, cfg, launch(b.MustBuild(), 1, 32))
	r.run(t, 10000)
	// 3 SFU ops with init interval 4 need >= 8 extra cycles beyond issue.
	if r.sm.Stats.SlotStallStr == 0 {
		t.Fatal("expected structural stalls from SFU initiation interval")
	}
}

func TestDeactivateReactivate(t *testing.T) {
	// Directly exercise the VT primitives the controller uses.
	cfg := testsupport.Small()
	k := loadKernel()
	l := launch(k, 4, 32, 0x10000)
	r := newRig(t, cfg, l)
	r.sm.Cycle() // admit CTAs
	c := r.sm.Resident[0]
	if c.State != warp.CTAActive {
		t.Fatalf("state = %v", c.State)
	}
	before := r.sm.WarpsUsed
	r.sm.Deactivate(c)
	if c.State != warp.CTAInactiveReady {
		t.Fatalf("state after deactivate = %v (no loads outstanding)", c.State)
	}
	if r.sm.WarpsUsed != before-len(c.Warps) {
		t.Fatal("warp slots not released")
	}
	for _, w := range r.sm.Slots {
		if w != nil && w.CTA == c {
			t.Fatal("slot still bound to deactivated CTA")
		}
	}
	r.sm.Activate(c)
	if c.State != warp.CTAActive || r.sm.WarpsUsed != before {
		t.Fatal("reactivation failed")
	}
	if c.Activations != 2 {
		t.Fatalf("activations = %d, want 2", c.Activations)
	}
}

func TestQuiescentDetection(t *testing.T) {
	cfg := testsupport.Small()
	r := newRig(t, cfg, launch(loadKernel(), 1, 32, 0x10000))
	if !r.sm.Quiescent() {
		t.Fatal("empty SM must be quiescent")
	}
	// Admit and run until the load is issued and the warp stalls.
	for c := int64(1); c < 50; c++ {
		r.sm.Cycle()
		r.ev.AdvanceTo(c)
	}
	// At this point the only warp is blocked on memory and the LSU is
	// drained: the SM must be quiescent so the engine can skip ahead.
	if !r.sm.Quiescent() {
		t.Fatal("memory-stalled SM must be quiescent")
	}
}

func TestTwoLevelScheduler(t *testing.T) {
	cfg := testsupport.Small()
	cfg.Scheduler = config.SchedTwoLevel
	cfg.NumSchedulers = 1
	r := newRig(t, cfg, launch(aluKernel(12), 4, 128)) // 16 warps over 4 CTAs, two fetch groups
	r.run(t, 1000000)
	if n := r.sm.Stats.CTAsCompleted; n != 4 {
		t.Fatalf("retired %d CTAs", n)
	}
	if r.sm.Stats.Issued == 0 {
		t.Fatal("nothing issued under two-level scheduling")
	}
}

func TestTwoLevelSwapsStalledWarpsOut(t *testing.T) {
	// Memory-stalled warps must leave the fetch group so others issue:
	// 24 warps, three times the group size.
	cfg := testsupport.Small()
	cfg.Scheduler = config.SchedTwoLevel
	cfg.NumSchedulers = 1
	r := newRig(t, cfg, launch(loadKernel(), 8, 96, 0x10000))
	r.run(t, 1000000)
	if n := r.sm.Stats.CTAsCompleted; n != 8 {
		t.Fatalf("retired %d CTAs", n)
	}
}

func TestRegFileBankConflicts(t *testing.T) {
	// An instruction reading two registers in the same bank stalls the
	// scheduler; with 2 banks, regs 0 and 2 collide.
	// Many warps keep the scheduler saturated, so the extra operand-read
	// cycle per conflicting instruction becomes the throughput limit.
	mk := func(banks int) *rig {
		b := isa.NewBuilder("rf")
		b.MovImm(0, 1)
		b.MovImm(2, 2)
		for i := 0; i < 20; i++ {
			d := isa.Reg(4 + i%8)
			b.Emit(isa.Instr{Op: isa.OpIAdd, Dst: d, SrcA: 0, SrcB: 2})
		}
		b.Exit()
		cfg := testsupport.Small()
		cfg.RegFileBanks = banks
		cfg.NumSchedulers = 1
		r := newRig(t, cfg, launch(b.MustBuild(), 2, 256)) // 16 warps
		r.run(t, 100000)
		return r
	}
	off := mk(0)
	on := mk(2)
	if on.sm.Stats.RFBankConflictCyc == 0 {
		t.Fatal("expected register bank conflicts with 2 banks")
	}
	if off.sm.Stats.RFBankConflictCyc != 0 {
		t.Fatal("disabled model must not count conflicts")
	}
	if on.sm.Stats.Cycles <= off.sm.Stats.Cycles {
		t.Fatalf("conflicts must cost cycles: %d vs %d",
			on.sm.Stats.Cycles, off.sm.Stats.Cycles)
	}
}

func TestRegFileBanksNoFalseConflicts(t *testing.T) {
	// Registers 0 and 1 in different banks: no conflict with 16 banks.
	b := isa.NewBuilder("rfok")
	b.MovImm(0, 1)
	b.MovImm(1, 2)
	b.IAdd(2, 0, 1)
	b.Exit()
	cfg := testsupport.Small()
	cfg.RegFileBanks = 16
	r := newRig(t, cfg, launch(b.MustBuild(), 1, 32))
	r.run(t, 100000)
	if r.sm.Stats.RFBankConflictCyc != 0 {
		t.Fatalf("false conflicts: %d", r.sm.Stats.RFBankConflictCyc)
	}
}

// TestSampledSpanChargesStructuralStall: a sampled span's no-issue slots
// are classified from the SM's state where the span ends. A shared store
// schedules no writeback, so its bank-conflict serialization can outlast
// the drain that precedes a span; a ready warp whose next instruction
// needs the shared-memory port then makes every slot a structural stall,
// on the fast path and on the reference scan alike.
func TestSampledSpanChargesStructuralStall(t *testing.T) {
	b := isa.NewBuilder("sts")
	b.SharedMem(1024)
	b.StS(0, 0, 0)
	b.Exit()
	k := b.MustBuild()
	for _, ref := range []bool{false, true} {
		cfg := testsupport.Small()
		cfg.NumSMs = 1
		cfg.NumSchedulers = 1
		r := newRig(t, cfg, launch(k, 1, 32))
		r.sm.DisableFastPath = ref
		r.sm.Ctl.Cycle(r.sm) // admit and bind the CTA; its warp is ready
		r.sm.smemFreeAt = r.ev.Now() + 10
		r.sm.AccountSampled(4, 0)
		if st := r.sm.Stats; st.SlotStallStr != 4 || st.SlotIdle != 0 {
			t.Fatalf("reference=%v: 4 slots charged %d structural, %d idle; want 4, 0",
				ref, st.SlotStallStr, st.SlotIdle)
		}
	}
}
