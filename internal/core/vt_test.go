package core_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cta"
	"repro/internal/event"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sm"
	"repro/internal/testsupport"
	"repro/internal/warp"
)

// memBoundKernel loops dependent global loads so that warps spend most of
// their time memory-blocked: the situation VT exploits.
func memBoundKernel(iters int) *isa.Kernel {
	b := isa.NewBuilder("membound")
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(1, isa.SrNTidX)
	b.IMul(2, 0, 1)
	b.S2R(3, isa.SrTidX)
	b.IAdd(2, 2, 3)
	b.ShlImm(4, 2, 2)
	b.LdParam(5, 0)
	b.IAdd(5, 5, 4)
	b.MovImm(8, 0)
	b.MovImm(9, 0)
	b.Label("loop")
	b.LdG(6, 5, 0)
	b.IAdd(8, 8, 6)
	b.IAddImm(5, 5, 4096+128)
	b.AndImm(5, 5, 0x3FFFF)
	b.LdParam(7, 0)
	b.IAdd(5, 5, 7)
	b.IAddImm(9, 9, 1)
	b.SetpImm(10, isa.CmpILT, 9, int32(iters))
	b.Bra(10, "loop", "done")
	b.Label("done")
	b.Exit()
	return b.MustBuild()
}

func memBoundLaunch(iters, ctas, block int) *isa.Launch {
	return &isa.Launch{
		Kernel:   memBoundKernel(iters),
		GridDim:  isa.Dim1(ctas),
		BlockDim: isa.Dim1(block),
		Params:   []uint32{0x100000},
	}
}

func vtConfig() config.GPUConfig {
	c := testsupport.Small()
	return c.WithPolicy(config.PolicyVT)
}

func TestVTKeepsActiveWithinSchedulingLimit(t *testing.T) {
	cfg := vtConfig()
	// Track the invariant every state transition.
	var maxActive int
	res, err := gpu.Run(memBoundLaunch(10, 64, 64), cfg, gpu.Options{
		Trace: func(e core.TraceEvent) {
			if e.To == warp.CTAActive && e.CTA > maxActive {
				maxActive = e.CTA
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgActiveCTAsPerSM() > float64(cfg.MaxCTAsPerSM)+1e-9 {
		t.Fatalf("avg active CTAs %.2f exceeds scheduling limit %d",
			res.AvgActiveCTAsPerSM(), cfg.MaxCTAsPerSM)
	}
	if res.SM.CTAsCompleted != 64 {
		t.Fatalf("completed = %d, want 64", res.SM.CTAsCompleted)
	}
}

func TestVTResidencyExceedsSchedulingLimit(t *testing.T) {
	cfg := vtConfig()
	res, err := gpu.Run(memBoundLaunch(10, 128, 64), cfg, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 64-thread CTAs, tiny footprint: capacity admits far more than the
	// 8-CTA scheduling limit. Residency must reflect that.
	if res.VT.MaxResident <= cfg.MaxCTAsPerSM {
		t.Fatalf("max resident = %d, want > scheduling limit %d",
			res.VT.MaxResident, cfg.MaxCTAsPerSM)
	}
	if res.AvgResidentCTAsPerSM() <= res.AvgActiveCTAsPerSM() {
		t.Fatal("resident CTAs must exceed active CTAs under VT on this workload")
	}
}

func TestVTSwapsOccurAndBalance(t *testing.T) {
	cfg := vtConfig()
	res, err := gpu.Run(memBoundLaunch(12, 128, 64), cfg, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VT.SwapsOut == 0 {
		t.Fatal("memory-bound scheduling-limited workload must trigger swaps")
	}
	if res.VT.SwapsIn > res.VT.SwapsOut {
		t.Fatalf("swaps in (%d) cannot exceed swaps out (%d)", res.VT.SwapsIn, res.VT.SwapsOut)
	}
	if res.VT.ContextPeak <= 0 || res.VT.ContextPeak > cfg.VT.ContextBufferBytes*2 {
		t.Fatalf("context peak = %d bytes, implausible", res.VT.ContextPeak)
	}
}

func TestVTSpeedsUpSchedulingLimitedWorkload(t *testing.T) {
	l := func() *isa.Launch { return memBoundLaunch(16, 128, 64) }
	base, err := gpu.Run(l(), testsupport.Small(), gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vt, err := gpu.Run(l(), vtConfig(), gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := gpu.Run(l(), testsupport.Small().WithPolicy(config.PolicyIdeal), gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vt.Cycles >= base.Cycles {
		t.Fatalf("VT (%d cycles) must beat baseline (%d) on this workload",
			vt.Cycles, base.Cycles)
	}
	if ideal.Cycles > vt.Cycles {
		t.Fatalf("ideal (%d cycles) must be at least as fast as VT (%d)",
			ideal.Cycles, vt.Cycles)
	}
}

func TestVTNoGainWhenCapacityLimited(t *testing.T) {
	// A register-hungry kernel: capacity binds before scheduling, so VT
	// has no resident CTAs beyond the baseline and behaves identically.
	b := isa.NewBuilder("fat").ReserveRegs(60)
	b.S2R(0, isa.SrTidX)
	b.ShlImm(1, 0, 2)
	b.LdParam(2, 0)
	b.IAdd(2, 2, 1)
	b.LdG(3, 2, 0)
	b.IAdd(4, 3, 3)
	b.Exit()
	k := b.MustBuild()
	mk := func() *isa.Launch {
		return &isa.Launch{Kernel: k, GridDim: isa.Dim1(16), BlockDim: isa.Dim1(256),
			Params: []uint32{0x10000}}
	}
	base, err := gpu.Run(mk(), testsupport.Small(), gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vt, err := gpu.Run(mk(), vtConfig(), gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vt.VT.SwapsOut != 0 {
		t.Fatalf("capacity-limited workload swapped %d times", vt.VT.SwapsOut)
	}
	ratio := float64(vt.Cycles) / float64(base.Cycles)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("VT/baseline cycle ratio = %.3f, want ~1.0 when capacity limited", ratio)
	}
}

func TestFullSwapPaysFootprintLatency(t *testing.T) {
	l := func() *isa.Launch { return memBoundLaunch(12, 96, 64) }
	vt, err := gpu.Run(l(), vtConfig(), gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := gpu.Run(l(), testsupport.Small().WithPolicy(config.PolicyFullSwap), gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Cycles <= vt.Cycles {
		t.Fatalf("fullswap (%d cycles) must be slower than VT (%d)", fs.Cycles, vt.Cycles)
	}
}

func TestVTVirtualCapRestricts(t *testing.T) {
	cfg := vtConfig()
	cfg.VT.MaxVirtualCTAsPerSM = cfg.MaxCTAsPerSM // no headroom
	res, err := gpu.Run(memBoundLaunch(10, 128, 64), cfg, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VT.MaxResident > cfg.MaxCTAsPerSM {
		t.Fatalf("resident %d exceeded virtual cap %d", res.VT.MaxResident, cfg.MaxCTAsPerSM)
	}
	if res.VT.SwapsOut != 0 {
		t.Fatalf("no inactive CTAs can exist at cap; swaps = %d", res.VT.SwapsOut)
	}
}

func TestVTContextBufferDenies(t *testing.T) {
	cfg := vtConfig()
	cfg.VT.ContextBufferBytes = 1 // nothing beyond the active set fits
	res, err := gpu.Run(memBoundLaunch(10, 128, 64), cfg, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VT.DeniedByBuffer == 0 {
		t.Fatal("tiny context buffer must deny admissions")
	}
	if res.VT.MaxResident > cfg.MaxCTAsPerSM {
		t.Fatalf("resident %d despite 1-byte context buffer", res.VT.MaxResident)
	}
}

func TestVTTraceTransitionsConsistent(t *testing.T) {
	cfg := vtConfig()
	var events []core.TraceEvent
	_, err := gpu.Run(memBoundLaunch(10, 64, 64), cfg, gpu.Options{
		Trace: func(e core.TraceEvent) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	last := int64(0)
	for _, e := range events {
		if e.Cycle < last {
			t.Fatal("trace not in cycle order")
		}
		last = e.Cycle
	}
	// Every swap-out must be of an active CTA.
	for _, e := range events {
		if (e.To == warp.CTAInactiveReady || e.To == warp.CTAInactiveWaiting) &&
			e.From != warp.CTAActive {
			t.Fatalf("swap-out from %v", e.From)
		}
	}
}

// Direct-rig test: the stall detector must not fire while any warp is only
// ALU-blocked.
func TestStallDetectorIgnoresALUBlocks(t *testing.T) {
	cfg := vtConfig()
	cfg.NumSMs = 1
	b := isa.NewBuilder("aluchain")
	b.MovImm(0, 1)
	for i := 0; i < 30; i++ {
		b.IAddImm(0, 0, 1)
	}
	b.Exit()
	k := b.MustBuild()
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(64), BlockDim: isa.Dim1(64)}

	ev := event.NewQueue()
	gmem := mem.NewBacking()
	msys := mem.NewSystem(&cfg, ev)
	grid := cta.NewGrid(l, &cfg)
	ctl := core.NewController(grid, 1, false)
	s := sm.New(0, &cfg, ev, msys, gmem, 1, ctl)

	for c := int64(1); c < 20000 && !(grid.Remaining() == 0 && s.Idle()); c++ {
		s.Cycle()
		ev.AdvanceTo(c)
	}
	if ctl.Stats.SwapsOut != 0 {
		t.Fatalf("ALU-only workload must never swap; swaps = %d", ctl.Stats.SwapsOut)
	}
}

func TestVTFunctionalCorrectnessThroughSwaps(t *testing.T) {
	// The kernel accumulates loads and stores the result; values must be
	// identical under baseline and VT despite thousands of swaps.
	mk := func() *isa.Launch {
		b := isa.NewBuilder("check")
		b.S2R(0, isa.SrCTAIdX)
		b.S2R(1, isa.SrNTidX)
		b.IMul(2, 0, 1)
		b.S2R(3, isa.SrTidX)
		b.IAdd(2, 2, 3)
		b.ShlImm(4, 2, 2)
		b.LdParam(5, 0)
		b.IAdd(5, 5, 4)
		b.MovImm(8, 0)
		b.MovImm(9, 0)
		b.Label("loop")
		b.LdG(6, 5, 0)
		b.IAdd(8, 8, 6)
		b.IAddImm(5, 5, 4*64*101)
		b.IAddImm(9, 9, 1)
		b.SetpImm(10, isa.CmpILT, 9, 8)
		b.Bra(10, "loop", "done")
		b.Label("done")
		b.LdParam(11, 1)
		b.IAdd(11, 11, 4)
		b.StG(11, 0, 8)
		b.Exit()
		return &isa.Launch{Kernel: b.MustBuild(), GridDim: isa.Dim1(64),
			BlockDim: isa.Dim1(64), Params: []uint32{0x100000, 0x2000000}}
	}
	read := func(bk *mem.Backing, n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = bk.LoadWord(0x2000000 + uint32(4*i))
		}
		return out
	}
	var baseOut, vtOut []uint32
	if _, err := gpu.Run(mk(), testsupport.Small(), gpu.Options{
		KeepBacking: func(bk *mem.Backing) { baseOut = read(bk, 64*64) },
	}); err != nil {
		t.Fatal(err)
	}
	vtRes, err := gpu.Run(mk(), vtConfig(), gpu.Options{
		KeepBacking: func(bk *mem.Backing) { vtOut = read(bk, 64*64) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if vtRes.VT.SwapsOut == 0 {
		t.Fatal("expected swaps in this workload")
	}
	for i := range baseOut {
		if baseOut[i] != vtOut[i] {
			t.Fatalf("output %d differs: baseline %d vs VT %d", i, baseOut[i], vtOut[i])
		}
	}
}

func TestVTActivationNewest(t *testing.T) {
	cfg := vtConfig()
	cfg.VT.Activation = config.ActNewest
	res, err := gpu.Run(memBoundLaunch(12, 96, 64), cfg, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SM.CTAsCompleted != 96 {
		t.Fatalf("completed %d CTAs under newest-first activation", res.SM.CTAsCompleted)
	}
	if res.VT.SwapsOut == 0 {
		t.Fatal("expected swaps under newest-first activation")
	}
}

func TestVTTriggerFractionSwapsMore(t *testing.T) {
	// A relaxed trigger (half the warps stalled) must swap at least as
	// often as the full-stall trigger on a multi-warp workload.
	strict := vtConfig()
	relaxed := vtConfig()
	relaxed.VT.TriggerFraction = 0.5
	l := func() *isa.Launch { return memBoundLaunch(12, 96, 128) } // 4 warps per CTA
	rs, err := gpu.Run(l(), strict, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := gpu.Run(l(), relaxed, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.VT.SwapsOut < rs.VT.SwapsOut {
		t.Fatalf("relaxed trigger swapped less: %d vs %d", rr.VT.SwapsOut, rs.VT.SwapsOut)
	}
	if rr.SM.CTAsCompleted != 96 || rs.SM.CTAsCompleted != 96 {
		t.Fatal("not all CTAs completed")
	}
}

func TestVTSwapPortsOverlap(t *testing.T) {
	one := vtConfig()
	four := vtConfig()
	four.VT.SwapPorts = 4
	l := func() *isa.Launch { return memBoundLaunch(12, 96, 64) }
	r1, err := gpu.Run(l(), one, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := gpu.Run(l(), four, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r4.SM.CTAsCompleted != 96 || r1.SM.CTAsCompleted != 96 {
		t.Fatal("not all CTAs completed")
	}
	// More ports can only help (or tie) on this rotation-heavy workload.
	if float64(r4.Cycles) > float64(r1.Cycles)*1.05 {
		t.Fatalf("4 ports (%d cycles) should not be materially slower than 1 (%d)",
			r4.Cycles, r1.Cycles)
	}
}

func TestEffDefaults(t *testing.T) {
	var v config.VTConfig
	if v.EffTriggerFraction() != 1.0 {
		t.Fatalf("default trigger = %v", v.EffTriggerFraction())
	}
	if v.EffSwapPorts() != 1 {
		t.Fatalf("default ports = %d", v.EffSwapPorts())
	}
	v.TriggerFraction = 2.0 // out of range -> default
	if v.EffTriggerFraction() != 1.0 {
		t.Fatal("out-of-range trigger must default")
	}
	v.TriggerFraction = 0.25
	if v.EffTriggerFraction() != 0.25 {
		t.Fatal("in-range trigger must pass through")
	}
	if config.ActOldest.String() != "oldest" || config.ActNewest.String() != "newest" {
		t.Fatal("activation policy names")
	}
}
