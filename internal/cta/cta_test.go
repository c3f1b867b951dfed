package cta

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/isa"
)

func launchWith(t *testing.T, regs, smem, block, grid int) *isa.Launch {
	t.Helper()
	b := isa.NewBuilder("k").ReserveRegs(regs).SharedMem(smem)
	b.Nop().Exit()
	k := b.MustBuild()
	return &isa.Launch{Kernel: k, GridDim: isa.Dim1(grid), BlockDim: isa.Dim1(block)}
}

func TestFootprintRounding(t *testing.T) {
	cfg := config.GTX480()
	l := launchWith(t, 10, 100, 96, 1000)
	fp := ComputeFootprint(l, &cfg)
	if fp.Threads != 96 || fp.Warps != 3 {
		t.Fatalf("threads/warps = %d/%d", fp.Threads, fp.Warps)
	}
	// 10 regs x 32 lanes = 320, rounded to 64-granularity = 320; x3 warps.
	if fp.Regs != 3*320 {
		t.Errorf("regs = %d, want 960", fp.Regs)
	}
	// 100 B rounded to 128.
	if fp.SMem != 128 {
		t.Errorf("smem = %d, want 128", fp.SMem)
	}
}

func TestFootprintOddRegs(t *testing.T) {
	cfg := config.GTX480()
	l := launchWith(t, 9, 0, 32, 1)
	fp := ComputeFootprint(l, &cfg)
	// 9 x 32 = 288, rounded up to 320.
	if fp.Regs != 320 {
		t.Errorf("regs = %d, want 320", fp.Regs)
	}
	if fp.SMem != 0 {
		t.Errorf("smem = %d, want 0", fp.SMem)
	}
}

func TestOccupancySchedulingLimited(t *testing.T) {
	cfg := config.GTX480()
	// Tiny CTAs (64 threads, few regs): CTA-slot limited like the
	// paper's motivating workloads.
	l := launchWith(t, 12, 0, 64, 10000)
	o := ComputeOccupancy(l, &cfg)
	if o.Limiter != LimitCTASlots {
		t.Fatalf("limiter = %v, want cta-slots", o.Limiter)
	}
	if o.CTAs != 8 {
		t.Fatalf("CTAs = %d, want 8", o.CTAs)
	}
	if !o.SchedulingLimited() {
		t.Fatal("must be scheduling limited")
	}
	if o.CapacityCTAs <= o.CTAs {
		t.Fatalf("capacity CTAs %d must exceed scheduling CTAs %d", o.CapacityCTAs, o.CTAs)
	}
}

func TestOccupancyWarpLimited(t *testing.T) {
	cfg := config.GTX480()
	// 256-thread CTAs, light resources: 48 warps / 8 warps-per-CTA = 6 CTAs.
	l := launchWith(t, 8, 0, 256, 10000)
	o := ComputeOccupancy(l, &cfg)
	if o.Limiter != LimitWarpSlots && o.Limiter != LimitThreads {
		t.Fatalf("limiter = %v, want warp/thread slots", o.Limiter)
	}
	if o.CTAs != 6 {
		t.Fatalf("CTAs = %d, want 6", o.CTAs)
	}
	if !o.SchedulingLimited() {
		t.Fatal("must be scheduling limited")
	}
}

func TestOccupancyRegisterLimited(t *testing.T) {
	cfg := config.GTX480()
	// 63 regs x 256 threads: 63x32=2016 -> 2048/warp x 8 warps = 16384
	// regs per CTA; 32768/16384 = 2 CTAs.
	l := launchWith(t, 63, 0, 256, 10000)
	o := ComputeOccupancy(l, &cfg)
	if o.Limiter != LimitRegisters {
		t.Fatalf("limiter = %v, want registers", o.Limiter)
	}
	if o.CTAs != 2 {
		t.Fatalf("CTAs = %d, want 2", o.CTAs)
	}
	if o.SchedulingLimited() {
		t.Fatal("register-limited launch is capacity limited")
	}
}

func TestOccupancySharedMemLimited(t *testing.T) {
	cfg := config.GTX480()
	// 16 KB of shared memory per CTA: 48/16 = 3 CTAs.
	l := launchWith(t, 8, 16*1024, 64, 10000)
	o := ComputeOccupancy(l, &cfg)
	if o.Limiter != LimitSharedMem {
		t.Fatalf("limiter = %v, want shared-mem", o.Limiter)
	}
	if o.CTAs != 3 {
		t.Fatalf("CTAs = %d, want 3", o.CTAs)
	}
	if o.SchedulingLimited() {
		t.Fatal("smem-limited launch is capacity limited")
	}
}

func TestOccupancyGridLimited(t *testing.T) {
	cfg := config.GTX480()
	l := launchWith(t, 8, 0, 64, 15) // one CTA per SM
	o := ComputeOccupancy(l, &cfg)
	if o.Limiter != LimitGrid {
		t.Fatalf("limiter = %v, want grid", o.Limiter)
	}
	if o.CTAs != 1 {
		t.Fatalf("CTAs = %d, want 1", o.CTAs)
	}
}

func TestLimiterNames(t *testing.T) {
	for l, want := range map[Limiter]string{
		LimitCTASlots:  "cta-slots",
		LimitWarpSlots: "warp-slots",
		LimitThreads:   "threads",
		LimitRegisters: "registers",
		LimitSharedMem: "shared-mem",
		LimitGrid:      "grid",
	} {
		if l.String() != want {
			t.Errorf("%v != %q", l, want)
		}
	}
	if !LimitCTASlots.IsScheduling() || !LimitWarpSlots.IsScheduling() ||
		!LimitThreads.IsScheduling() {
		t.Error("scheduling limiters misclassified")
	}
	if LimitRegisters.IsScheduling() || LimitSharedMem.IsScheduling() {
		t.Error("capacity limiters misclassified")
	}
}

func TestGridDispenser(t *testing.T) {
	cfg := config.GTX480()
	l := launchWith(t, 4, 0, 64, 5)
	g := NewGrid(l, &cfg)
	if g.Total() != 5 || g.Remaining() != 5 {
		t.Fatalf("total/remaining = %d/%d", g.Total(), g.Remaining())
	}
	fp := ComputeFootprint(l, &cfg)
	for i := 0; i < 5; i++ {
		c := g.Next(nil)
		if c == nil {
			t.Fatalf("Next returned nil at %d", i)
		}
		if c.FlatID != i {
			t.Fatalf("FlatID = %d, want %d", c.FlatID, i)
		}
		if c.RegsAlloc != fp.Regs || c.SMemAlloc != fp.SMem || c.Threads != fp.Threads {
			t.Fatalf("CTA footprint not stamped: %+v vs %+v", c, fp)
		}
	}
	if g.Next(nil) != nil {
		t.Fatal("exhausted grid must return nil")
	}
	if g.Remaining() != 0 {
		t.Fatalf("remaining = %d", g.Remaining())
	}
}

func TestGridFitCallback(t *testing.T) {
	cfg := config.GTX480()
	l := launchWith(t, 4, 0, 64, 3)
	g := NewGrid(l, &cfg)
	// A rejecting fit must not consume the CTA.
	if c := g.Next(func(regs, smem, warps, threads int) bool { return false }); c != nil {
		t.Fatal("rejected CTA was dispensed")
	}
	if g.Remaining() != 3 {
		t.Fatalf("rejection consumed a CTA: remaining = %d", g.Remaining())
	}
	if c := g.Next(func(regs, smem, warps, threads int) bool { return true }); c == nil {
		t.Fatal("accepting fit must dispense")
	}
}

func TestMultiGridRoundRobin(t *testing.T) {
	cfg := config.GTX480()
	a := launchWith(t, 4, 0, 64, 2)
	b := launchWith(t, 4, 0, 64, 2)
	m := NewMultiGrid([]*isa.Launch{a, b}, &cfg)
	if m.Remaining() != 4 {
		t.Fatalf("remaining = %d", m.Remaining())
	}
	var kernels []int
	for {
		c := m.Next(nil)
		if c == nil {
			break
		}
		kernels = append(kernels, c.KernelID)
	}
	want := []int{0, 1, 0, 1}
	if len(kernels) != len(want) {
		t.Fatalf("dispensed %v", kernels)
	}
	for i := range want {
		if kernels[i] != want[i] {
			t.Fatalf("round robin order = %v, want %v", kernels, want)
		}
	}
}

func TestMultiGridSkipsNonFitting(t *testing.T) {
	cfg := config.GTX480()
	small := launchWith(t, 4, 0, 32, 2) // tiny CTAs
	big := launchWith(t, 40, 0, 512, 2) // huge CTAs
	m := NewMultiGrid([]*isa.Launch{big, small}, &cfg)
	onlySmall := func(regs, smem, warps, threads int) bool { return threads <= 32 }
	c := m.Next(onlySmall)
	if c == nil || c.KernelID != 1 {
		t.Fatalf("expected the small kernel's CTA, got %+v", c)
	}
}

// Property: occupancy respects every individual bound, and capacity CTAs
// always >= realized CTAs when not grid limited.
func TestOccupancyBoundsProperty(t *testing.T) {
	cfg := config.GTX480()
	f := func(regs8, smemKB, blockW uint8) bool {
		regs := int(regs8%60) + 1
		smem := int(smemKB%48) * 1024
		block := (int(blockW%16) + 1) * 32
		b := isa.NewBuilder("q").ReserveRegs(regs).SharedMem(smem)
		b.Nop().Exit()
		k := b.MustBuild()
		l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(100000), BlockDim: isa.Dim1(block)}
		o := ComputeOccupancy(l, &cfg)
		fp := o.Footprint
		if o.CTAs <= 0 {
			// Zero occupancy only if a single CTA exceeds capacity.
			return fp.Regs > cfg.RegFileSize || fp.SMem > cfg.SharedMemPerSM ||
				fp.Warps > cfg.MaxWarpsPerSM || fp.Threads > cfg.MaxThreadsPerSM
		}
		ok := o.CTAs <= cfg.MaxCTAsPerSM &&
			o.CTAs*fp.Warps <= cfg.MaxWarpsPerSM &&
			o.CTAs*fp.Threads <= cfg.MaxThreadsPerSM &&
			o.CTAs*fp.Regs <= cfg.RegFileSize &&
			o.CTAs*fp.SMem <= cfg.SharedMemPerSM
		return ok && o.CapacityCTAs >= o.CTAs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
