package energy

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cta"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sm"
	"repro/internal/testsupport"
)

func fakeResult() *gpu.Result {
	return &gpu.Result{
		Cycles: 1_000_000,
		SM: sm.Stats{
			ThreadInstrs: 32_000_000,
			SFUIssued:    10_000,
			SMemAccesses: 50_000,
		},
		Mem: mem.Stats{
			L1Accesses: 200_000,
			L2Accesses: 100_000,
			DRAMReads:  40_000,
			DRAMWrites: 10_000,
		},
		VT: core.Stats{SwapsOut: 1000, SwapsIn: 1000},
		Occupancy: cta.Occupancy{
			Footprint: cta.Footprint{Warps: 2},
		},
	}
}

func TestEstimatePositiveAndComposable(t *testing.T) {
	cfg := config.GTX480()
	m := Default()
	b := m.Estimate(fakeResult(), &cfg)
	parts := []float64{b.ALU, b.SFU, b.RF, b.SMem, b.L1, b.L2, b.DRAM, b.Swap, b.Static}
	sum := 0.0
	for i, p := range parts {
		if p < 0 {
			t.Fatalf("component %d negative: %v", i, p)
		}
		sum += p
	}
	if b.Total() <= 0 {
		t.Fatal("total energy must be positive")
	}
	if diff := b.Total() - sum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Total() != sum of parts: %v vs %v", b.Total(), sum)
	}
	if b.Dynamic() >= b.Total() {
		t.Fatal("static component missing")
	}
}

func TestFewerCyclesLessStatic(t *testing.T) {
	cfg := config.GTX480()
	m := Default()
	fast := fakeResult()
	slow := fakeResult()
	slow.Cycles *= 2
	bf := m.Estimate(fast, &cfg)
	bs := m.Estimate(slow, &cfg)
	if bs.Static <= bf.Static {
		t.Fatal("more cycles must burn more static energy")
	}
	if bs.Dynamic() != bf.Dynamic() {
		t.Fatal("same work must have same dynamic energy")
	}
	if EDP(bs, slow.Cycles) <= EDP(bf, fast.Cycles) {
		t.Fatal("EDP must penalize the slower run")
	}
}

func TestSwapEnergyCounted(t *testing.T) {
	cfg := config.GTX480()
	m := Default()
	with := fakeResult()
	without := fakeResult()
	without.VT = core.Stats{}
	bw := m.Estimate(with, &cfg)
	bo := m.Estimate(without, &cfg)
	if bw.Swap <= bo.Swap {
		t.Fatal("swaps must add energy")
	}
	if bo.Swap != 0 {
		t.Fatal("no swaps, no swap energy")
	}
}

func TestEstimateOnRealSimulation(t *testing.T) {
	// End-to-end: VT's total energy on a scheduling-limited workload must
	// not exceed baseline's by much (it should typically be lower thanks
	// to static savings).
	b := isa.NewBuilder("e")
	b.S2R(0, isa.SrCTAIdX)
	b.ShlImm(1, 0, 7)
	b.MovImm(4, 0)
	b.MovImm(5, 0)
	b.Label("l")
	b.LdParam(6, 0)
	b.IAdd(7, 6, 1)
	b.LdG(8, 7, 0)
	b.IAdd(4, 4, 8)
	b.IAddImm(1, 1, 128*512+128)
	b.AndImm(1, 1, 0x3FFFF)
	b.IAddImm(5, 5, 1)
	b.SetpImm(9, isa.CmpILT, 5, 10)
	b.Bra(9, "l", "d")
	b.Label("d")
	b.Exit()
	mk := func() *isa.Launch {
		return &isa.Launch{Kernel: b.MustBuild(), GridDim: isa.Dim1(64),
			BlockDim: isa.Dim1(64), Params: []uint32{0x100000}}
	}
	base, err := gpu.Run(mk(), testsupport.Small(), gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vt, err := gpu.Run(mk(), testsupport.Small().WithPolicy(config.PolicyVT), gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testsupport.Small()
	m := Default()
	be := m.Estimate(base, &cfg)
	ve := m.Estimate(vt, &cfg)
	if ve.Total() > be.Total()*1.1 {
		t.Fatalf("VT energy %.3f mJ far exceeds baseline %.3f mJ", ve.Total(), be.Total())
	}
}
