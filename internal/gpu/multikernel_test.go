package gpu

// Tests for concurrent kernel execution: multiple launches sharing SMs.

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/testsupport"
)

// twoLaunches builds a vecadd and an independent ALU kernel writing to
// disjoint regions.
func twoLaunches(t *testing.T) []*isa.Launch {
	t.Helper()
	v := vecAddLaunch(t, 8, 64)

	b := isa.NewBuilder("spin")
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(1, isa.SrNTidX)
	b.IMul(0, 0, 1)
	b.S2R(1, isa.SrTidX)
	b.IAdd(0, 0, 1)
	b.MovImm(2, 0)
	for i := 0; i < 12; i++ {
		b.IAddImm(2, 2, 3)
	}
	b.ShlImm(3, 0, 2)
	b.LdParam(4, 0)
	b.IAdd(4, 4, 3)
	b.StG(4, 0, 2)
	b.Exit()
	spin := &isa.Launch{
		Kernel:   b.MustBuild(),
		GridDim:  isa.Dim1(6),
		BlockDim: isa.Dim1(96),
		Params:   []uint32{0x0700_0000},
	}
	return []*isa.Launch{v, spin}
}

func TestRunMultiCompletesBothKernels(t *testing.T) {
	for _, p := range []config.Policy{config.PolicyBaseline, config.PolicyVT} {
		var out *mem.Backing
		res, err := RunMulti(twoLaunches(t), testsupport.Small().WithPolicy(p), Options{
			InitMemory:  initVec(512),
			KeepBacking: func(bk *mem.Backing) { out = bk },
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(res.PerKernel) != 2 {
			t.Fatalf("%s: PerKernel = %d entries", p, len(res.PerKernel))
		}
		if res.PerKernel[0].Name != "vecadd_test" || res.PerKernel[1].Name != "spin" {
			t.Fatalf("%s: kernel names %+v", p, res.PerKernel)
		}
		if res.SM.CTAsCompleted != 8+6 {
			t.Fatalf("%s: completed %d CTAs, want 14", p, res.SM.CTAsCompleted)
		}
		if res.PerKernel[0].Issued == 0 || res.PerKernel[1].Issued == 0 {
			t.Fatalf("%s: per-kernel issue counts %+v", p, res.PerKernel)
		}
		// Both kernels' outputs must be correct.
		for i := 0; i < 512; i++ {
			if got := out.LoadWord(outBase + uint32(4*i)); got != uint32(3*i) {
				t.Fatalf("%s: vecadd out[%d] = %d", p, i, got)
			}
		}
		for i := 0; i < 6*96; i++ {
			if got := out.LoadWord(0x0700_0000 + uint32(4*i)); got != 36 {
				t.Fatalf("%s: spin out[%d] = %d, want 36", p, i, got)
			}
		}
		if res.Kernel != "vecadd_test+spin" {
			t.Fatalf("%s: joined name %q", p, res.Kernel)
		}
	}
}

func TestRunMultiHeterogeneousResources(t *testing.T) {
	// A fat kernel (capacity-heavy CTAs) co-scheduled with a tiny one:
	// the dispatcher must interleave them without exceeding capacity.
	fat := isa.NewBuilder("fat").ReserveRegs(40)
	fat.Nop().Exit()
	fatL := &isa.Launch{Kernel: fat.MustBuild(), GridDim: isa.Dim1(6), BlockDim: isa.Dim1(256)}
	tiny := isa.NewBuilder("tiny")
	tiny.Nop().Exit()
	tinyL := &isa.Launch{Kernel: tiny.MustBuild(), GridDim: isa.Dim1(20), BlockDim: isa.Dim1(32)}

	res, err := RunMulti([]*isa.Launch{fatL, tinyL}, testsupport.Small(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SM.CTAsCompleted != 26 {
		t.Fatalf("completed %d CTAs, want 26", res.SM.CTAsCompleted)
	}
}

func TestRunMultiEmpty(t *testing.T) {
	if _, err := RunMulti(nil, testsupport.Small(), Options{}); err == nil {
		t.Fatal("empty launch list must error")
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	r1, err := RunMulti(twoLaunches(t), testsupport.Small().WithPolicy(config.PolicyVT),
		Options{InitMemory: initVec(512)})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunMulti(twoLaunches(t), testsupport.Small().WithPolicy(config.PolicyVT),
		Options{InitMemory: initVec(512)})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.VT.SwapsOut != r2.VT.SwapsOut {
		t.Fatalf("nondeterministic multi-kernel run: %d/%d vs %d/%d",
			r1.Cycles, r1.VT.SwapsOut, r2.Cycles, r2.VT.SwapsOut)
	}
}
