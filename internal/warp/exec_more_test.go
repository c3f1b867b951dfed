package warp

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// execOne runs a tiny kernel on one warp and returns it for inspection.
func execOne(t *testing.T, build func(b *isa.Builder), params ...uint32) *Warp {
	t.Helper()
	b := isa.NewBuilder("t")
	build(b)
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(1), BlockDim: isa.Dim1(32), Params: params}
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	return w
}

func TestIntMinMax(t *testing.T) {
	neg5 := int32(-5)
	w := execOne(t, func(b *isa.Builder) {
		b.MovImm(0, uint32(neg5))
		b.MovImm(1, 3)
		b.IMin(2, 0, 1)
		b.IMax(3, 0, 1)
	})
	if int32(w.Reg(2, 0)) != -5 {
		t.Errorf("IMin = %d", int32(w.Reg(2, 0)))
	}
	if w.Reg(3, 0) != 3 {
		t.Errorf("IMax = %d", w.Reg(3, 0))
	}
}

func TestShifts(t *testing.T) {
	w := execOne(t, func(b *isa.Builder) {
		b.MovImm(0, 0x80000001)
		b.ShlImm(1, 0, 1)
		b.ShrImm(2, 0, 1) // logical
		b.MovImm(3, 33)   // shift amounts wrap at 32
		b.Emit(isa.Instr{Op: isa.OpShl, Dst: 4, SrcA: 0, SrcB: 3})
	})
	if w.Reg(1, 0) != 0x00000002 {
		t.Errorf("Shl = %x", w.Reg(1, 0))
	}
	if w.Reg(2, 0) != 0x40000000 {
		t.Errorf("Shr = %x", w.Reg(2, 0))
	}
	if w.Reg(4, 0) != 0x00000002 { // 33&31 = 1
		t.Errorf("Shl wrap = %x", w.Reg(4, 0))
	}
}

func TestSelpAndCompares(t *testing.T) {
	w := execOne(t, func(b *isa.Builder) {
		b.MovImm(0, 10)
		b.MovImm(1, 20)
		b.MovImm(2, 1)
		b.Selp(3, 0, 1, 2) // c!=0 -> a
		b.MovImm(2, 0)
		b.Selp(4, 0, 1, 2) // c==0 -> b
		b.Setp(5, isa.CmpILE, 0, 0)
		b.Setp(6, isa.CmpIGE, 0, 1)
		b.SetpImm(7, isa.CmpINE, 0, 10)
		b.SetpImm(8, isa.CmpIEQ, 0, 10)
	})
	if w.Reg(3, 0) != 10 || w.Reg(4, 0) != 20 {
		t.Errorf("Selp = %d/%d", w.Reg(3, 0), w.Reg(4, 0))
	}
	if w.Reg(5, 0) != 1 || w.Reg(6, 0) != 0 || w.Reg(7, 0) != 0 || w.Reg(8, 0) != 1 {
		t.Errorf("compares = %d %d %d %d", w.Reg(5, 0), w.Reg(6, 0), w.Reg(7, 0), w.Reg(8, 0))
	}
}

func TestFloatCompare(t *testing.T) {
	w := execOne(t, func(b *isa.Builder) {
		b.MovImm(0, math.Float32bits(1.5))
		b.MovImm(1, math.Float32bits(2.5))
		b.Setp(2, isa.CmpFLT, 0, 1)
		b.Setp(3, isa.CmpFGT, 0, 1)
	})
	if w.Reg(2, 0) != 1 || w.Reg(3, 0) != 0 {
		t.Errorf("float compares = %d/%d", w.Reg(2, 0), w.Reg(3, 0))
	}
}

func TestSFUOps(t *testing.T) {
	w := execOne(t, func(b *isa.Builder) {
		b.MovImm(0, math.Float32bits(2.0))
		b.FExp(1, 0)                                        // 2^2 = 4
		b.FSin(2, 0)                                        // sin(2)
		b.Emit(isa.Instr{Op: isa.OpFSqrt, Dst: 3, SrcA: 1}) // 2
		b.FRcp(4, 0)                                        // 0.5
	})
	if got := math.Float32frombits(w.Reg(1, 0)); got != 4 {
		t.Errorf("FExp = %v", got)
	}
	if got := math.Float32frombits(w.Reg(2, 0)); math.Abs(float64(got)-math.Sin(2)) > 1e-6 {
		t.Errorf("FSin = %v", got)
	}
	if got := math.Float32frombits(w.Reg(3, 0)); got != 2 {
		t.Errorf("FSqrt = %v", got)
	}
	if got := math.Float32frombits(w.Reg(4, 0)); got != 0.5 {
		t.Errorf("FRcp = %v", got)
	}
}

func TestSpecialRegs3D(t *testing.T) {
	b := isa.NewBuilder("sr3d")
	b.S2R(0, isa.SrTidX)
	b.S2R(1, isa.SrTidY)
	b.S2R(2, isa.SrTidZ)
	b.S2R(3, isa.SrNTidY)
	b.S2R(4, isa.SrCTAIdY)
	b.S2R(5, isa.SrNCTAIdZ)
	b.S2R(6, isa.SrLaneID)
	b.S2R(7, isa.SrWarpID)
	b.Exit()
	k := b.MustBuild()
	l := &isa.Launch{
		Kernel:   k,
		GridDim:  isa.Dim3{X: 2, Y: 3, Z: 4},
		BlockDim: isa.Dim3{X: 4, Y: 4, Z: 2}, // 32 threads
	}
	c := NewCTA(l, 3, 32) // ctaid = (1,1,0)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	// lane 13: tid = 13 -> x=1, y=3, z=0 in a 4x4x2 block.
	if w.Reg(0, 13) != 1 || w.Reg(1, 13) != 3 || w.Reg(2, 13) != 0 {
		t.Errorf("tid xyz = %d,%d,%d", w.Reg(0, 13), w.Reg(1, 13), w.Reg(2, 13))
	}
	if w.Reg(3, 0) != 4 {
		t.Errorf("ntid.y = %d", w.Reg(3, 0))
	}
	if w.Reg(4, 0) != 1 {
		t.Errorf("ctaid.y = %d", w.Reg(4, 0))
	}
	if w.Reg(5, 0) != 4 {
		t.Errorf("nctaid.z = %d", w.Reg(5, 0))
	}
	if w.Reg(6, 13) != 13 || w.Reg(7, 13) != 0 {
		t.Errorf("lane/warp = %d/%d", w.Reg(6, 13), w.Reg(7, 13))
	}
}

func TestMissingParamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing launch parameter")
		}
	}()
	execOne(t, func(b *isa.Builder) {
		b.LdParam(0, 3) // only zero params provided
	})
}

func TestNopPreservesDst(t *testing.T) {
	w := execOne(t, func(b *isa.Builder) {
		b.MovImm(0, 42)
		b.Emit(isa.Instr{Op: isa.OpNop, Dst: 0})
	})
	if w.Reg(0, 0) != 42 {
		t.Errorf("nop clobbered R0: %d", w.Reg(0, 0))
	}
}

func TestSharedMemoryWrapsOutOfBounds(t *testing.T) {
	b := isa.NewBuilder("oob").SharedMem(64) // 16 words
	b.MovImm(0, 7)
	b.MovImm(1, 1000) // out of bounds offset -> wraps
	b.StS(1, 0, 0)
	b.LdS(2, 1, 0)
	b.Exit()
	k := b.MustBuild()
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(1), BlockDim: isa.Dim1(32)}
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	if w.Reg(2, 0) != 7 {
		t.Errorf("wrapped shared access = %d, want 7", w.Reg(2, 0))
	}
}

func TestZeroSharedMemorySafe(t *testing.T) {
	b := isa.NewBuilder("nosmem")
	b.MovImm(0, 5)
	b.StS(0, 0, 0)
	b.LdS(1, 0, 0)
	b.Exit()
	k := b.MustBuild()
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(1), BlockDim: isa.Dim1(32)}
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	if w.Reg(1, 0) != 0 {
		t.Errorf("load from zero-sized shared memory = %d, want 0", w.Reg(1, 0))
	}
}

func TestAtomicAdd(t *testing.T) {
	// All 32 lanes atomically add 1 to the same word; the final value
	// must be 32 regardless of lane order, and each lane observes a
	// distinct old value.
	b := isa.NewBuilder("atom")
	b.LdParam(0, 0)
	b.MovImm(1, 1)
	b.Emit(isa.Instr{Op: isa.OpAtomAdd, Dst: 2, SrcA: 0, SrcC: 1})
	b.Exit()
	k := b.MustBuild()
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(1), BlockDim: isa.Dim1(32),
		Params: []uint32{0x1000}}
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	bk := mem.NewBacking()
	bk.StoreWord(0x1000, 100)
	runWarp(t, w, k.Code, bk)
	if got := bk.LoadWord(0x1000); got != 132 {
		t.Fatalf("final value = %d, want 132", got)
	}
	seen := map[uint32]bool{}
	for lane := 0; lane < 32; lane++ {
		old := w.Reg(2, lane)
		if old < 100 || old >= 132 || seen[old] {
			t.Fatalf("lane %d old value %d invalid or duplicated", lane, old)
		}
		seen[old] = true
	}
}
