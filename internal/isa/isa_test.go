package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderResolvesLabels(t *testing.T) {
	b := NewBuilder("loop")
	b.MovImm(0, 4)
	b.Label("top")
	b.IAddImm(0, 0, -1)
	b.SetpImm(1, CmpIGT, 0, 0)
	b.Bra(1, "top", "done")
	b.Label("done")
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bra := k.Code[3]
	if bra.Op != OpBra {
		t.Fatalf("code[3] = %v, want bra", bra.Op)
	}
	if bra.Target != 1 {
		t.Errorf("bra target = %d, want 1", bra.Target)
	}
	if bra.Reconv != 4 {
		t.Errorf("bra reconv = %d, want 4", bra.Reconv)
	}
	if k.NumRegs != 2 {
		t.Errorf("NumRegs = %d, want 2", k.NumRegs)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("undefined label", func(t *testing.T) {
		b := NewBuilder("bad")
		b.Jmp("nowhere")
		b.Exit()
		if _, err := b.Build(); err == nil {
			t.Fatal("expected undefined-label error")
		}
	})
	t.Run("undefined reconv", func(t *testing.T) {
		b := NewBuilder("bad")
		b.Label("t")
		b.Bra(0, "t", "missing")
		b.Exit()
		if _, err := b.Build(); err == nil {
			t.Fatal("expected undefined-reconv error")
		}
	})
	t.Run("duplicate label", func(t *testing.T) {
		b := NewBuilder("bad")
		b.Label("x")
		b.Label("x")
		b.Exit()
		if _, err := b.Build(); err == nil {
			t.Fatal("expected duplicate-label error")
		}
	})
	t.Run("empty kernel", func(t *testing.T) {
		if _, err := NewBuilder("empty").Build(); err == nil {
			t.Fatal("expected empty-kernel error")
		}
	})
	t.Run("missing exit", func(t *testing.T) {
		b := NewBuilder("noexit")
		b.Nop()
		if _, err := b.Build(); err == nil {
			t.Fatal("expected missing-exit error")
		}
	})
}

func TestBuilderRegisterFootprint(t *testing.T) {
	b := NewBuilder("regs")
	b.MovImm(7, 1) // touches R7 -> 8 regs
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if k.NumRegs != 8 {
		t.Errorf("NumRegs = %d, want 8", k.NumRegs)
	}

	b2 := NewBuilder("reserved").ReserveRegs(24)
	b2.MovImm(0, 1)
	b2.Exit()
	k2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if k2.NumRegs != 24 {
		t.Errorf("reserved NumRegs = %d, want 24", k2.NumRegs)
	}
}

func TestRZNotCountedInFootprint(t *testing.T) {
	b := NewBuilder("rz")
	b.Emit(Instr{Op: OpIAdd, Dst: 0, SrcA: RZ, SrcB: RZ})
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if k.NumRegs != 1 {
		t.Errorf("NumRegs = %d, want 1 (RZ must not count)", k.NumRegs)
	}
}

func TestSrcRegs(t *testing.T) {
	cases := []struct {
		in   Instr
		want []Reg
	}{
		{Instr{Op: OpIAdd, Dst: 0, SrcA: 1, SrcB: 2}, []Reg{1, 2}},
		{Instr{Op: OpIAdd, Dst: 0, SrcA: 1, Imm: 5, UseImm: true}, []Reg{1}},
		{Instr{Op: OpIMad, Dst: 0, SrcA: 1, SrcB: 2, SrcC: 3}, []Reg{1, 2, 3}},
		{Instr{Op: OpStGlobal, SrcA: 4, SrcC: 5}, []Reg{4, 5}},
		{Instr{Op: OpLdGlobal, Dst: 0, SrcA: 4}, []Reg{4}},
		{Instr{Op: OpBra, SrcA: 6}, []Reg{6}},
		{Instr{Op: OpBar}, nil},
		{Instr{Op: OpExit}, nil},
		{Instr{Op: OpMov, Dst: 1, Imm: 9, UseImm: true}, nil},
		{Instr{Op: OpFSqrt, Dst: 1, SrcA: 2}, []Reg{2}},
		{Instr{Op: OpIAdd, Dst: 0, SrcA: RZ, SrcB: RZ}, nil},
	}
	for _, tc := range cases {
		got := tc.in.SrcRegs(nil)
		if len(got) != len(tc.want) {
			t.Errorf("%v SrcRegs = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%v SrcRegs = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestUnitClassification(t *testing.T) {
	if OpIAdd.Unit() != UnitSP || OpFFma.Unit() != UnitSP {
		t.Error("ALU ops must be UnitSP")
	}
	if OpFSin.Unit() != UnitSFU || OpFRcp.Unit() != UnitSFU {
		t.Error("transcendentals must be UnitSFU")
	}
	if OpLdGlobal.Unit() != UnitMem || OpStShared.Unit() != UnitMem {
		t.Error("memory ops must be UnitMem")
	}
	if OpBra.Unit() != UnitCtl || OpExit.Unit() != UnitCtl || OpBar.Unit() != UnitCtl {
		t.Error("control ops must be UnitCtl")
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !OpLdGlobal.IsLoad() || !OpLdShared.IsLoad() || OpStGlobal.IsLoad() {
		t.Error("IsLoad misclassifies")
	}
	if !OpStGlobal.IsStore() || !OpStShared.IsStore() || OpLdGlobal.IsStore() {
		t.Error("IsStore misclassifies")
	}
	if !OpLdGlobal.IsGlobal() || !OpStGlobal.IsGlobal() || OpLdShared.IsGlobal() {
		t.Error("IsGlobal misclassifies")
	}
	if OpExit.HasDst() || OpStGlobal.HasDst() || OpBar.HasDst() {
		t.Error("HasDst misclassifies non-writers")
	}
	if !OpIAdd.HasDst() || !OpLdGlobal.HasDst() || !OpSetp.HasDst() {
		t.Error("HasDst misclassifies writers")
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Op: OpLdGlobal, Dst: 3, SrcA: 2, Imm: 16}
	if s := in.String(); !strings.Contains(s, "ld.global") || !strings.Contains(s, "R3") {
		t.Errorf("String() = %q", s)
	}
	neg4 := int32(-4)
	if s := (Instr{Op: OpIAdd, Dst: 1, SrcA: 2, Imm: uint32(neg4), UseImm: true}).String(); !strings.Contains(s, "#-4") {
		t.Errorf("immediate render = %q", s)
	}
	if Reg(3).String() != "R3" || RZ.String() != "RZ" {
		t.Error("register names wrong")
	}
}

func TestDim3(t *testing.T) {
	d := Dim3{X: 4, Y: 3, Z: 2}
	if d.Size() != 24 {
		t.Errorf("Size = %d, want 24", d.Size())
	}
	if Dim1(7) != (Dim3{X: 7, Y: 1, Z: 1}) {
		t.Error("Dim1 wrong")
	}
	if d.String() != "(4,3,2)" {
		t.Errorf("String = %q", d.String())
	}
}

func TestLaunchValidateAndWarps(t *testing.T) {
	k := NewBuilder("k").Nop().Exit().MustBuild()
	l := Launch{Kernel: k, GridDim: Dim1(4), BlockDim: Dim1(96)}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if w := l.WarpsPerCTA(32); w != 3 {
		t.Errorf("WarpsPerCTA = %d, want 3", w)
	}
	if w := (Launch{Kernel: k, BlockDim: Dim1(33)}).WarpsPerCTA(32); w != 2 {
		t.Errorf("partial warp rounds up: got %d, want 2", w)
	}

	bad := []Launch{
		{Kernel: nil, GridDim: Dim1(1), BlockDim: Dim1(32)},
		{Kernel: k, GridDim: Dim1(0), BlockDim: Dim1(32)},
		{Kernel: k, GridDim: Dim1(1), BlockDim: Dim1(2048)},
		{Kernel: &Kernel{Name: "empty"}, GridDim: Dim1(1), BlockDim: Dim1(32)},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad launch %d passed validation", i)
		}
	}
}

// TestKernelsAreDecodedWhenBuilt: Builder.Build and NewKernel return
// kernels whose every instruction carries its decoded issue metadata, and
// Launch.Validate refuses a kernel literal that skipped both.
func TestKernelsAreDecodedWhenBuilt(t *testing.T) {
	b := NewBuilder("decoded")
	b.LdG(1, 0, 4)
	b.Label("loop")
	b.FFma(2, 1, 1, 2)
	b.StS(0, 0, 2)
	b.SetpImm(3, CmpILT, 2, 9)
	b.Bra(3, "loop", "done")
	b.Label("done")
	b.Bar()
	b.Exit()
	built := b.MustBuild()
	lit := []Instr{{Op: OpLdGlobal, Dst: 1, SrcA: 0, Imm: 4}, {Op: OpExit}}
	made := NewKernel("made", append([]Instr(nil), lit...), 2, 0)
	for _, k := range []*Kernel{built, made} {
		for pc, in := range k.Code {
			want := in
			want.Decode()
			if !in.Decoded || in != want {
				t.Errorf("%s pc %d: %v not decoded at build", k.Name, pc, in)
			}
		}
		if err := (Launch{Kernel: k, GridDim: Dim1(1), BlockDim: Dim1(32)}).Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
	if made.Code[0].ExecUnit != UnitMem || made.Code[0].DstMask[0]&(1<<1) == 0 {
		t.Errorf("NewKernel decoded ld.global as unit %d, dst mask %v", made.Code[0].ExecUnit, made.Code[0].DstMask)
	}

	raw := Launch{Kernel: &Kernel{Name: "raw", Code: lit, NumRegs: 2}, GridDim: Dim1(1), BlockDim: Dim1(32)}
	if err := raw.Validate(); err == nil || !strings.Contains(err.Error(), "not decoded") {
		t.Errorf("undecoded kernel literal: Validate = %v, want a not-decoded error", err)
	}
}

// Property: for any instruction, the register footprint derived by the
// builder covers every register SrcRegs reports plus the destination.
func TestFootprintCoversOperandsProperty(t *testing.T) {
	f := func(op uint8, d, a, bb, c uint8) bool {
		in := Instr{
			Op:   Opcode(op % uint8(opCount)),
			Dst:  Reg(d % 32),
			SrcA: Reg(a % 32),
			SrcB: Reg(bb % 32),
			SrcC: Reg(c % 32),
		}
		if in.Op == OpBra || in.Op == OpJmp {
			return true // need labels; covered elsewhere
		}
		b := NewBuilder("q")
		b.Emit(in)
		b.Exit()
		k, err := b.Build()
		if err != nil {
			return false
		}
		if in.Op.HasDst() && int(in.Dst) >= k.NumRegs {
			return false
		}
		for _, r := range in.SrcRegs(nil) {
			if int(r) >= k.NumRegs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderHelperOpcodes checks that every convenience emitter produces
// the opcode and operand shape it promises.
func TestBuilderHelperOpcodes(t *testing.T) {
	b := NewBuilder("helpers")
	b.Mov(1, 2)
	b.MovImm(1, 7)
	b.S2R(1, SrLaneID)
	b.LdParam(1, 3)
	b.IAdd(1, 2, 3)
	b.IAddImm(1, 2, -9)
	b.ISub(1, 2, 3)
	b.IMul(1, 2, 3)
	b.IMulImm(1, 2, 5)
	b.Emit(Instr{Op: OpIMad, Dst: 1, SrcA: 2, SrcB: 3, SrcC: 4})
	b.IMin(1, 2, 3)
	b.IMax(1, 2, 3)
	b.And(1, 2, 3)
	b.AndImm(1, 2, 0xFF)
	b.Or(1, 2, 3)
	b.Xor(1, 2, 3)
	b.ShlImm(1, 2, 4)
	b.ShrImm(1, 2, 4)
	b.FAdd(1, 2, 3)
	b.FMul(1, 2, 3)
	b.FFma(1, 2, 3, 4)
	b.FRcp(1, 2)
	b.Emit(Instr{Op: OpFSqrt, Dst: 1, SrcA: 2})
	b.FSin(1, 2)
	b.FExp(1, 2)
	b.Setp(1, CmpILT, 2, 3)
	b.SetpImm(1, CmpIGE, 2, -1)
	b.Selp(1, 2, 3, 4)
	b.LdG(1, 2, 8)
	b.StG(2, 8, 3)
	b.LdS(1, 2, 8)
	b.StS(2, 8, 3)
	b.Nop()
	b.Bar()
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []Opcode{
		OpMov, OpMov, OpS2R, OpLdParam,
		OpIAdd, OpIAdd, OpISub, OpIMul, OpIMul, OpIMad, OpIMin, OpIMax,
		OpAnd, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpFAdd, OpFMul, OpFFma, OpFRcp, OpFSqrt, OpFSin, OpFExp,
		OpSetp, OpSetp, OpSelp,
		OpLdGlobal, OpStGlobal, OpLdShared, OpStShared,
		OpNop, OpBar, OpExit,
	}
	if len(k.Code) != len(want) {
		t.Fatalf("emitted %d instrs, want %d", len(k.Code), len(want))
	}
	for i, op := range want {
		if k.Code[i].Op != op {
			t.Errorf("instr %d = %v, want %v", i, k.Code[i].Op, op)
		}
	}
	// Immediate forms must set UseImm; register forms must not.
	if !k.Code[1].UseImm || k.Code[0].UseImm {
		t.Error("Mov/MovImm UseImm flags wrong")
	}
	if !k.Code[5].UseImm || int32(k.Code[5].Imm) != -9 {
		t.Error("IAddImm encoding wrong")
	}
	if !k.Code[26].UseImm || int32(k.Code[26].Imm) != -1 || CmpKind(k.Code[26].Target) != CmpIGE {
		t.Error("SetpImm encoding wrong")
	}
	if k.Code[25].UseImm || CmpKind(k.Code[25].Imm) != CmpILT {
		t.Error("Setp encoding wrong")
	}
}

// TestBuilderPC checks that a label names the PC of the next emitted
// instruction: 0 on a fresh builder, 1 after one emit.
func TestBuilderPC(t *testing.T) {
	b := NewBuilder("pc")
	b.Label("start").Nop().Label("next").Jmp("start").Jmp("next").Exit()
	k := b.MustBuild()
	if k.Code[1].Target != 0 {
		t.Fatalf("fresh builder PC = %d, want 0", k.Code[1].Target)
	}
	if k.Code[2].Target != 1 {
		t.Fatalf("PC = %d after one emit", k.Code[2].Target)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild must panic on invalid kernel")
		}
	}()
	NewBuilder("bad").MustBuild() // empty kernel
}
