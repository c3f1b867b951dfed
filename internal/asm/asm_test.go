package asm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/testsupport"
)

const saxpySrc = `
; saxpy: out[i] = a*x[i] + y[i]
.kernel saxpy
.regs 12

  s2r       r0, %ctaid.x
  s2r       r1, %ntid.x
  imul      r0, r0, r1
  s2r       r1, %tid.x
  iadd      r0, r0, r1
  shl       r1, r0, #2
  ldparam   r2, p0        ; x base
  iadd      r2, r2, r1
  ld.global r3, [r2]
  ldparam   r4, p1        ; y base
  iadd      r4, r4, r1
  ld.global r5, [r4]
  mov       r6, #2.0f
  ffma      r7, r3, r6, r5
  ldparam   r8, p2        ; out base
  iadd      r8, r8, r1
  st.global [r8], r7
  exit
`

func TestAssembleSaxpyRuns(t *testing.T) {
	k, err := Assemble(saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "saxpy" {
		t.Fatalf("name = %q", k.Name)
	}
	if k.NumRegs != 12 {
		t.Fatalf("regs = %d, want 12 (reserved)", k.NumRegs)
	}
	l := &isa.Launch{
		Kernel:   k,
		GridDim:  isa.Dim1(4),
		BlockDim: isa.Dim1(64),
		Params:   []uint32{0x10000, 0x20000, 0x30000},
	}
	var out *mem.Backing
	_, err = gpu.Run(l, testsupport.Small(), gpu.Options{
		InitMemory: func(b *mem.Backing) {
			for i := 0; i < 256; i++ {
				b.StoreWord(0x10000+uint32(4*i), math.Float32bits(float32(i)))
				b.StoreWord(0x20000+uint32(4*i), math.Float32bits(1))
			}
		},
		KeepBacking: func(b *mem.Backing) { out = b },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		want := float32(2*i + 1)
		if got := math.Float32frombits(out.LoadWord(0x30000 + uint32(4*i))); got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestAssembleControlFlow(t *testing.T) {
	src := `
.kernel loop
  mov r0, #0
  mov r1, #0
top:
  iadd r1, r1, #3
  iadd r0, r0, #1
  setp.lt r2, r0, #5
  bra r2, top, done
done:
  exit
`
	k, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	// Run one warp functionally.
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(1), BlockDim: isa.Dim1(32)}
	cta := newTestCTA(t, l)
	w := cta.Warps[0]
	bk := mem.NewBacking()
	buf := make([]uint32, 32)
	for steps := 0; !w.Finished && steps < 1000; steps++ {
		pc, _, ok := w.Stack.Current()
		if !ok {
			break
		}
		execInstr(w, &k.Code[pc], bk, buf)
	}
	if got := w.Reg(1, 0); got != 15 {
		t.Fatalf("loop result = %d, want 15", got)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"no kernel", "mov r0, #1\nexit\n"},
		{"dup kernel", ".kernel a\n.kernel b\nexit\n"},
		{"unknown op", ".kernel k\nfrobnicate r1\nexit\n"},
		{"unknown directive", ".kernel k\n.bogus 3\nexit\n"},
		{"bad reg", ".kernel k\nmov r999, #1\nexit\n"},
		{"bad imm", ".kernel k\nmov r0, #zz\nexit\n"},
		{"bad special", ".kernel k\ns2r r0, %nope\nexit\n"},
		{"bad mem operand", ".kernel k\nld.global r0, r1\nexit\n"},
		{"bad param", ".kernel k\nldparam r0, x7\nexit\n"},
		{"wrong arity", ".kernel k\niadd r0, r1\nexit\n"},
		{"bad label", ".kernel k\nbad label:\nexit\n"},
		{"undefined branch", ".kernel k\njmp nowhere\nexit\n"},
		{"bad setp kind", ".kernel k\nsetp.zz r0, r1, r2\nexit\n"},
		{"smem before kernel", ".smem 4\n.kernel k\nexit\n"},
		{"negative smem", ".kernel k\n.smem -1\nexit\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Assemble(tc.src); err == nil {
				t.Fatalf("expected error for %q", tc.name)
			}
		})
	}
}

func TestAssembleImmediateForms(t *testing.T) {
	src := `
.kernel imm
  mov r0, #0x10
  mov r1, #-4
  mov r2, #1.5f
  exit
`
	k, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if k.Code[0].Imm != 16 {
		t.Errorf("hex imm = %d", k.Code[0].Imm)
	}
	if int32(k.Code[1].Imm) != -4 {
		t.Errorf("negative imm = %d", int32(k.Code[1].Imm))
	}
	if k.Code[2].Imm != math.Float32bits(1.5) {
		t.Errorf("float imm = %x", k.Code[2].Imm)
	}
}

func TestDisassembleRoundTripHandwritten(t *testing.T) {
	k, err := Assemble(saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, k)
}

// TestDisassembleRoundTripSuite round-trips every workload kernel in the
// suite: assemble(disassemble(k)) must reproduce the exact instruction
// stream.
func TestDisassembleRoundTripSuite(t *testing.T) {
	for _, w := range kernels.Suite(1) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			checkRoundTrip(t, w.Launch.Kernel)
		})
	}
}

func checkRoundTrip(t *testing.T, k *isa.Kernel) {
	t.Helper()
	text := Disassemble(k)
	k2, err := Assemble(text)
	if err != nil {
		t.Fatalf("reassembly failed: %v\n%s", err, text)
	}
	if len(k2.Code) < len(k.Code) {
		t.Fatalf("code shrank: %d -> %d", len(k.Code), len(k2.Code))
	}
	for i := range k.Code {
		if k.Code[i] != k2.Code[i] {
			t.Fatalf("instruction %d differs:\n  orig: %+v\n  back: %+v\nsource:\n%s",
				i, k.Code[i], k2.Code[i], text)
		}
	}
	if k2.SMemBytes != k.SMemBytes {
		t.Fatalf("smem %d -> %d", k.SMemBytes, k2.SMemBytes)
	}
	if k2.NumRegs < k.NumRegs {
		t.Fatalf("regs shrank: %d -> %d", k.NumRegs, k2.NumRegs)
	}
}

// Property: random straight-line programs survive the
// disassemble-assemble round trip instruction for instruction.
func TestRoundTripRandomProperty(t *testing.T) {
	ops2 := []isa.Opcode{isa.OpIAdd, isa.OpISub, isa.OpIMul, isa.OpIMin, isa.OpIMax,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpFAdd, isa.OpFMul}
	ops3 := []isa.Opcode{isa.OpIMad, isa.OpFFma}
	ops1 := []isa.Opcode{isa.OpFRcp, isa.OpFSqrt, isa.OpFSin, isa.OpFExp}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := isa.NewBuilder("fuzz")
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			d := isa.Reg(rng.Intn(32))
			a := isa.Reg(rng.Intn(32))
			c := isa.Reg(rng.Intn(32))
			switch rng.Intn(8) {
			case 0:
				b.Emit(isa.Instr{Op: ops1[rng.Intn(len(ops1))], Dst: d, SrcA: a})
			case 1:
				b.Emit(isa.Instr{Op: ops3[rng.Intn(len(ops3))], Dst: d, SrcA: a,
					SrcB: isa.Reg(rng.Intn(32)), SrcC: c})
			case 2:
				b.MovImm(d, rng.Uint32())
			case 3:
				b.LdG(d, a, int32(rng.Intn(256)*4))
			case 4:
				b.StS(a, int32(rng.Intn(64)*4), c)
			case 5:
				b.Setp(d, isa.CmpKind(rng.Intn(8)), a, c)
			case 6:
				b.SetpImm(d, isa.CmpKind(rng.Intn(6)), a, int32(rng.Intn(1000)-500))
			default:
				op := ops2[rng.Intn(len(ops2))]
				if rng.Intn(2) == 0 {
					b.Emit(isa.Instr{Op: op, Dst: d, SrcA: a, Imm: rng.Uint32() % 1000, UseImm: true})
				} else {
					b.Emit(isa.Instr{Op: op, Dst: d, SrcA: a, SrcB: c})
				}
			}
		}
		b.Exit()
		k, err := b.Build()
		if err != nil {
			return false
		}
		k2, err := Assemble(Disassemble(k))
		if err != nil {
			return false
		}
		if len(k2.Code) != len(k.Code) {
			return false
		}
		for i := range k.Code {
			if k.Code[i] != k2.Code[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleAtomic(t *testing.T) {
	src := `
.kernel atomics
  ldparam r0, p0
  mov r1, #1
  atom.add r2, [r0+8], r1
  atom.add rz, [r0], r1
  exit
`
	k, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if k.Code[2].Op != isa.OpAtomAdd || k.Code[2].Imm != 8 {
		t.Fatalf("atomic parse: %+v", k.Code[2])
	}
	if k.Code[3].Dst != isa.RZ {
		t.Fatalf("rz destination parse: %+v", k.Code[3])
	}
	checkRoundTrip(t, k)
}
