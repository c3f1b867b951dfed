package isa

import (
	"fmt"
)

// Builder assembles a Kernel from a sequence of emit calls. Branch targets
// and reconvergence points are named labels resolved at Build time. The
// builder tracks the highest register index written or read to compute the
// kernel's register footprint.
type Builder struct {
	name   string
	smem   int
	extra  int // extra registers reserved beyond those referenced
	instrs []Instr
	labels map[string]int
	fixups []fixup
	maxReg int
	errs   []error
}

type fixup struct {
	pc     int
	target string // label for Target
	reconv string // label for Reconv, empty if none
}

// NewBuilder returns an empty builder for a kernel with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int), maxReg: -1}
}

// SharedMem declares the kernel's static shared memory footprint in bytes.
func (b *Builder) SharedMem(bytes int) *Builder {
	b.smem = bytes
	return b
}

// ReserveRegs forces the register footprint to be at least n registers per
// thread, modeling compiler spill space or occupancy tuning.
func (b *Builder) ReserveRegs(n int) *Builder {
	if n > b.extra {
		b.extra = n
	}
	return b
}

// Label defines a named position at the current PC.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("isa: duplicate label %q", name))
	}
	b.labels[name] = len(b.instrs)
	return b
}

func (b *Builder) note(r Reg) {
	if r != RZ && int(r) > b.maxReg {
		b.maxReg = int(r)
	}
}

// Emit appends a raw instruction, tracking its register footprint.
func (b *Builder) Emit(in Instr) *Builder {
	if in.Op.HasDst() {
		b.note(in.Dst)
	}
	for _, r := range in.SrcRegs(nil) {
		b.note(r)
	}
	b.instrs = append(b.instrs, in)
	return b
}

// --- convenience emitters ---

// Mov emits Dst = Src.
func (b *Builder) Mov(d, a Reg) *Builder { return b.Emit(Instr{Op: OpMov, Dst: d, SrcA: a}) }

// MovImm emits Dst = imm.
func (b *Builder) MovImm(d Reg, imm uint32) *Builder {
	return b.Emit(Instr{Op: OpMov, Dst: d, Imm: imm, UseImm: true})
}

// S2R emits Dst = special register.
func (b *Builder) S2R(d Reg, sr Special) *Builder {
	return b.Emit(Instr{Op: OpS2R, Dst: d, Imm: uint32(sr)})
}

// LdParam emits Dst = launch parameter idx.
func (b *Builder) LdParam(d Reg, idx int) *Builder {
	return b.Emit(Instr{Op: OpLdParam, Dst: d, Imm: uint32(idx)})
}

// IAdd emits Dst = a + bb.
func (b *Builder) IAdd(d, a, bb Reg) *Builder {
	return b.Emit(Instr{Op: OpIAdd, Dst: d, SrcA: a, SrcB: bb})
}

// IAddImm emits Dst = a + imm.
func (b *Builder) IAddImm(d, a Reg, imm int32) *Builder {
	return b.Emit(Instr{Op: OpIAdd, Dst: d, SrcA: a, Imm: uint32(imm), UseImm: true})
}

// ISub emits Dst = a - bb.
func (b *Builder) ISub(d, a, bb Reg) *Builder {
	return b.Emit(Instr{Op: OpISub, Dst: d, SrcA: a, SrcB: bb})
}

// IMul emits Dst = a * bb.
func (b *Builder) IMul(d, a, bb Reg) *Builder {
	return b.Emit(Instr{Op: OpIMul, Dst: d, SrcA: a, SrcB: bb})
}

// IMulImm emits Dst = a * imm.
func (b *Builder) IMulImm(d, a Reg, imm int32) *Builder {
	return b.Emit(Instr{Op: OpIMul, Dst: d, SrcA: a, Imm: uint32(imm), UseImm: true})
}

// IMin emits Dst = min(a, bb) (signed).
func (b *Builder) IMin(d, a, bb Reg) *Builder {
	return b.Emit(Instr{Op: OpIMin, Dst: d, SrcA: a, SrcB: bb})
}

// IMax emits Dst = max(a, bb) (signed).
func (b *Builder) IMax(d, a, bb Reg) *Builder {
	return b.Emit(Instr{Op: OpIMax, Dst: d, SrcA: a, SrcB: bb})
}

// And emits Dst = a & bb.
func (b *Builder) And(d, a, bb Reg) *Builder {
	return b.Emit(Instr{Op: OpAnd, Dst: d, SrcA: a, SrcB: bb})
}

// AndImm emits Dst = a & imm.
func (b *Builder) AndImm(d, a Reg, imm uint32) *Builder {
	return b.Emit(Instr{Op: OpAnd, Dst: d, SrcA: a, Imm: imm, UseImm: true})
}

// Or emits Dst = a | bb.
func (b *Builder) Or(d, a, bb Reg) *Builder {
	return b.Emit(Instr{Op: OpOr, Dst: d, SrcA: a, SrcB: bb})
}

// Xor emits Dst = a ^ bb.
func (b *Builder) Xor(d, a, bb Reg) *Builder {
	return b.Emit(Instr{Op: OpXor, Dst: d, SrcA: a, SrcB: bb})
}

// ShlImm emits Dst = a << imm.
func (b *Builder) ShlImm(d, a Reg, imm uint32) *Builder {
	return b.Emit(Instr{Op: OpShl, Dst: d, SrcA: a, Imm: imm, UseImm: true})
}

// ShrImm emits Dst = a >> imm (logical).
func (b *Builder) ShrImm(d, a Reg, imm uint32) *Builder {
	return b.Emit(Instr{Op: OpShr, Dst: d, SrcA: a, Imm: imm, UseImm: true})
}

// FAdd emits Dst = a + bb (float).
func (b *Builder) FAdd(d, a, bb Reg) *Builder {
	return b.Emit(Instr{Op: OpFAdd, Dst: d, SrcA: a, SrcB: bb})
}

// FMul emits Dst = a * bb (float).
func (b *Builder) FMul(d, a, bb Reg) *Builder {
	return b.Emit(Instr{Op: OpFMul, Dst: d, SrcA: a, SrcB: bb})
}

// FFma emits Dst = a*bb + c (float).
func (b *Builder) FFma(d, a, bb, c Reg) *Builder {
	return b.Emit(Instr{Op: OpFFma, Dst: d, SrcA: a, SrcB: bb, SrcC: c})
}

// FRcp emits Dst = 1/a on the SFU.
func (b *Builder) FRcp(d, a Reg) *Builder { return b.Emit(Instr{Op: OpFRcp, Dst: d, SrcA: a}) }

// FSin emits Dst = sin(a) on the SFU.
func (b *Builder) FSin(d, a Reg) *Builder { return b.Emit(Instr{Op: OpFSin, Dst: d, SrcA: a}) }

// FExp emits Dst = exp2(a) on the SFU.
func (b *Builder) FExp(d, a Reg) *Builder { return b.Emit(Instr{Op: OpFExp, Dst: d, SrcA: a}) }

// Setp emits Dst = cmp(a, bb) ? 1 : 0.
func (b *Builder) Setp(d Reg, kind CmpKind, a, bb Reg) *Builder {
	return b.Emit(Instr{Op: OpSetp, Dst: d, SrcA: a, SrcB: bb, Imm: uint32(kind)})
}

// SetpImm emits Dst = cmp(a, imm) ? 1 : 0. The immediate replaces SrcB and
// the comparison kind is packed into Target (the execution engine reads it
// from there for immediate compares).
func (b *Builder) SetpImm(d Reg, kind CmpKind, a Reg, imm int32) *Builder {
	return b.Emit(Instr{Op: OpSetp, Dst: d, SrcA: a, Imm: uint32(imm), UseImm: true,
		Target: int32(kind)})
}

// Selp emits Dst = c != 0 ? a : bb.
func (b *Builder) Selp(d, a, bb, c Reg) *Builder {
	return b.Emit(Instr{Op: OpSelp, Dst: d, SrcA: a, SrcB: bb, SrcC: c})
}

// LdG emits Dst = global[addr + off].
func (b *Builder) LdG(d, addr Reg, off int32) *Builder {
	return b.Emit(Instr{Op: OpLdGlobal, Dst: d, SrcA: addr, Imm: uint32(off)})
}

// StG emits global[addr + off] = val.
func (b *Builder) StG(addr Reg, off int32, val Reg) *Builder {
	return b.Emit(Instr{Op: OpStGlobal, SrcA: addr, Imm: uint32(off), SrcC: val})
}

// LdS emits Dst = shared[addr + off].
func (b *Builder) LdS(d, addr Reg, off int32) *Builder {
	return b.Emit(Instr{Op: OpLdShared, Dst: d, SrcA: addr, Imm: uint32(off)})
}

// StS emits shared[addr + off] = val.
func (b *Builder) StS(addr Reg, off int32, val Reg) *Builder {
	return b.Emit(Instr{Op: OpStShared, SrcA: addr, Imm: uint32(off), SrcC: val})
}

// AtomAdd emits Dst = atomicAdd(&global[addr+off], val); pass RZ as d to
// discard the old value.
func (b *Builder) AtomAdd(d, addr Reg, off int32, val Reg) *Builder {
	return b.Emit(Instr{Op: OpAtomAdd, Dst: d, SrcA: addr, Imm: uint32(off), SrcC: val})
}

// Branch emits a control-flow instruction whose Target (and Reconv, when
// reconv is not empty) Build resolves from labels.
func (b *Builder) Branch(in Instr, target, reconv string) *Builder {
	b.fixups = append(b.fixups, fixup{pc: len(b.instrs), target: target, reconv: reconv})
	return b.Emit(in)
}

// Bra emits a divergent branch: lanes with pred != 0 jump to target; all
// lanes reconverge at the reconv label.
func (b *Builder) Bra(pred Reg, target, reconv string) *Builder {
	return b.Branch(Instr{Op: OpBra, SrcA: pred}, target, reconv)
}

// Jmp emits a uniform jump to the label.
func (b *Builder) Jmp(target string) *Builder { return b.Branch(Instr{Op: OpJmp}, target, "") }

// Bar emits a CTA-wide barrier.
func (b *Builder) Bar() *Builder { return b.Emit(Instr{Op: OpBar}) }

// Exit emits a thread exit.
func (b *Builder) Exit() *Builder { return b.Emit(Instr{Op: OpExit}) }

// Nop emits a no-op (consumes an issue slot and ALU latency).
func (b *Builder) Nop() *Builder { return b.Emit(Instr{Op: OpNop}) }

// Build resolves labels and returns the assembled kernel, decoded.
func (b *Builder) Build() (*Kernel, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.instrs) == 0 {
		return nil, fmt.Errorf("isa: kernel %q is empty", b.name)
	}
	code := make([]Instr, len(b.instrs))
	copy(code, b.instrs)
	for _, f := range b.fixups {
		tpc, ok := b.labels[f.target]
		if !ok {
			return nil, fmt.Errorf("isa: kernel %q: undefined label %q", b.name, f.target)
		}
		code[f.pc].Target = int32(tpc)
		if f.reconv != "" {
			rpc, ok := b.labels[f.reconv]
			if !ok {
				return nil, fmt.Errorf("isa: kernel %q: undefined reconvergence label %q",
					b.name, f.reconv)
			}
			code[f.pc].Reconv = int32(rpc)
		}
	}
	if code[len(code)-1].Op != OpExit {
		return nil, fmt.Errorf("isa: kernel %q must end with exit", b.name)
	}
	nregs := b.maxReg + 1
	if b.extra > nregs {
		nregs = b.extra
	}
	if nregs == 0 {
		nregs = 1
	}
	if nregs > MaxRegs {
		return nil, fmt.Errorf("isa: kernel %q uses %d registers, max %d", b.name, nregs, MaxRegs)
	}
	return NewKernel(b.name, code, nregs, b.smem), nil
}

// MustBuild is Build that panics on error; for use in package-level kernel
// constructors where a build failure is a programming bug.
func (b *Builder) MustBuild() *Kernel {
	k, err := b.Build()
	if err != nil {
		panic(err)
	}
	return k
}
