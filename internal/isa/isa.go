// Package isa defines the instruction set of the simulated GPU: a small
// SASS-like RISC ISA with per-thread integer/float ALU operations, special
// function unit (SFU) operations, global and shared load/store, PDOM-style
// divergent branches with explicit reconvergence points, CTA-wide barriers,
// and thread exit. Kernels are assembled with Builder, which resolves
// labels and computes the register footprint.
package isa

import "fmt"

// Reg names a per-thread 32-bit architectural register, R0..R254.
// RZ always reads as zero and discards writes.
type Reg uint8

// RZ is the hardwired zero register.
const RZ Reg = 255

// MaxRegs is the number of addressable registers per thread (excluding RZ).
const MaxRegs = 255

// String renders the register in assembly form.
func (r Reg) String() string {
	if r == RZ {
		return "RZ"
	}
	return fmt.Sprintf("R%d", r)
}

// RegMask is a 256-bit register bitset: the scoreboard representation of
// outstanding writes and, pre-decoded on each instruction, the registers an
// instruction reads and writes. Keeping both sides as masks turns the
// per-issue hazard probe into two ANDs.
type RegMask [4]uint64

// Set adds register r to the mask.
func (m *RegMask) Set(r Reg) { m[r>>6] |= 1 << (r & 63) }

// Clear removes register r from the mask.
func (m *RegMask) Clear(r Reg) { m[r>>6] &^= 1 << (r & 63) }

// Any reports whether the mask is non-empty.
func (m *RegMask) Any() bool { return m[0]|m[1]|m[2]|m[3] != 0 }

// Intersects reports whether the masks share a register.
func (m *RegMask) Intersects(o *RegMask) bool {
	return m[0]&o[0]|m[1]&o[1]|m[2]&o[2]|m[3]&o[3] != 0
}

// Opcode enumerates the instruction operations.
type Opcode uint8

// Instruction opcodes. ALU ops execute on the SP pipeline, transcendental
// ops on the SFU pipeline, and memory ops on the LSU.
const (
	OpNop     Opcode = iota
	OpMov            // Dst = SrcA (or Imm when UseImm)
	OpS2R            // Dst = special register selected by Imm
	OpLdParam        // Dst = kernel launch parameter Imm

	// Integer ALU.
	OpIAdd // Dst = SrcA + SrcB
	OpISub // Dst = SrcA - SrcB
	OpIMul // Dst = SrcA * SrcB
	OpIMad // Dst = SrcA * SrcB + SrcC
	OpIMin // Dst = min(int32(SrcA), int32(SrcB))
	OpIMax // Dst = max(int32(SrcA), int32(SrcB))
	OpAnd  // Dst = SrcA & SrcB
	OpOr   // Dst = SrcA | SrcB
	OpXor  // Dst = SrcA ^ SrcB
	OpShl  // Dst = SrcA << (SrcB & 31)
	OpShr  // Dst = SrcA >> (SrcB & 31), logical

	// Float ALU (IEEE-754 binary32 stored in the 32-bit registers).
	OpFAdd // Dst = SrcA + SrcB
	OpFMul // Dst = SrcA * SrcB
	OpFFma // Dst = SrcA * SrcB + SrcC

	// SFU (transcendental / long-latency compute).
	OpFRcp  // Dst = 1 / SrcA
	OpFSqrt // Dst = sqrt(SrcA)
	OpFSin  // Dst = sin(SrcA)
	OpFExp  // Dst = exp2(SrcA)

	// Comparison: Dst = 1 if cmp(SrcA, SrcB) else 0.
	OpSetp
	// Select: Dst = SrcC != 0 ? SrcA : SrcB.
	OpSelp

	// Memory. Address = SrcA + Imm (byte address). Loads write Dst;
	// stores read SrcC.
	OpLdGlobal
	OpStGlobal
	OpLdShared
	OpStShared
	// OpAtomAdd atomically adds SrcC to the global word at SrcA+Imm and
	// writes the old value to Dst (use RZ to discard it). The final
	// memory contents are order-independent; the returned old value is
	// not, so policy-comparing kernels should discard it.
	OpAtomAdd

	// Control flow.
	OpBra  // divergent branch: lanes with SrcA != 0 jump to Target; Reconv is the PDOM
	OpJmp  // uniform jump to Target
	OpBar  // CTA-wide barrier
	OpExit // thread exit

	opCount
)

var opNames = [...]string{
	OpNop: "nop", OpMov: "mov", OpS2R: "s2r", OpLdParam: "ldparam",
	OpIAdd: "iadd", OpISub: "isub", OpIMul: "imul", OpIMad: "imad",
	OpIMin: "imin", OpIMax: "imax",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpFAdd: "fadd", OpFMul: "fmul", OpFFma: "ffma",
	OpFRcp: "frcp", OpFSqrt: "fsqrt", OpFSin: "fsin", OpFExp: "fexp",
	OpSetp: "setp", OpSelp: "selp",
	OpLdGlobal: "ld.global", OpStGlobal: "st.global",
	OpLdShared: "ld.shared", OpStShared: "st.shared",
	OpAtomAdd: "atom.add",
	OpBra:     "bra", OpJmp: "jmp", OpBar: "bar.sync", OpExit: "exit",
}

// String returns the mnemonic of the opcode.
func (o Opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// UnitClass groups opcodes by the execution unit that serves them.
type UnitClass uint8

// Execution unit classes.
const (
	UnitSP  UnitClass = iota // simple ALU pipeline
	UnitSFU                  // special function unit
	UnitMem                  // load/store unit
	UnitCtl                  // control: branches, barrier, exit (resolved at issue)
)

// Unit returns the execution unit class that serves the opcode.
func (o Opcode) Unit() UnitClass {
	switch o {
	case OpFRcp, OpFSqrt, OpFSin, OpFExp:
		return UnitSFU
	case OpLdGlobal, OpStGlobal, OpLdShared, OpStShared, OpAtomAdd:
		return UnitMem
	case OpBra, OpJmp, OpBar, OpExit:
		return UnitCtl
	default:
		return UnitSP
	}
}

// IsLoad reports whether the opcode reads memory into a register.
func (o Opcode) IsLoad() bool { return o == OpLdGlobal || o == OpLdShared }

// IsStore reports whether the opcode writes memory.
func (o Opcode) IsStore() bool { return o == OpStGlobal || o == OpStShared }

// IsGlobal reports whether the opcode accesses global memory.
func (o Opcode) IsGlobal() bool {
	return o == OpLdGlobal || o == OpStGlobal || o == OpAtomAdd
}

// IsAtomic reports whether the opcode is a read-modify-write.
func (o Opcode) IsAtomic() bool { return o == OpAtomAdd }

// HasDst reports whether the opcode writes a destination register.
func (o Opcode) HasDst() bool {
	switch o {
	case OpNop, OpStGlobal, OpStShared, OpBra, OpJmp, OpBar, OpExit:
		return false
	}
	return true
}

// CmpKind is the comparison selector carried in OpSetp's Imm field.
type CmpKind uint32

// Comparison kinds for OpSetp. The I-prefixed kinds compare as signed
// 32-bit integers; the F-prefixed kinds as binary32 floats.
const (
	CmpILT CmpKind = iota
	CmpILE
	CmpIEQ
	CmpINE
	CmpIGE
	CmpIGT
	CmpFLT
	CmpFGT
)

// Special enumerates the special registers readable with OpS2R.
type Special uint32

// Special register selectors.
const (
	SrTidX Special = iota
	SrTidY
	SrTidZ
	SrCTAIdX
	SrCTAIdY
	SrCTAIdZ
	SrNTidX // blockDim.x
	SrNTidY
	SrNTidZ
	SrNCTAIdX // gridDim.x
	SrNCTAIdY
	SrNCTAIdZ
	SrLaneID
	SrWarpID // warp index within the CTA
)

// Instr is one decoded instruction. Source operand B may be replaced by the
// immediate when UseImm is set. Memory instructions use Imm as a byte
// offset added to SrcA. Branches use Target (and Reconv for OpBra).
type Instr struct {
	Op     Opcode
	Dst    Reg
	SrcA   Reg
	SrcB   Reg
	SrcC   Reg
	Imm    uint32
	UseImm bool
	Target int32 // branch target PC
	Reconv int32 // reconvergence PC for OpBra

	// Pre-decoded issue metadata, filled by Decode when the kernel is
	// built (Builder.Build, NewKernel). The scheduler's per-cycle hazard
	// probe reduces to mask intersections instead of re-deriving the
	// operand list; Launch.Validate refuses a kernel with an undecoded
	// instruction.
	SrcMask  RegMask   // registers read (deduplicated; RZ excluded)
	DstMask  RegMask   // register written (empty when none or RZ)
	HazMask  RegMask   // SrcMask | DstMask: the scoreboard probe set
	SrcList  [3]Reg    // registers read in operand order, duplicates kept
	NSrc     uint8     // live entries of SrcList
	ExecUnit UnitClass // cached Op.Unit()
	Decoded  bool
}

// Decode fills the pre-decoded issue metadata. SrcList preserves operand
// order and duplicates (a register read twice costs two operand-collector
// reads, which the register-file bank model charges for); the masks
// deduplicate, which is harmless for hazard detection.
func (in *Instr) Decode() {
	var buf [3]Reg
	srcs := in.SrcRegs(buf[:0])
	in.NSrc = uint8(copy(in.SrcList[:], srcs))
	in.SrcMask = RegMask{}
	for _, r := range srcs {
		in.SrcMask.Set(r)
	}
	in.DstMask = RegMask{}
	if in.Op.HasDst() && in.Dst != RZ {
		in.DstMask.Set(in.Dst)
	}
	in.HazMask = in.SrcMask
	for i, d := range in.DstMask {
		in.HazMask[i] |= d
	}
	in.ExecUnit = in.Op.Unit()
	in.Decoded = true
}

// SrcRegs appends the source registers the instruction reads to dst and
// returns the result. RZ is never reported (it has no hazards).
func (in *Instr) SrcRegs(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != RZ {
			dst = append(dst, r)
		}
	}
	switch in.Op {
	case OpNop, OpS2R, OpLdParam, OpBar, OpExit, OpJmp:
		// no register sources
	case OpMov:
		if !in.UseImm {
			add(in.SrcA)
		}
	case OpBra:
		add(in.SrcA)
	case OpLdGlobal, OpLdShared:
		add(in.SrcA)
	case OpStGlobal, OpStShared, OpAtomAdd:
		add(in.SrcA)
		add(in.SrcC)
	case OpIMad, OpFFma, OpSelp:
		add(in.SrcA)
		if !in.UseImm {
			add(in.SrcB)
		}
		add(in.SrcC)
	case OpFRcp, OpFSqrt, OpFSin, OpFExp:
		add(in.SrcA)
	default: // two-source ALU
		add(in.SrcA)
		if !in.UseImm {
			add(in.SrcB)
		}
	}
	return dst
}

// String renders the instruction in a readable assembly-like form.
func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpBar, OpExit:
		return in.Op.String()
	case OpJmp:
		return fmt.Sprintf("jmp %d", in.Target)
	case OpBra:
		return fmt.Sprintf("bra %s, %d (reconv %d)", in.SrcA, in.Target, in.Reconv)
	case OpS2R:
		return fmt.Sprintf("s2r %s, sr%d", in.Dst, in.Imm)
	case OpLdParam:
		return fmt.Sprintf("ldparam %s, p%d", in.Dst, in.Imm)
	case OpLdGlobal, OpLdShared:
		return fmt.Sprintf("%s %s, [%s+%d]", in.Op, in.Dst, in.SrcA, in.Imm)
	case OpStGlobal, OpStShared:
		return fmt.Sprintf("%s [%s+%d], %s", in.Op, in.SrcA, in.Imm, in.SrcC)
	case OpAtomAdd:
		return fmt.Sprintf("%s %s, [%s+%d], %s", in.Op, in.Dst, in.SrcA, in.Imm, in.SrcC)
	}
	if in.UseImm {
		return fmt.Sprintf("%s %s, %s, #%d", in.Op, in.Dst, in.SrcA, int32(in.Imm))
	}
	return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.SrcA, in.SrcB)
}

// Dim3 is a CUDA-style three-component extent.
type Dim3 struct{ X, Y, Z int }

// Size returns the total element count of the extent.
func (d Dim3) Size() int { return d.X * d.Y * d.Z }

// String renders the extent as (x,y,z).
func (d Dim3) String() string { return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z) }

// Dim1 returns a one-dimensional extent of n.
func Dim1(n int) Dim3 { return Dim3{X: n, Y: 1, Z: 1} }

// Kernel is an assembled program plus its static resource footprint.
type Kernel struct {
	Name      string
	Code      []Instr
	NumRegs   int // architectural registers per thread
	SMemBytes int // static shared memory per CTA
}

// NewKernel returns the kernel over code with every instruction decoded.
// It takes code over: the kernel is immutable from here on, so any number
// of runs, concurrent ones included, may share it.
func NewKernel(name string, code []Instr, numRegs, smemBytes int) *Kernel {
	for i := range code {
		code[i].Decode()
	}
	return &Kernel{Name: name, Code: code, NumRegs: numRegs, SMemBytes: smemBytes}
}

// Launch binds a kernel to a grid and its runtime parameters.
type Launch struct {
	Kernel   *Kernel
	GridDim  Dim3
	BlockDim Dim3
	Params   []uint32
}

// WarpsPerCTA returns the number of warps a CTA occupies for the given
// warp size, rounding the (possibly partial) last warp up.
func (l Launch) WarpsPerCTA(warpSize int) int {
	return (l.BlockDim.Size() + warpSize - 1) / warpSize
}

// Validate reports structural errors in the launch.
func (l Launch) Validate() error {
	if l.Kernel == nil {
		return fmt.Errorf("isa: launch has no kernel")
	}
	if len(l.Kernel.Code) == 0 {
		return fmt.Errorf("isa: kernel %q has no code", l.Kernel.Name)
	}
	if l.GridDim.Size() <= 0 || l.BlockDim.Size() <= 0 {
		return fmt.Errorf("isa: kernel %q launch dims %v x %v empty",
			l.Kernel.Name, l.GridDim, l.BlockDim)
	}
	if l.BlockDim.Size() > 1024 {
		return fmt.Errorf("isa: kernel %q blockDim %d exceeds 1024",
			l.Kernel.Name, l.BlockDim.Size())
	}
	for pc := range l.Kernel.Code {
		if !l.Kernel.Code[pc].Decoded {
			return fmt.Errorf("isa: kernel %q: instruction %d is not decoded (build kernels with Builder or NewKernel)",
				l.Kernel.Name, pc)
		}
	}
	return nil
}
