package isa

import (
	"fmt"
	"strings"
)

// Arg is one operand slot of an instruction form: the Instr fields it
// occupies and how it reads as text.
type Arg uint8

// Operand slots.
const (
	ArgDst     Arg = iota // rd: Dst
	ArgA                  // ra: SrcA
	ArgAImm               // ra or #imm: SrcA, or Imm when UseImm
	ArgBImm               // rb or #imm: SrcB, or Imm when UseImm
	ArgC                  // rc: SrcC
	ArgMem                // [ra], [ra+off], [ra-off]: SrcA and Imm
	ArgSpecial            // %tid.x …: Imm holds the Special
	ArgParam              // pN: Imm holds N
	ArgTarget             // label: Target
	ArgReconv             // label: Reconv
)

// Form is an opcode's one declaration: its mnemonic, the unit that
// serves it, and its operands in text order. Decode, the assembler and
// the listing all read it. The source registers' text order is the order
// the operand collector reads them (SrcList), which the register-file
// bank model charges for.
type Form struct {
	Name string
	Unit UnitClass
	Cmp  bool // the mnemonic takes a comparison suffix, setp.KIND
	Args []Arg
}

// forms is the instruction set. A new instruction is one row here and
// its semantics in package warp.
var forms = [opCount]Form{
	OpNop:     {Name: "nop"},
	OpMov:     {Name: "mov", Args: []Arg{ArgDst, ArgAImm}},
	OpS2R:     {Name: "s2r", Args: []Arg{ArgDst, ArgSpecial}},
	OpLdParam: {Name: "ldparam", Args: []Arg{ArgDst, ArgParam}},

	OpIAdd: {Name: "iadd", Args: []Arg{ArgDst, ArgA, ArgBImm}},
	OpISub: {Name: "isub", Args: []Arg{ArgDst, ArgA, ArgBImm}},
	OpIMul: {Name: "imul", Args: []Arg{ArgDst, ArgA, ArgBImm}},
	OpIMad: {Name: "imad", Args: []Arg{ArgDst, ArgA, ArgBImm, ArgC}},
	OpIMin: {Name: "imin", Args: []Arg{ArgDst, ArgA, ArgBImm}},
	OpIMax: {Name: "imax", Args: []Arg{ArgDst, ArgA, ArgBImm}},
	OpAnd:  {Name: "and", Args: []Arg{ArgDst, ArgA, ArgBImm}},
	OpOr:   {Name: "or", Args: []Arg{ArgDst, ArgA, ArgBImm}},
	OpXor:  {Name: "xor", Args: []Arg{ArgDst, ArgA, ArgBImm}},
	OpShl:  {Name: "shl", Args: []Arg{ArgDst, ArgA, ArgBImm}},
	OpShr:  {Name: "shr", Args: []Arg{ArgDst, ArgA, ArgBImm}},

	OpFAdd: {Name: "fadd", Args: []Arg{ArgDst, ArgA, ArgBImm}},
	OpFMul: {Name: "fmul", Args: []Arg{ArgDst, ArgA, ArgBImm}},
	OpFFma: {Name: "ffma", Args: []Arg{ArgDst, ArgA, ArgBImm, ArgC}},

	OpFRcp:  {Name: "frcp", Unit: UnitSFU, Args: []Arg{ArgDst, ArgA}},
	OpFSqrt: {Name: "fsqrt", Unit: UnitSFU, Args: []Arg{ArgDst, ArgA}},
	OpFSin:  {Name: "fsin", Unit: UnitSFU, Args: []Arg{ArgDst, ArgA}},
	OpFExp:  {Name: "fexp", Unit: UnitSFU, Args: []Arg{ArgDst, ArgA}},

	OpSetp: {Name: "setp", Cmp: true, Args: []Arg{ArgDst, ArgA, ArgBImm}},
	OpSelp: {Name: "selp", Args: []Arg{ArgDst, ArgA, ArgBImm, ArgC}},

	OpLdGlobal: {Name: "ld.global", Unit: UnitMem, Args: []Arg{ArgDst, ArgMem}},
	OpStGlobal: {Name: "st.global", Unit: UnitMem, Args: []Arg{ArgMem, ArgC}},
	OpLdShared: {Name: "ld.shared", Unit: UnitMem, Args: []Arg{ArgDst, ArgMem}},
	OpStShared: {Name: "st.shared", Unit: UnitMem, Args: []Arg{ArgMem, ArgC}},
	OpAtomAdd:  {Name: "atom.add", Unit: UnitMem, Args: []Arg{ArgDst, ArgMem, ArgC}},

	OpBra:  {Name: "bra", Unit: UnitCtl, Args: []Arg{ArgA, ArgTarget, ArgReconv}},
	OpJmp:  {Name: "jmp", Unit: UnitCtl, Args: []Arg{ArgTarget}},
	OpBar:  {Name: "bar", Unit: UnitCtl},
	OpExit: {Name: "exit", Unit: UnitCtl},
}

// Form returns the opcode's declaration; an undefined opcode's is empty.
func (o Opcode) Form() Form {
	if o < opCount {
		return forms[o]
	}
	return Form{}
}

// Lookup returns the opcode whose mnemonic is name.
func Lookup(name string) (Opcode, bool) {
	for o := range forms {
		if forms[o].Name == name {
			return Opcode(o), true
		}
	}
	return 0, false
}

// String returns the mnemonic of the opcode.
func (o Opcode) String() string {
	if f := o.Form(); f.Name != "" {
		return f.Name
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Unit returns the execution unit class that serves the opcode.
func (o Opcode) Unit() UnitClass { return o.Form().Unit }

// HasDst reports whether the opcode writes a destination register.
func (o Opcode) HasDst() bool {
	args := o.Form().Args
	return len(args) > 0 && args[0] == ArgDst
}

var cmpNames = [...]string{
	CmpILT: "lt", CmpILE: "le", CmpIEQ: "eq", CmpINE: "ne",
	CmpIGE: "ge", CmpIGT: "gt", CmpFLT: "flt", CmpFGT: "fgt",
}

// String returns the comparison's setp suffix.
func (k CmpKind) String() string {
	if int(k) < len(cmpNames) {
		return cmpNames[k]
	}
	return fmt.Sprintf("cmp%d", uint32(k))
}

// ParseCmp returns the comparison whose setp suffix is s.
func ParseCmp(s string) (CmpKind, bool) {
	i := indexOf(cmpNames[:], s)
	return CmpKind(i), i >= 0
}

var specialNames = [...]string{
	SrTidX: "%tid.x", SrTidY: "%tid.y", SrTidZ: "%tid.z",
	SrCTAIdX: "%ctaid.x", SrCTAIdY: "%ctaid.y", SrCTAIdZ: "%ctaid.z",
	SrNTidX: "%ntid.x", SrNTidY: "%ntid.y", SrNTidZ: "%ntid.z",
	SrNCTAIdX: "%nctaid.x", SrNCTAIdY: "%nctaid.y", SrNCTAIdZ: "%nctaid.z",
	SrLaneID: "%laneid", SrWarpID: "%warpid",
}

// String returns the special register's assembly name.
func (s Special) String() string {
	if int(s) < len(specialNames) {
		return specialNames[s]
	}
	return fmt.Sprintf("%%sr%d", uint32(s))
}

// ParseSpecial returns the special register whose assembly name is s.
func ParseSpecial(s string) (Special, bool) {
	i := indexOf(specialNames[:], s)
	return Special(i), i >= 0
}

func indexOf(names []string, s string) int {
	for i, n := range names {
		if n == s {
			return i
		}
	}
	return -1
}

// Cmp returns the comparison of a setp instruction, wherever its form
// keeps it.
func (in *Instr) Cmp() CmpKind {
	if in.UseImm {
		return CmpKind(in.Target)
	}
	return CmpKind(in.Imm)
}

// SrcRegs appends the source registers the instruction reads to dst, in
// its form's operand order, and returns the result. RZ is never reported
// (it has no hazards).
func (in *Instr) SrcRegs(dst []Reg) []Reg {
	for _, a := range in.Op.Form().Args {
		r := RZ
		switch a {
		case ArgA, ArgMem:
			r = in.SrcA
		case ArgAImm:
			if !in.UseImm {
				r = in.SrcA
			}
		case ArgBImm:
			if !in.UseImm {
				r = in.SrcB
			}
		case ArgC:
			r = in.SrcC
		}
		if r != RZ {
			dst = append(dst, r)
		}
	}
	return dst
}

// String renders the instruction as one line of assembly text, which the
// assembler reads back; branch targets print as L<pc>.
func (in Instr) String() string {
	f := in.Op.Form()
	var sb strings.Builder
	sb.WriteString(in.Op.String())
	if f.Cmp {
		sb.WriteString("." + in.Cmp().String())
	}
	regOrImm := func(r Reg) string {
		if in.UseImm {
			return fmt.Sprintf("#%d", int32(in.Imm))
		}
		return r.String()
	}
	for i, a := range f.Args {
		if i == 0 {
			sb.WriteByte(' ')
		} else {
			sb.WriteString(", ")
		}
		switch a {
		case ArgDst:
			sb.WriteString(in.Dst.String())
		case ArgA:
			sb.WriteString(in.SrcA.String())
		case ArgAImm:
			sb.WriteString(regOrImm(in.SrcA))
		case ArgBImm:
			sb.WriteString(regOrImm(in.SrcB))
		case ArgC:
			sb.WriteString(in.SrcC.String())
		case ArgMem:
			if off := int32(in.Imm); off != 0 {
				fmt.Fprintf(&sb, "[%s%+d]", in.SrcA, off)
			} else {
				fmt.Fprintf(&sb, "[%s]", in.SrcA)
			}
		case ArgSpecial:
			sb.WriteString(Special(in.Imm).String())
		case ArgParam:
			fmt.Fprintf(&sb, "p%d", in.Imm)
		case ArgTarget:
			fmt.Fprintf(&sb, "L%d", in.Target)
		case ArgReconv:
			fmt.Fprintf(&sb, "L%d", in.Reconv)
		}
	}
	return sb.String()
}
