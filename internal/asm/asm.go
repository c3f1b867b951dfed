// Package asm provides a textual assembly front end for the simulator ISA,
// so kernels can be written as .vta files instead of Go builder calls, and
// a disassembler that renders compiled kernels back to parseable text.
// Both walk the opcode's isa.Form: the operands an instruction has are
// declared there and nowhere else.
//
// Syntax (one instruction per line, ';' starts a comment):
//
//	.kernel vecadd          ; kernel name
//	.smem 1024              ; static shared memory bytes (optional)
//	.regs 16                ; reserve registers (optional)
//
//	start:
//	  s2r       r0, %tid.x
//	  ldparam   r1, p0
//	  mov       r2, #8
//	  iadd      r3, r0, r2
//	  imad      r3, r3, #4, r1
//	  ld.global r4, [r3+16]
//	  setp.lt   r5, r0, #32
//	  bra       r5, start, done
//	done:
//	  bar
//	  st.shared [r1], r4
//	  exit
//
// Immediates are decimal, 0x-hex, or single-precision floats written with
// a trailing 'f' (#1.5f stores the IEEE-754 bits).
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Assemble parses the source and returns the built kernel.
func Assemble(src string) (*isa.Kernel, error) {
	a := &assembler{labels: map[string]bool{}}
	for i, raw := range strings.Split(src, "\n") {
		a.lineNo = i + 1
		if err := a.line(raw); err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", a.lineNo, err)
		}
	}
	if a.b == nil {
		return nil, fmt.Errorf("asm: missing .kernel directive")
	}
	for _, u := range a.uses {
		if !a.labels[u.label] {
			return nil, fmt.Errorf("asm: line %d: undefined label %q", u.line, u.label)
		}
	}
	k, err := a.b.Build()
	if err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return k, nil
}

type assembler struct {
	b      *isa.Builder
	lineNo int
	labels map[string]bool // defined so far
	uses   []labelUse
}

// labelUse is a branch operand naming a label, and its line.
type labelUse struct {
	label string
	line  int
}

func (a *assembler) line(raw string) error {
	if i := strings.IndexByte(raw, ';'); i >= 0 {
		raw = raw[:i]
	}
	line := strings.TrimSpace(raw)
	if line == "" {
		return nil
	}

	if strings.HasPrefix(line, ".") {
		return a.directive(line)
	}
	if a.b == nil {
		return fmt.Errorf("instruction before .kernel directive")
	}
	if strings.HasSuffix(line, ":") {
		name := strings.TrimSuffix(line, ":")
		if err := checkLabel(name); err != nil {
			return err
		}
		a.b.Label(name)
		a.labels[name] = true
		return nil
	}
	return a.instruction(line)
}

func (a *assembler) directive(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".kernel":
		if len(fields) != 2 {
			return fmt.Errorf(".kernel needs a name")
		}
		if a.b != nil {
			return fmt.Errorf("duplicate .kernel directive")
		}
		a.b = isa.NewBuilder(fields[1])
		return nil
	case ".smem":
		if a.b == nil {
			return fmt.Errorf(".smem before .kernel")
		}
		n, err := strconv.Atoi(fieldArg(fields))
		if err != nil || n < 0 {
			return fmt.Errorf(".smem needs a non-negative integer")
		}
		a.b.SharedMem(n)
		return nil
	case ".regs":
		if a.b == nil {
			return fmt.Errorf(".regs before .kernel")
		}
		n, err := strconv.Atoi(fieldArg(fields))
		if err != nil || n <= 0 {
			return fmt.Errorf(".regs needs a positive integer")
		}
		a.b.ReserveRegs(n)
		return nil
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

func fieldArg(fields []string) string {
	if len(fields) < 2 {
		return ""
	}
	return fields[1]
}

// operand splitting: "iadd r1, r2, #4" -> op "iadd", args [r1 r2 #4].
func splitOperands(line string) (string, []string) {
	sp := strings.IndexAny(line, " \t")
	if sp < 0 {
		return line, nil
	}
	op := line[:sp]
	rest := strings.TrimSpace(line[sp:])
	if rest == "" {
		return op, nil
	}
	parts := strings.Split(rest, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return op, parts
}

// mnemonic resolves a form's name, or a comparing form's name with its
// .KIND suffix.
func mnemonic(mn string) (isa.Opcode, isa.CmpKind, error) {
	if op, ok := isa.Lookup(mn); ok && !op.Form().Cmp {
		return op, 0, nil
	}
	name, suffix, _ := strings.Cut(mn, ".")
	op, ok := isa.Lookup(name)
	if !ok || !op.Form().Cmp {
		return 0, 0, fmt.Errorf("unknown instruction %q", mn)
	}
	cmp, ok := isa.ParseCmp(suffix)
	if !ok {
		return 0, 0, fmt.Errorf("unknown comparison %q", mn)
	}
	return op, cmp, nil
}

// instruction parses one instruction by walking its opcode's form.
func (a *assembler) instruction(line string) error {
	mn, args := splitOperands(line)
	op, cmp, err := mnemonic(mn)
	if err != nil {
		return err
	}
	f := op.Form()
	if len(args) != len(f.Args) {
		return fmt.Errorf("%s needs %d operands, got %d", mn, len(f.Args), len(args))
	}
	in := isa.Instr{Op: op}
	var target, reconv string
	for i, arg := range f.Args {
		s := args[i]
		var err error
		switch arg {
		case isa.ArgDst:
			in.Dst, err = parseReg(s)
		case isa.ArgA:
			in.SrcA, err = parseReg(s)
		case isa.ArgAImm:
			in.SrcA, err = regOrImm(&in, s)
		case isa.ArgBImm:
			in.SrcB, err = regOrImm(&in, s)
		case isa.ArgC:
			in.SrcC, err = parseReg(s)
		case isa.ArgMem:
			var off int32
			in.SrcA, off, err = parseMem(s)
			in.Imm = uint32(off)
		case isa.ArgSpecial:
			sr, ok := isa.ParseSpecial(s)
			if !ok {
				err = fmt.Errorf("unknown special register %q", s)
			}
			in.Imm = uint32(sr)
		case isa.ArgParam:
			in.Imm, err = parseParam(s)
		case isa.ArgTarget:
			target, err = a.use(s)
		case isa.ArgReconv:
			reconv, err = a.use(s)
		}
		if err != nil {
			return err
		}
	}
	if f.Cmp {
		if in.UseImm {
			in.Target = int32(cmp)
		} else {
			in.Imm = uint32(cmp)
		}
	}
	if target != "" {
		a.b.Branch(in, target, reconv)
	} else {
		a.b.Emit(in)
	}
	return nil
}

// use records a reference to a label on the current line.
func (a *assembler) use(label string) (string, error) {
	a.uses = append(a.uses, labelUse{label, a.lineNo})
	return label, checkLabel(label)
}

func checkLabel(name string) error {
	if name == "" || strings.ContainsAny(name, " \t") {
		return fmt.Errorf("bad label %q", name)
	}
	return nil
}

// regOrImm parses a register or an #immediate, which goes to in's Imm.
func regOrImm(in *isa.Instr, s string) (isa.Reg, error) {
	imm, ok, err := parseImm(s)
	if err != nil {
		return 0, err
	}
	if !ok {
		return parseReg(s)
	}
	in.Imm, in.UseImm = imm, true
	return 0, nil
}

// parseParam parses a launch parameter operand "pN".
func parseParam(s string) (uint32, error) {
	if !strings.HasPrefix(s, "p") {
		return 0, fmt.Errorf("expected a pN parameter, got %q", s)
	}
	n, err := strconv.ParseUint(s[1:], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad parameter index %q", s)
	}
	return uint32(n), nil
}

func parseReg(s string) (isa.Reg, error) {
	low := strings.ToLower(s)
	if low == "rz" {
		return isa.RZ, nil
	}
	if !strings.HasPrefix(low, "r") {
		return 0, fmt.Errorf("expected register, got %q", s)
	}
	n, err := strconv.Atoi(low[1:])
	if err != nil || n < 0 || n >= isa.MaxRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
}

// parseImm parses "#value"; ok=false when s is not an immediate.
func parseImm(s string) (imm uint32, ok bool, err error) {
	if !strings.HasPrefix(s, "#") {
		return 0, false, nil
	}
	body := s[1:]
	if strings.HasSuffix(body, "f") {
		f, ferr := strconv.ParseFloat(strings.TrimSuffix(body, "f"), 32)
		if ferr != nil {
			return 0, false, fmt.Errorf("bad float immediate %q", s)
		}
		return math.Float32bits(float32(f)), true, nil
	}
	v, verr := strconv.ParseInt(body, 0, 64)
	if verr != nil || v > math.MaxUint32 || v < math.MinInt32 {
		return 0, false, fmt.Errorf("bad immediate %q", s)
	}
	return uint32(v), true, nil
}

// parseMem parses "[rN]", "[rN+off]" or "[rN-off]".
func parseMem(s string) (isa.Reg, int32, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("expected [reg+offset], got %q", s)
	}
	body := s[1 : len(s)-1]
	sep := strings.IndexAny(body, "+-")
	if sep < 0 {
		r, err := parseReg(strings.TrimSpace(body))
		return r, 0, err
	}
	r, err := parseReg(strings.TrimSpace(body[:sep]))
	if err != nil {
		return 0, 0, err
	}
	off, oerr := strconv.ParseInt(strings.TrimSpace(body[sep:]), 0, 32)
	if oerr != nil {
		return 0, 0, fmt.Errorf("bad offset in %q", s)
	}
	return r, int32(off), nil
}
