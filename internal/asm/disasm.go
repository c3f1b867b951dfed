package asm

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Disassemble renders a kernel as assembly text that Assemble turns back
// into the same Code, NumRegs and SMemBytes. Each branch target is a
// label L<pc>.
func Disassemble(k *isa.Kernel) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ".kernel %s\n", k.Name)
	if k.SMemBytes > 0 {
		fmt.Fprintf(&sb, ".smem %d\n", k.SMemBytes)
	}
	fmt.Fprintf(&sb, ".regs %d\n\n", k.NumRegs)

	labels := map[int32]bool{}
	for _, in := range k.Code {
		for _, a := range in.Op.Form().Args {
			switch a {
			case isa.ArgTarget:
				labels[in.Target] = true
			case isa.ArgReconv:
				labels[in.Reconv] = true
			}
		}
	}
	for pc, in := range k.Code {
		if labels[int32(pc)] {
			fmt.Fprintf(&sb, "L%d:\n", pc)
		}
		fmt.Fprintf(&sb, "  %s\n", in)
	}
	// A label may name the PC past the last instruction (a reconvergence
	// point after the final exit).
	if labels[int32(len(k.Code))] {
		fmt.Fprintf(&sb, "L%d:\n", len(k.Code))
	}
	return sb.String()
}
