package warp

import (
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/simt"
)

// Row kernels: the lane loops of Execute over whole register rows. A
// register's row is the W consecutive words Regs[r*W : r*W+W]; RZ reads as
// the shared zero row and is never a destination. Lane i of every operand
// is index i of its row, so an instruction whose destination aliases a
// source is safe: each lane reads its operands before writing its result.
//
// Every kernel here must compute, for each active lane, exactly what the
// per-lane reference (evalALU, execSharedLanes, execGlobalLanes) computes,
// and must leave inactive lanes untouched; the lane-kernel equivalence
// property test holds them to it. One case is outside anyone's control:
// when two operands of a float op are NaNs with different payloads, the
// host FPU propagates whichever the compiled instruction names first, and
// the compiler may order one expression's operands differently at two
// sites — between a row loop and aluLane as between any two builds.

// densePrefix reports whether the mask is lanes [0, n) for some n — a full
// warp or the partial last warp of a CTA — and returns n.
func densePrefix(active simt.Mask) (n int, ok bool) {
	return bits.Len64(uint64(active)), active&(active+1) == 0
}

// rowNonZero returns the active lanes whose row value is nonzero (the bra
// predicate mask).
func rowNonZero(a []uint32, active simt.Mask) simt.Mask {
	var out simt.Mask
	if n, ok := densePrefix(active); ok {
		for i, v := range a[:n] {
			if v != 0 {
				out |= 1 << uint(i)
			}
		}
		return out
	}
	for m := active; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(uint64(m))
		if a[i] != 0 {
			out |= 1 << uint(i)
		}
	}
	return out
}

// rowAddImm sets d[i] = a[i] + k on the active lanes (address generation
// and iadd-immediate).
func rowAddImm(d, a []uint32, k uint32, active simt.Mask) {
	if n, ok := densePrefix(active); ok {
		d, a = d[:n], a[:n]
		for i := range d {
			d[i] = a[i] + k
		}
		return
	}
	for m := active; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(uint64(m))
		d[i] = a[i] + k
	}
}

// dstRow returns the destination row, nil when the destination is RZ.
func (w *Warp) dstRow(r isa.Reg) []uint32 {
	if r == isa.RZ {
		return nil
	}
	return w.row(r)
}

// execSharedRows is execSharedLanes over rows. Out-of-bounds word indices
// wrap exactly as loadShared/storeShared wrap them; in-bounds ones — all of
// them, in a correct kernel — skip the division.
func execSharedRows(w *Warp, in *isa.Instr, addrs []uint32, active simt.Mask) {
	sm := w.CTA.SMem
	words := uint32(len(sm))
	if in.Op == isa.OpLdShared {
		d := w.dstRow(in.Dst)
		if d == nil {
			return
		}
		for m := active; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(uint64(m))
			idx := addrs[i] >> 2
			switch {
			case idx < words:
				d[i] = sm[idx]
			case words == 0:
				d[i] = 0
			default:
				d[i] = sm[idx%words]
			}
		}
		return
	}
	if words == 0 {
		return
	}
	c := w.row(in.SrcC)
	for m := active; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(uint64(m))
		idx := addrs[i] >> 2
		if idx >= words {
			idx %= words
		}
		sm[idx] = c[i]
	}
}

// execGlobalRows is execGlobalLanes over rows; like it, it computes the
// addresses from SrcA.
func execGlobalRows(w *Warp, in *isa.Instr, gmem *mem.Backing, active simt.Mask) {
	a := w.row(in.SrcA)
	off := in.Imm
	switch in.Op {
	case isa.OpLdGlobal:
		d := w.dstRow(in.Dst)
		if d == nil {
			return
		}
		for m := active; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(uint64(m))
			d[i] = gmem.LoadWord(a[i] + off)
		}
	case isa.OpStGlobal:
		c := w.row(in.SrcC)
		for m := active; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(uint64(m))
			gmem.StoreWord(a[i]+off, c[i])
		}
	case isa.OpAtomAdd:
		c := w.row(in.SrcC)
		d := w.dstRow(in.Dst)
		for m := active; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(uint64(m))
			addr := a[i] + off
			old := gmem.LoadWord(addr)
			gmem.StoreWord(addr, old+c[i])
			if d != nil {
				d[i] = old
			}
		}
	}
}

// execALURows applies a non-memory, non-control instruction to the active
// lanes. A dense lane prefix dispatches on the opcode once and runs a
// range loop per row; a sparse mask walks its set bits and evaluates each
// lane through aluLane, the switch evalALU itself uses.
func execALURows(w *Warp, in *isa.Instr, active simt.Mask) {
	if in.Dst == isa.RZ {
		// No architectural effect. One reference evaluation keeps the
		// diagnostics of malformed instructions (a missing kernel
		// parameter, an unknown opcode or comparison).
		evalALU(w, in, bits.TrailingZeros64(uint64(active)))
		return
	}
	d := w.row(in.Dst)
	n, dense := densePrefix(active)
	if !dense {
		a, c := w.row(in.SrcA), w.row(in.SrcC)
		b := a // unread placeholder when the immediate is the B operand
		if !in.UseImm {
			b = w.row(in.SrcB)
		}
		for m := active; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(uint64(m))
			bv := in.Imm
			if !in.UseImm {
				bv = b[i]
			}
			d[i] = aluLane(w, in, i, a[i], bv, c[i])
		}
		return
	}

	// The opcodes of address and loop arithmetic get a loop per operand
	// form; the rest share execALUDenseB's one loop per opcode.
	d = d[:n]
	switch in.Op {
	case isa.OpMov:
		if in.UseImm {
			rowFill(d, in.Imm)
		} else {
			copy(d, w.row(in.SrcA))
		}
	case isa.OpIAdd:
		if in.UseImm {
			rowAddImm(d, w.row(in.SrcA), in.Imm, active)
		} else {
			a, b := w.row(in.SrcA)[:n], w.row(in.SrcB)[:n]
			for i := range d {
				d[i] = a[i] + b[i]
			}
		}
	case isa.OpISub:
		if in.UseImm {
			rowAddImm(d, w.row(in.SrcA), -in.Imm, active)
		} else {
			a, b := w.row(in.SrcA)[:n], w.row(in.SrcB)[:n]
			for i := range d {
				d[i] = a[i] - b[i]
			}
		}
	case isa.OpIMul:
		a := w.row(in.SrcA)[:n]
		if in.UseImm {
			k := in.Imm
			for i := range d {
				d[i] = a[i] * k
			}
		} else {
			b := w.row(in.SrcB)[:n]
			for i := range d {
				d[i] = a[i] * b[i]
			}
		}
	case isa.OpIMad:
		a, c := w.row(in.SrcA)[:n], w.row(in.SrcC)[:n]
		if in.UseImm {
			k := in.Imm
			for i := range d {
				d[i] = a[i]*k + c[i]
			}
		} else {
			b := w.row(in.SrcB)[:n]
			for i := range d {
				d[i] = a[i]*b[i] + c[i]
			}
		}
	case isa.OpAnd:
		a := w.row(in.SrcA)[:n]
		if in.UseImm {
			k := in.Imm
			for i := range d {
				d[i] = a[i] & k
			}
		} else {
			b := w.row(in.SrcB)[:n]
			for i := range d {
				d[i] = a[i] & b[i]
			}
		}
	case isa.OpShl:
		a := w.row(in.SrcA)[:n]
		if in.UseImm {
			k := in.Imm & 31
			for i := range d {
				d[i] = a[i] << k
			}
		} else {
			b := w.row(in.SrcB)[:n]
			for i := range d {
				d[i] = a[i] << (b[i] & 31)
			}
		}
	case isa.OpShr:
		a := w.row(in.SrcA)[:n]
		if in.UseImm {
			k := in.Imm & 31
			for i := range d {
				d[i] = a[i] >> k
			}
		} else {
			b := w.row(in.SrcB)[:n]
			for i := range d {
				d[i] = a[i] >> (b[i] & 31)
			}
		}
	default:
		execALUDenseB(w, in, d)
	}
}

func rowFill(d []uint32, v uint32) {
	for i := range d {
		d[i] = v
	}
}

// execALUDenseB holds the dense loops of the remaining opcodes. Those that
// read a B operand take it as a row either way — the SrcB register row, or
// the immediate broadcast into a scratch row — so each needs one loop.
func execALUDenseB(w *Warp, in *isa.Instr, d []uint32) {
	n := len(d)
	a := w.row(in.SrcA)[:n]
	switch in.Op {
	case isa.OpNop:
		// preserves the destination
	case isa.OpS2R:
		sr := isa.Special(in.Imm)
		for i := range d {
			d[i] = w.special(sr, i)
		}
	case isa.OpLdParam:
		rowFill(d, aluLane(w, in, 0, 0, 0, 0)) // range-checks the index
	case isa.OpFRcp:
		for i := range d {
			d[i] = fbits(1 / ffrom(a[i]))
		}
	case isa.OpFSqrt:
		for i := range d {
			d[i] = fbits(float32(math.Sqrt(float64(ffrom(a[i])))))
		}
	case isa.OpFSin:
		for i := range d {
			d[i] = fbits(float32(math.Sin(float64(ffrom(a[i])))))
		}
	case isa.OpFExp:
		for i := range d {
			d[i] = fbits(float32(math.Exp2(float64(ffrom(a[i])))))
		}
	default:
		if !in.UseImm {
			rowBinary(w, in, d, a, w.row(in.SrcB)[:n])
			return
		}
		var imm [64]uint32
		if in.Imm != 0 {
			rowFill(imm[:n], in.Imm)
		}
		rowBinary(w, in, d, a, imm[:n])
	}
}

// rowBinary runs the dense loop of an opcode that reads operands A and B
// (and C, for the three-operand ones) as rows of len(d) lanes.
func rowBinary(w *Warp, in *isa.Instr, d, a, b []uint32) {
	n := len(d)
	a, b = a[:n], b[:n]
	switch in.Op {
	case isa.OpSetp:
		rowSetp(d, a, b, in.Cmp())
	case isa.OpIMin:
		for i := range d {
			v := a[i]
			if int32(b[i]) < int32(v) {
				v = b[i]
			}
			d[i] = v
		}
	case isa.OpIMax:
		for i := range d {
			v := a[i]
			if int32(b[i]) > int32(v) {
				v = b[i]
			}
			d[i] = v
		}
	case isa.OpOr:
		for i := range d {
			d[i] = a[i] | b[i]
		}
	case isa.OpXor:
		for i := range d {
			d[i] = a[i] ^ b[i]
		}
	case isa.OpFAdd:
		for i := range d {
			d[i] = fbits(ffrom(a[i]) + ffrom(b[i]))
		}
	case isa.OpFMul:
		for i := range d {
			d[i] = fbits(ffrom(a[i]) * ffrom(b[i]))
		}
	case isa.OpFFma:
		c := w.row(in.SrcC)[:n]
		for i := range d {
			d[i] = fbits(ffrom(a[i])*ffrom(b[i]) + ffrom(c[i]))
		}
	case isa.OpSelp:
		c := w.row(in.SrcC)[:n]
		for i := range d {
			v := b[i]
			if c[i] != 0 {
				v = a[i]
			}
			d[i] = v
		}
	default:
		aluLane(w, in, 0, 0, 0, 0) // panics naming the unhandled opcode
	}
}

// rowSetp writes each lane's 0/1 comparison result. The integer
// comparisons reduce to "less than" and "equal" with the operands swapped
// and/or the result inverted, the float ones to float "less than".
func rowSetp(d, a, b []uint32, kind isa.CmpKind) {
	var inv uint32
	switch kind {
	case isa.CmpIGT, isa.CmpFGT:
		a, b = b, a
	case isa.CmpIGE, isa.CmpINE:
		inv = 1
	case isa.CmpILE:
		a, b, inv = b, a, 1
	}
	a, b = a[:len(d)], b[:len(d)]
	switch kind {
	case isa.CmpILT, isa.CmpIGT, isa.CmpIGE, isa.CmpILE:
		for i := range d {
			var v uint32
			if int32(a[i]) < int32(b[i]) {
				v = 1
			}
			d[i] = v ^ inv
		}
	case isa.CmpIEQ, isa.CmpINE:
		for i := range d {
			var v uint32
			if a[i] == b[i] {
				v = 1
			}
			d[i] = v ^ inv
		}
	case isa.CmpFLT, isa.CmpFGT:
		for i := range d {
			var v uint32
			if ffrom(a[i]) < ffrom(b[i]) {
				v = 1
			}
			d[i] = v
		}
	default:
		compare(kind, 0, 0) // panics naming the unknown comparison
	}
}
