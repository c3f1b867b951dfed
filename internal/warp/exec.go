package warp

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/simt"
)

// ExecInfo reports what a functionally executed instruction did, for the
// timing model to act on.
type ExecInfo struct {
	Active simt.Mask // lanes that executed the instruction
	Lanes  int       // Active.Count(), precomputed
	IsExit bool      // warp hit exit (Finished may now be set)
	IsBar  bool      // warp arrived at a barrier
	MemOp  bool      // instruction was a load/store
	Addrs  []uint32  // per-lane byte addresses for memory ops (scratch-backed)
}

// Execute runs instruction in for the warp's active lanes — the SIMT
// stack's current live mask, which the caller already holds — updating
// register values, the SIMT stack, and functional memory
// (execute-at-issue semantics; timing is the caller's concern). addrBuf
// must have capacity for one address per lane and is reused in the
// returned ExecInfo. The caller is responsible for scoreboard and barrier
// bookkeeping.
//
// Lane work runs as row kernels (rows.go): each operand is the warp-wide
// row of its register, a mask that is a dense lane prefix (a full warp, or
// the partial last warp of a CTA) runs bounds-check-free range loops, and
// a sparse mask walks its set bits over the same rows.
func Execute(w *Warp, in *isa.Instr, active simt.Mask, gmem *mem.Backing, addrBuf []uint32) ExecInfo {
	return execute(w, in, active, gmem, addrBuf, false)
}

// ExecuteRef is Execute with every lane loop run per lane through Reg,
// SetReg and evalALU: the semantic reference the row kernels are tested
// against, selected by gpu.Options.DisableIssueFastPath.
func ExecuteRef(w *Warp, in *isa.Instr, active simt.Mask, gmem *mem.Backing, addrBuf []uint32) ExecInfo {
	return execute(w, in, active, gmem, addrBuf, true)
}

func execute(w *Warp, in *isa.Instr, active simt.Mask, gmem *mem.Backing, addrBuf []uint32, ref bool) ExecInfo {
	info := ExecInfo{Active: active, Lanes: active.Count()}

	switch in.Op {
	case isa.OpBra:
		var taken simt.Mask
		if ref {
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(uint64(m))
				if w.Reg(in.SrcA, lane) != 0 {
					taken |= 1 << uint(lane)
				}
			}
		} else {
			taken = rowNonZero(w.row(in.SrcA), active)
		}
		w.Stack.Branch(taken, in.Target, in.Reconv)
		return info
	case isa.OpJmp:
		w.Stack.Jump(in.Target)
		return info
	case isa.OpExit:
		w.Stack.Exit(active)
		info.IsExit = true
		if w.Stack.Finished() {
			w.Finished = true
		}
		return info
	case isa.OpBar:
		w.Stack.Advance()
		info.IsBar = true
		return info
	}

	if in.ExecUnit == isa.UnitMem {
		info.MemOp = true
		info.Addrs = addrBuf[:w.warpW]
		if ref {
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(uint64(m))
				info.Addrs[lane] = w.Reg(in.SrcA, lane) + in.Imm
			}
		} else {
			rowAddImm(info.Addrs, w.row(in.SrcA), in.Imm, active)
		}
		switch {
		case !in.Op.IsGlobal():
			if ref {
				execSharedLanes(w, in, info.Addrs, active)
			} else {
				execSharedRows(w, in, info.Addrs, active)
			}
		case ref:
			execGlobalLanes(w, in, gmem, active)
		default:
			execGlobalRows(w, in, gmem, active)
		}
		w.Stack.Advance()
		return info
	}

	if ref {
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(uint64(m))
			w.SetReg(in.Dst, lane, evalALU(w, in, lane))
		}
	} else {
		execALURows(w, in, active)
	}
	w.Stack.Advance()
	return info
}

// execSharedLanes is the per-lane reference of a shared-memory load/store.
func execSharedLanes(w *Warp, in *isa.Instr, addrs []uint32, active simt.Mask) {
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(uint64(m))
		if in.Op == isa.OpLdShared {
			w.SetReg(in.Dst, lane, w.loadShared(addrs[lane]))
		} else {
			w.storeShared(addrs[lane], w.Reg(in.SrcC, lane))
		}
	}
}

// execGlobalLanes is the per-lane reference of a global load/store/atomic.
func execGlobalLanes(w *Warp, in *isa.Instr, gmem *mem.Backing, active simt.Mask) {
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(uint64(m))
		addr := w.Reg(in.SrcA, lane) + in.Imm
		switch in.Op {
		case isa.OpLdGlobal:
			w.SetReg(in.Dst, lane, gmem.LoadWord(addr))
		case isa.OpStGlobal:
			gmem.StoreWord(addr, w.Reg(in.SrcC, lane))
		case isa.OpAtomAdd:
			old := gmem.LoadWord(addr)
			gmem.StoreWord(addr, old+w.Reg(in.SrcC, lane))
			w.SetReg(in.Dst, lane, old)
		}
	}
}

// loadShared reads a word from the CTA's shared memory; out-of-bounds
// offsets wrap, modeling the hardware's address truncation without
// crashing the simulation.
func (w *Warp) loadShared(addr uint32) uint32 {
	sm := w.CTA.SMem
	if len(sm) == 0 {
		return 0
	}
	return sm[(addr>>2)%uint32(len(sm))]
}

func (w *Warp) storeShared(addr, v uint32) {
	sm := w.CTA.SMem
	if len(sm) == 0 {
		return
	}
	sm[(addr>>2)%uint32(len(sm))] = v
}

// evalALU computes the result of a non-memory, non-control instruction for
// one lane: the per-lane semantic reference.
func evalALU(w *Warp, in *isa.Instr, lane int) uint32 {
	b := in.Imm
	if !in.UseImm {
		b = w.Reg(in.SrcB, lane)
	}
	return aluLane(w, in, lane, w.Reg(in.SrcA, lane), b, w.Reg(in.SrcC, lane))
}

// aluLane is evalALU over already-fetched operand values (b is the
// immediate when the instruction uses one).
func aluLane(w *Warp, in *isa.Instr, lane int, a, b, c uint32) uint32 {
	switch in.Op {
	case isa.OpNop:
		return w.Reg(in.Dst, lane) // no-op preserves the destination
	case isa.OpMov:
		if in.UseImm {
			return in.Imm
		}
		return a
	case isa.OpS2R:
		return w.special(isa.Special(in.Imm), lane)
	case isa.OpLdParam:
		p := w.CTA.Launch.Params
		i := int(in.Imm)
		if i >= len(p) {
			panic(fmt.Sprintf("warp: kernel %q reads missing param %d",
				w.CTA.Launch.Kernel.Name, i))
		}
		return p[i]
	case isa.OpIAdd:
		return a + b
	case isa.OpISub:
		return a - b
	case isa.OpIMul:
		return a * b
	case isa.OpIMad:
		return a*b + c
	case isa.OpIMin:
		if int32(a) < int32(b) {
			return a
		}
		return b
	case isa.OpIMax:
		if int32(a) > int32(b) {
			return a
		}
		return b
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpShl:
		return a << (b & 31)
	case isa.OpShr:
		return a >> (b & 31)
	case isa.OpFAdd:
		return fbits(ffrom(a) + ffrom(b))
	case isa.OpFMul:
		return fbits(ffrom(a) * ffrom(b))
	case isa.OpFFma:
		return fbits(ffrom(a)*ffrom(b) + ffrom(c))
	case isa.OpFRcp:
		return fbits(1 / ffrom(a))
	case isa.OpFSqrt:
		return fbits(float32(math.Sqrt(float64(ffrom(a)))))
	case isa.OpFSin:
		return fbits(float32(math.Sin(float64(ffrom(a)))))
	case isa.OpFExp:
		return fbits(float32(math.Exp2(float64(ffrom(a)))))
	case isa.OpSetp:
		if compare(in.Cmp(), a, b) {
			return 1
		}
		return 0
	case isa.OpSelp:
		if c != 0 {
			return a
		}
		return b
	default:
		panic(fmt.Sprintf("warp: unhandled opcode %v", in.Op))
	}
}

func compare(kind isa.CmpKind, a, b uint32) bool {
	switch kind {
	case isa.CmpILT:
		return int32(a) < int32(b)
	case isa.CmpILE:
		return int32(a) <= int32(b)
	case isa.CmpIEQ:
		return a == b
	case isa.CmpINE:
		return a != b
	case isa.CmpIGE:
		return int32(a) >= int32(b)
	case isa.CmpIGT:
		return int32(a) > int32(b)
	case isa.CmpFLT:
		return ffrom(a) < ffrom(b)
	case isa.CmpFGT:
		return ffrom(a) > ffrom(b)
	default:
		panic(fmt.Sprintf("warp: unhandled comparison %d", kind))
	}
}

// special evaluates an S2R read for one lane.
func (w *Warp) special(sr isa.Special, lane int) uint32 {
	l := w.CTA.Launch
	tid := w.GlobalTid(lane)
	bd := l.BlockDim
	switch sr {
	case isa.SrTidX:
		return uint32(tid % bd.X)
	case isa.SrTidY:
		return uint32((tid / bd.X) % bd.Y)
	case isa.SrTidZ:
		return uint32(tid / (bd.X * bd.Y))
	case isa.SrCTAIdX:
		return uint32(w.CTA.ID.X)
	case isa.SrCTAIdY:
		return uint32(w.CTA.ID.Y)
	case isa.SrCTAIdZ:
		return uint32(w.CTA.ID.Z)
	case isa.SrNTidX:
		return uint32(bd.X)
	case isa.SrNTidY:
		return uint32(bd.Y)
	case isa.SrNTidZ:
		return uint32(bd.Z)
	case isa.SrNCTAIdX:
		return uint32(l.GridDim.X)
	case isa.SrNCTAIdY:
		return uint32(l.GridDim.Y)
	case isa.SrNCTAIdZ:
		return uint32(l.GridDim.Z)
	case isa.SrLaneID:
		return uint32(lane)
	case isa.SrWarpID:
		return uint32(w.IdxInCTA)
	default:
		panic(fmt.Sprintf("warp: unhandled special register %d", sr))
	}
}

func ffrom(v uint32) float32 { return math.Float32frombits(v) }
func fbits(f float32) uint32 { return math.Float32bits(f) }
