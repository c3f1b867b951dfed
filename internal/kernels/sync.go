package kernels

import (
	"math"

	"repro/internal/isa"
)

// Backprop models a neural-network layer forward pass: per-thread
// multiply, shared-memory exchange across the CTA, and an SFU activation.
func Backprop(scale int, a Arena) Workload {
	b := isa.NewBuilder("backprop").SharedMem(2 * 1024)
	emitGid(b)
	b.LdParam(3, 0)
	b.IAdd(3, 3, 1)
	b.LdG(4, 3, 0) // input
	b.LdParam(5, 1)
	b.IAdd(5, 5, 1)
	b.LdG(6, 5, 0) // weight
	b.FMul(7, 4, 6)
	b.S2R(8, isa.SrTidX)
	b.ShlImm(9, 8, 2)
	b.StS(9, 0, 7)
	b.Bar()
	// Exchange with a rotated neighbour, twice (pseudo reduction).
	b.IAddImm(10, 8, 128)
	b.AndImm(10, 10, 255)
	b.ShlImm(10, 10, 2)
	b.LdS(11, 10, 0)
	b.FAdd(7, 7, 11)
	b.Bar()
	b.StS(9, 0, 7)
	b.Bar()
	b.IAddImm(10, 8, 64)
	b.AndImm(10, 10, 255)
	b.ShlImm(10, 10, 2)
	b.LdS(11, 10, 0)
	b.FAdd(7, 7, 11)
	// Sigmoid-like activation via exp2.
	b.MovImm(12, math.Float32bits(-0.25))
	b.FMul(13, 7, 12)
	b.FExp(14, 13)
	b.MovImm(15, math.Float32bits(1.0))
	b.FAdd(14, 14, 15)
	b.FRcp(16, 14)
	b.LdParam(17, 2)
	b.IAdd(17, 17, 1)
	b.StG(17, 0, 16)
	b.Exit()
	k := b.MustBuild()

	grid := 240 * scale
	return Workload{
		Name:        "backprop",
		Description: "NN layer with shared-memory exchange and barriers (warp-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(256),
			Params:   []uint32{a.bufA(), a.bufB(), a.bufC()},
		},
	}
}

// Pathfinder models the dynamic-programming grid walk: an iterative
// shared-memory relaxation with a global cost load per step.
func Pathfinder(scale int, a Arena) Workload {
	const (
		iters = 8
		width = 16384
	)
	b := isa.NewBuilder("pathfinder").SharedMem(1024)
	emitGid(b)
	b.LdParam(3, 0)
	b.IAdd(3, 3, 1)
	b.LdG(4, 3, 0) // src row value
	b.S2R(5, isa.SrTidX)
	b.ShlImm(6, 5, 2)
	b.StS(6, 0, 4)
	b.MovImm(7, 0) // iter
	b.Label("iter")
	b.Bar()
	// left/right neighbours in the row (wrapping within the CTA tile).
	b.IAddImm(8, 5, 1)
	b.AndImm(8, 8, 63)
	b.ShlImm(8, 8, 2)
	b.LdS(9, 8, 0)
	b.IAddImm(10, 5, 63)
	b.AndImm(10, 10, 63)
	b.ShlImm(10, 10, 2)
	b.LdS(11, 10, 0)
	b.LdS(12, 6, 0)
	b.IMin(13, 9, 11)
	b.IMin(13, 13, 12)
	// cost[gid + iter*width] from global memory.
	b.IMulImm(14, 7, 4*width)
	b.IAdd(14, 14, 3)
	b.LdG(15, 14, 0)
	b.IAdd(16, 13, 15)
	b.Bar()
	b.StS(6, 0, 16)
	b.IAddImm(7, 7, 1)
	b.SetpImm(17, isa.CmpILT, 7, iters)
	b.Bra(17, "iter", "done")
	b.Label("done")
	b.Bar()
	b.LdS(18, 6, 0)
	b.LdParam(19, 1)
	b.IAdd(19, 19, 1)
	b.StG(19, 0, 18)
	b.Exit()
	k := b.MustBuild()

	grid := 480 * scale
	return Workload{
		Name:        "pathfinder",
		Description: "DP grid relaxation, barrier per step (CTA-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(64),
			Params:   []uint32{a.bufA(), a.bufB()},
		},
	}
}

// LUD models one LU-decomposition diagonal-block step: a single tiny warp
// per CTA iterating over a shared tile with barriers. The hardest
// CTA-slot-limited case: 8 active CTAs occupy only 8 of 48 warp slots.
func LUD(scale int, a Arena) Workload {
	const steps = 8
	b := isa.NewBuilder("lud").SharedMem(1024)
	emitGid(b)
	b.S2R(3, isa.SrTidX)
	// Load 8 tile words per thread (32 threads x 8 = 256 words).
	b.MovImm(4, 0)
	b.Label("load")
	b.ShlImm(5, 4, 5) // i*32
	b.IAdd(5, 5, 3)   // i*32 + tid
	b.ShlImm(6, 5, 2)
	b.LdParam(7, 0)
	b.ShlImm(8, 0, 2) // gid*4... base per CTA handled via gid stride
	b.IAdd(7, 7, 6)
	b.IAdd(7, 7, 8)
	b.LdG(9, 7, 0)
	b.StS(6, 0, 9)
	b.IAddImm(4, 4, 1)
	b.SetpImm(10, isa.CmpILT, 4, 8)
	b.Bra(10, "load", "compute")
	b.Label("compute")
	b.Bar()
	b.MovImm(11, 0) // k
	b.Label("kloop")
	// row update: s[tid] -= s[k] * s[tid ^ (k+1)] + pivot[k,tid] from
	// the global matrix, as Rodinia LUD's elimination step does.
	b.ShlImm(22, 11, 5)
	b.IAdd(22, 22, 3)
	b.ShlImm(22, 22, 2)
	b.AndImm(22, 22, 0xFFFC) // 64 KiB pivot window
	b.LdParam(23, 2)
	b.IAdd(22, 23, 22)
	b.LdG(24, 22, 0) // pivot element (global)
	b.ShlImm(12, 11, 2)
	b.LdS(13, 12, 0)
	b.IAddImm(14, 11, 1)
	b.Xor(15, 3, 14)
	b.AndImm(15, 15, 255)
	b.ShlImm(15, 15, 2)
	b.LdS(16, 15, 0)
	b.ShlImm(17, 3, 2)
	b.LdS(18, 17, 0)
	b.FMul(19, 13, 16)
	b.ISub(20, 18, 19)
	b.IAdd(20, 20, 24)
	b.Bar()
	b.StS(17, 0, 20)
	b.Bar()
	b.IAddImm(11, 11, 1)
	b.SetpImm(21, isa.CmpILT, 11, steps)
	b.Bra(21, "kloop", "store")
	b.Label("store")
	// Store back 8 words.
	b.MovImm(4, 0)
	b.Label("st")
	b.ShlImm(5, 4, 5)
	b.IAdd(5, 5, 3)
	b.ShlImm(6, 5, 2)
	b.LdS(9, 6, 0)
	b.LdParam(7, 1)
	b.ShlImm(8, 0, 2)
	b.IAdd(7, 7, 6)
	b.IAdd(7, 7, 8)
	b.StG(7, 0, 9)
	b.IAddImm(4, 4, 1)
	b.SetpImm(10, isa.CmpILT, 4, 8)
	b.Bra(10, "st", "fin")
	b.Label("fin")
	b.Exit()
	k := b.MustBuild()

	grid := 960 * scale
	return Workload{
		Name:        "lud",
		Description: "LU tile step: one warp per CTA, barrier loops (CTA-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(32),
			Params:   []uint32{a.bufA(), a.bufB(), a.bufC()},
		},
	}
}

// NW models the Needleman-Wunsch wavefront: tiny CTAs, a barrier per
// anti-diagonal, integer max chains over a shared tile.
func NW(scale int, a Arena) Workload {
	const diags = 12
	b := isa.NewBuilder("nw").SharedMem(2 * 1024)
	emitGid(b)
	b.S2R(3, isa.SrTidX)
	b.ShlImm(4, 3, 2)
	b.LdParam(5, 0)
	b.IAdd(6, 5, 1)
	b.LdG(7, 6, 0) // sequence score seed
	b.StS(4, 0, 7)
	b.MovImm(8, 0) // diagonal index
	b.Label("wave")
	b.Bar()
	// cell = max(diag + match, left - gap, up - gap); match comes from
	// the global reference matrix, as in Rodinia NW.
	b.IAddImm(9, 3, 31) // tid-1 mod 32
	b.AndImm(9, 9, 31)
	b.ShlImm(9, 9, 2)
	b.LdS(10, 9, 0) // left
	b.LdS(11, 4, 0) // self (diag surrogate)
	b.IMulImm(18, 8, 128)
	b.IAdd(18, 18, 1)
	b.AndImm(18, 18, 0xFFFC) // 64 KiB reference window
	b.LdParam(19, 2)
	b.IAdd(18, 19, 18)
	b.LdG(20, 18, 0) // reference score (global)
	b.IAddImm(12, 10, -1)
	b.IAddImm(13, 11, 2)
	b.IMax(14, 12, 13)
	b.IMax(14, 14, 20)
	b.Bar()
	b.StS(4, 0, 14)
	b.IAddImm(8, 8, 1)
	b.SetpImm(15, isa.CmpILT, 8, diags)
	b.Bra(15, "wave", "done")
	b.Label("done")
	b.Bar()
	b.LdS(16, 4, 0)
	b.LdParam(17, 1)
	b.IAdd(17, 17, 1)
	b.StG(17, 0, 16)
	b.Exit()
	k := b.MustBuild()

	grid := 960 * scale
	return Workload{
		Name:        "nw",
		Description: "sequence-alignment wavefront: 32-thread CTAs (CTA-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(32),
			Params:   []uint32{a.bufA(), a.bufB(), a.bufC()},
		},
	}
}

// Reduce models a two-load tree reduction: grid-strided loads into shared
// memory, then a log2(block) barrier ladder with shrinking active sets.
func Reduce(scale int, a Arena) Workload {
	b := isa.NewBuilder("reduce").SharedMem(1024)
	emitGid(b)
	b.LdParam(3, 0)
	b.IAdd(4, 3, 1)
	b.LdG(5, 4, 0) // in[gid]
	b.S2R(6, isa.SrNTidX)
	b.S2R(7, isa.SrNCTAIdX)
	b.IMul(8, 6, 7)
	b.ShlImm(8, 8, 2)
	b.IAdd(9, 4, 8)
	b.LdG(10, 9, 0) // in[gid + gridSize]
	b.IAdd(11, 5, 10)
	b.S2R(12, isa.SrTidX)
	b.ShlImm(13, 12, 2)
	b.StS(13, 0, 11)
	b.MovImm(14, 128) // stride
	b.Label("tree")
	b.Bar()
	b.Setp(15, isa.CmpILT, 12, 14)
	b.Bra(15, "add", "next")
	b.Jmp("next")
	b.Label("add")
	b.IAdd(16, 12, 14)
	b.ShlImm(16, 16, 2)
	b.LdS(17, 16, 0)
	b.LdS(18, 13, 0)
	b.IAdd(19, 17, 18)
	b.StS(13, 0, 19)
	b.Label("next")
	b.ShrImm(14, 14, 1)
	b.SetpImm(20, isa.CmpIGT, 14, 0)
	b.Bra(20, "tree", "fin")
	b.Label("fin")
	b.Bar()
	b.SetpImm(21, isa.CmpINE, 12, 0)
	b.Bra(21, "end", "end")
	b.LdS(22, 13, 0)
	b.S2R(23, isa.SrCTAIdX)
	b.ShlImm(23, 23, 2)
	b.LdParam(24, 1)
	b.IAdd(24, 24, 23)
	b.StG(24, 0, 22)
	b.Label("end")
	b.Exit()
	k := b.MustBuild()

	grid := 240 * scale
	return Workload{
		Name:        "reduce",
		Description: "tree reduction with a barrier ladder (warp-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(256),
			Params:   []uint32{a.bufA(), a.bufB()},
		},
	}
}
