package kernels

import (
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Gaussian models the elimination step of Gaussian elimination (Rodinia's
// Fan2): small CTAs read the pivot row (L2-resident, shared across the
// grid) and update their own row slice.
func Gaussian(scale int, a Arena) Workload {
	const (
		width = 1024 // pivot row length in words
		iters = 8
	)
	b := isa.NewBuilder("gaussian")
	emitGid(b)
	b.LdParam(3, 0) // pivot row base
	b.LdParam(4, 1) // matrix base
	b.IAdd(5, 4, 1) // &m[gid]
	b.LdG(6, 5, 0)  // own row element
	b.MovImm(7, 0)  // i
	b.Label("elim")
	// pivot element for this step (uniform within the warp after masking)
	b.ShlImm(8, 7, 2)
	b.AndImm(9, 1, 4*(width-1))
	b.IAdd(9, 9, 8)
	b.AndImm(9, 9, 4*(width-1))
	b.IAdd(9, 3, 9)
	b.LdG(10, 9, 0) // pivot element
	b.FMul(11, 10, 6)
	b.FAdd(6, 6, 11)
	b.IAddImm(7, 7, 1)
	b.SetpImm(12, isa.CmpILT, 7, iters)
	b.Bra(12, "elim", "done")
	b.Label("done")
	b.LdParam(13, 2)
	b.IAdd(13, 13, 1)
	b.StG(13, 0, 6)
	b.Exit()
	k := b.MustBuild()

	grid := 480 * scale
	pivot := a.bufA()
	return Workload{
		Name:        "gaussian",
		Description: "Gaussian elimination row update (CTA-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(64),
			Params:   []uint32{a.bufA(), a.bufB(), a.bufC()},
		},
		Init: func(bk *mem.Backing) {
			for i := 0; i < width; i++ {
				bk.StoreWord(pivot+uint32(4*i), math.Float32bits(f32(uint32(i))))
			}
		},
	}
}

// CFD models the Euler-solver flux computation: the register-hungriest
// workload in Rodinia (40+ registers per thread), long float chains over
// five conservative variables. Register-file (capacity) limited.
func CFD(scale int, a Arena) Workload {
	b := isa.NewBuilder("cfd").ReserveRegs(42)
	emitGid(b)
	b.LdParam(3, 0)
	b.IAdd(3, 3, 1)
	// Load five conservative variables (density, 3x momentum, energy).
	b.LdG(4, 3, 0)
	b.LdG(5, 3, 4*4096)
	b.LdG(6, 3, 8*4096)
	b.LdG(7, 3, 12*4096)
	b.LdG(8, 3, 16*4096)
	// Flux chain: velocity = momentum/density; pressure; flux terms.
	b.FRcp(9, 4)
	b.FMul(10, 5, 9)
	b.FMul(11, 6, 9)
	b.FMul(12, 7, 9)
	b.FMul(13, 10, 10)
	b.FFma(13, 11, 11, 13)
	b.FFma(13, 12, 12, 13)
	b.MovImm(14, math.Float32bits(0.2))
	b.FMul(15, 13, 14)
	b.FAdd(16, 8, 15) // pressure surrogate
	b.FMul(17, 10, 4)
	b.FFma(18, 10, 17, 16)
	b.FFma(19, 11, 17, 16)
	b.FFma(20, 12, 17, 16)
	b.FAdd(21, 8, 16)
	b.FMul(22, 21, 10)
	b.LdParam(23, 1)
	b.IAdd(23, 23, 1)
	b.StG(23, 0, 18)
	b.StG(23, 4*4096, 19)
	b.StG(23, 8*4096, 20)
	b.StG(23, 12*4096, 22)
	b.Exit()
	k := b.MustBuild()

	grid := 240 * scale
	return Workload{
		Name:        "cfd",
		Description: "Euler flux computation, 42 regs/thread (register limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(128),
			Params:   []uint32{a.bufA(), a.bufB()},
		},
	}
}

// StreamCluster models the pgain distance kernel: every thread computes
// distances from its point to a center set that lives in L2.
func StreamCluster(scale int, a Arena) Workload {
	const centers = 16
	b := isa.NewBuilder("streamcluster")
	emitGid(b)
	b.LdParam(3, 0)
	b.IAdd(3, 3, 1)
	b.LdG(4, 3, 0) // point coordinate
	b.LdParam(5, 1)
	b.MovImm(6, math.Float32bits(1e30))
	b.MovImm(7, 0)
	b.Label("scan")
	b.ShlImm(8, 7, 2)
	b.IAdd(8, 5, 8)
	b.LdG(9, 8, 0) // center (uniform per iteration)
	b.FAdd(10, 4, 9)
	b.FMul(10, 10, 10)
	b.Setp(11, isa.CmpFLT, 10, 6)
	b.Selp(6, 10, 6, 11)
	b.IAddImm(7, 7, 1)
	b.SetpImm(12, isa.CmpILT, 7, centers)
	b.Bra(12, "scan", "store")
	b.Label("store")
	b.LdParam(13, 2)
	b.IAdd(13, 13, 1)
	b.StG(13, 0, 6)
	b.Exit()
	k := b.MustBuild()

	grid := 360 * scale
	centerBuf := a.bufB()
	return Workload{
		Name:        "streamcluster",
		Description: "clustering distance scan (warp-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(256),
			Params:   []uint32{a.bufA(), a.bufB(), a.bufC()},
		},
		Init: func(bk *mem.Backing) {
			for c := 0; c < centers; c++ {
				bk.StoreWord(centerBuf+uint32(4*c), math.Float32bits(f32(uint32(c*11))))
			}
		},
	}
}

// Mummer models suffix-tree string matching: a data-dependent pointer walk
// through an L2-resident tree with heavy divergence — each thread's path
// length depends on its query. The deepest-dependence workload in the
// suite.
func Mummer(scale int, a Arena) Workload {
	const (
		treeWords = 32768 // 128 KiB tree, L2 resident
		maxSteps  = 24
	)
	b := isa.NewBuilder("mummer")
	emitGid(b)
	b.LdParam(3, 0)          // tree base
	b.IMulImm(4, 0, 2654435) // per-thread query hash
	b.AndImm(5, 4, 4*(treeWords-1))
	b.MovImm(6, 0) // matched length
	b.MovImm(7, 0) // step
	b.Label("walk")
	b.IAdd(8, 3, 5)
	b.LdG(9, 8, 0) // node word: next pointer + flags (dependent load)
	b.IAddImm(6, 6, 1)
	// next = node value masked into the tree
	b.AndImm(5, 9, 4*(treeWords-1))
	// stop early if the node's low bits match the query's (divergent exit)
	b.Xor(10, 9, 4)
	b.AndImm(10, 10, 15)
	b.SetpImm(11, isa.CmpIEQ, 10, 0)
	b.Bra(11, "out", "cont")
	b.Label("cont")
	b.IAddImm(7, 7, 1)
	b.SetpImm(12, isa.CmpILT, 7, maxSteps)
	b.Bra(12, "walk", "out")
	b.Label("out")
	b.LdParam(13, 1)
	b.IAdd(13, 13, 1)
	b.StG(13, 0, 6)
	b.Exit()
	k := b.MustBuild()

	grid := 480 * scale
	tree := a.bufA()
	return Workload{
		Name:        "mummer",
		Description: "suffix-tree walk: dependent loads, divergent exits (CTA-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(64),
			Params:   []uint32{a.bufA(), a.bufB()},
		},
		Init: func(bk *mem.Backing) {
			for i := 0; i < treeWords; i++ {
				bk.StoreWord(tree+uint32(4*i), lcg(uint32(i)))
			}
		},
	}
}

// DWT2D models a discrete wavelet transform pass: a 4 KiB shared tile per
// 64-thread CTA (shared-memory hungry relative to its thread count) with a
// lifting-step barrier ladder.
func DWT2D(scale int, a Arena) Workload {
	const levels = 4
	b := isa.NewBuilder("dwt2d").SharedMem(4 * 1024)
	emitGid(b)
	b.S2R(3, isa.SrTidX)
	// Each thread loads 16 words of its row segment into the tile.
	b.MovImm(4, 0)
	b.Label("load")
	b.ShlImm(5, 4, 6) // i*64
	b.IAdd(5, 5, 3)
	b.ShlImm(6, 5, 2)
	b.LdParam(7, 0)
	b.ShlImm(8, 0, 2)
	b.IAdd(7, 7, 6)
	b.IAdd(7, 7, 8)
	b.LdG(9, 7, 0)
	b.StS(6, 0, 9)
	b.IAddImm(4, 4, 1)
	b.SetpImm(10, isa.CmpILT, 4, 16)
	b.Bra(10, "load", "lift")
	b.Label("lift")
	// Lifting steps: predict odd samples from even neighbours.
	for lv := 0; lv < levels; lv++ {
		b.Bar()
		b.ShlImm(11, 3, uint32(2+lv)) // stride grows per level
		b.AndImm(11, 11, 4095)
		b.LdS(12, 11, 0)
		b.IAddImm(13, 11, int32(4<<lv))
		b.AndImm(13, 13, 4095)
		b.LdS(14, 13, 0)
		b.FAdd(15, 12, 14)
		b.MovImm(16, math.Float32bits(0.5))
		b.FMul(15, 15, 16)
		b.Bar()
		b.StS(11, 0, 15)
	}
	b.Bar()
	b.S2R(3, isa.SrTidX)
	b.ShlImm(17, 3, 2)
	b.LdS(18, 17, 0)
	b.LdParam(19, 1)
	b.IAdd(19, 19, 1)
	b.StG(19, 0, 18)
	b.Exit()
	k := b.MustBuild()

	grid := 480 * scale
	return Workload{
		Name:        "dwt2d",
		Description: "wavelet lifting on a shared tile (CTA-slot limited, barrier ladder)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(64),
			Params:   []uint32{a.bufA(), a.bufB()},
		},
	}
}

// NN models the k-nearest-neighbour distance kernel: a three-instruction
// body over a streamed record array — the smallest kernel in Rodinia,
// bandwidth bound with big CTAs.
func NN(scale int, a Arena) Workload {
	b := isa.NewBuilder("nn")
	emitGid(b)
	b.LdParam(3, 0)
	b.IAdd(3, 3, 1)
	b.LdG(4, 3, 0) // latitude
	b.LdG(5, 3, 4*65536)
	// distance^2 to the query point
	b.MovImm(6, math.Float32bits(30.0))
	b.FAdd(7, 4, 6)
	b.FMul(7, 7, 7)
	b.MovImm(8, math.Float32bits(120.0))
	b.FAdd(9, 5, 8)
	b.FFma(7, 9, 9, 7)
	b.LdParam(10, 1)
	b.IAdd(10, 10, 1)
	b.StG(10, 0, 7)
	b.Exit()
	k := b.MustBuild()

	grid := 360 * scale
	return Workload{
		Name:        "nn",
		Description: "nearest-neighbour distance, 3-op body (warp-slot limited, streaming)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(256),
			Params:   []uint32{a.bufA(), a.bufB()},
		},
	}
}
