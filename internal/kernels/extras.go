package kernels

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// The extension workloads (class Extension) stay out of the headline
// 22-kernel suite so the paper-facing averages stay comparable; the
// fig-extras experiment evaluates them separately.

// GEMM models a shared-memory-tiled matrix multiply inner phase: two tile
// loads, a barrier, an 8-step FFMA sweep over the tile, repeated. High
// compute intensity and a large shared tile: capacity-limited, VT-neutral.
func GEMM(scale int, a Arena) Workload {
	const kTiles = 4
	b := isa.NewBuilder("gemm").SharedMem(8 * 1024).ReserveRegs(26)
	emitGid(b)
	b.S2R(3, isa.SrTidX)
	b.ShlImm(4, 3, 2) // tid*4
	b.MovImm(5, 0)    // acc (float)
	b.MovImm(6, 0)    // tile index
	b.Label("tile")
	// Load one A and one B element into the shared tile (coalesced).
	b.IMulImm(7, 6, 4*256)
	b.IAdd(7, 7, 1)
	b.LdParam(8, 0)
	b.IAdd(8, 8, 7)
	b.LdG(9, 8, 0) // A element
	b.LdParam(10, 1)
	b.IAdd(10, 10, 7)
	b.LdG(11, 10, 0) // B element
	b.StS(4, 0, 9)
	b.IAddImm(12, 4, 1024)
	b.StS(12, 0, 11)
	b.Bar()
	// 8-step FFMA sweep over the tile row.
	for s := 0; s < 8; s++ {
		off := int32(4 * s)
		b.LdS(13, 4, off)
		b.LdS(14, 12, off)
		b.FFma(5, 13, 14, 5)
	}
	b.Bar()
	b.IAddImm(6, 6, 1)
	b.SetpImm(15, isa.CmpILT, 6, kTiles)
	b.Bra(15, "tile", "store")
	b.Label("store")
	b.LdParam(16, 2)
	b.IAdd(16, 16, 1)
	b.StG(16, 0, 5)
	b.Exit()
	k := b.MustBuild()

	grid := 240 * scale
	return Workload{
		Name:        "gemm",
		Description: "tiled matrix multiply (shared-memory limited, compute bound)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(256),
			Params:   []uint32{a.bufA(), a.bufB(), a.bufC()},
		},
	}
}

// Histogram models a privatized shared-memory histogram: small CTAs stream
// L2-resident input, bin into shared memory with data-dependent conflicts,
// then flush. Scheduling-limited and memory-latency bound: a VT gainer.
func Histogram(scale int, a Arena) Workload {
	const (
		iters  = 16
		window = 0x3FFFC // 256 KiB input window (L2 resident)
	)
	b := isa.NewBuilder("histogram").SharedMem(1024)
	emitGid(b)
	// Zero this thread's bin slots.
	b.S2R(3, isa.SrTidX)
	b.ShlImm(4, 3, 2)
	b.MovImm(5, 0)
	b.StS(4, 0, 5)
	b.Bar()
	b.MovImm(6, 0) // i
	b.Mov(7, 1)    // cursor = gid*4
	b.Label("loop")
	b.AndImm(7, 7, window)
	b.LdParam(8, 0)
	b.IAdd(9, 8, 7)
	b.LdG(10, 9, 0) // sample (L2 hit after warmup)
	// bin = sample & 63; read-modify-write the shared counter.
	b.AndImm(11, 10, 63)
	b.ShlImm(11, 11, 2)
	b.LdS(12, 11, 0)
	b.IAddImm(12, 12, 1)
	b.StS(11, 0, 12)
	// stride the cursor by a large prime-ish step
	b.IAddImm(7, 7, 4*64*19)
	b.IAddImm(6, 6, 1)
	b.SetpImm(13, isa.CmpILT, 6, iters)
	b.Bra(13, "loop", "flush")
	b.Label("flush")
	b.Bar()
	b.LdS(14, 4, 0)
	b.LdParam(15, 1)
	b.IAdd(15, 15, 1)
	b.StG(15, 0, 14)
	b.Exit()
	k := b.MustBuild()

	grid := 480 * scale
	input := a.bufA()
	return Workload{
		Name:        "histogram",
		Description: "privatized shared-memory histogram (CTA-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(64),
			Params:   []uint32{a.bufA(), a.bufB()},
		},
		Init: func(bk *mem.Backing) {
			for i := 0; i < (window+4)/4; i++ {
				bk.StoreWord(input+uint32(4*i), lcg(uint32(i)))
			}
		},
	}
}

// Bitonic models one bitonic-sort merge pass: tiny CTAs compare-exchange a
// shared tile across log2 stages with a barrier each, seeded from global
// memory. Scheduling-limited, barrier dense.
func Bitonic(scale int, a Arena) Workload {
	b := isa.NewBuilder("bitonic").SharedMem(512)
	emitGid(b)
	b.S2R(3, isa.SrTidX)
	b.ShlImm(4, 3, 2)
	b.LdParam(5, 0)
	b.IAdd(6, 5, 1)
	b.LdG(7, 6, 0) // key
	b.StS(4, 0, 7)
	// Five butterfly stages over a 32-element tile.
	for stage := 16; stage >= 1; stage /= 2 {
		b.Bar()
		// partner = tid ^ stage
		b.MovImm(8, uint32(stage))
		b.Xor(9, 3, 8)
		b.ShlImm(9, 9, 2)
		b.LdS(10, 9, 0) // partner key
		b.LdS(11, 4, 0) // own key
		// ascending if (tid & stage) == 0: keep min, else keep max
		b.And(12, 3, 8)
		b.IMin(13, 10, 11)
		b.IMax(14, 10, 11)
		b.Setp(15, isa.CmpIEQ, 12, isa.RZ)
		b.Selp(16, 13, 14, 15)
		b.Bar()
		b.StS(4, 0, 16)
	}
	b.Bar()
	b.LdS(17, 4, 0)
	b.LdParam(18, 1)
	b.IAdd(18, 18, 1)
	b.StG(18, 0, 17)
	b.Exit()
	k := b.MustBuild()

	grid := 960 * scale
	keys := a.bufA()
	return Workload{
		Name:        "bitonic",
		Description: "bitonic merge pass: 32-thread CTAs, barrier dense (CTA-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(32),
			Params:   []uint32{a.bufA(), a.bufB()},
		},
		Init: func(bk *mem.Backing) {
			for i := 0; i < 960*scale*32; i++ {
				bk.StoreWord(keys+uint32(4*i), lcg(uint32(i))%1000)
			}
		},
	}
}

// ScatterAdd models degree counting / histogram building with global
// atomics: every thread atomically increments a counter chosen by hashing
// its id (and the previous atomic's returned count) into an L2-resident
// table. The dependent-atomic chain stalls each round for a full memory
// round trip — exactly what VT's trigger watches for. Individual counter
// values depend on scheduling order, but their total is invariant.
func ScatterAdd(scale int, a Arena) Workload {
	const (
		counters = 16384 // 64 KiB counter table
		rounds   = 12
	)
	b := isa.NewBuilder("scatteradd")
	emitGid(b)
	b.LdParam(3, 0)
	b.IMulImm(4, 0, 40503) // hash seed
	b.MovImm(5, 1)
	b.MovImm(6, 0) // round
	b.Label("loop")
	// hash -> counter slot
	b.ShlImm(7, 4, 7)
	b.Xor(4, 4, 7)
	b.ShrImm(7, 4, 11)
	b.Xor(4, 4, 7)
	b.AndImm(8, 4, 4*(counters-1))
	b.IAdd(9, 3, 8)
	b.AtomAdd(11, 9, 0, 5) // counter[slot] += 1, returns the old count
	// Fold the returned count into the hash: the next slot depends on
	// the atomic's result, so each round stalls for the full round trip
	// (a dependent-atomic chain, as in lock-free data structures). The
	// *total* of all counters stays policy-independent.
	b.Xor(4, 4, 11)
	b.IAddImm(6, 6, 1)
	b.SetpImm(10, isa.CmpILT, 6, rounds)
	b.Bra(10, "loop", "done")
	b.Label("done")
	b.Exit()
	table := a.bufA()
	return Workload{
		Name:        "scatteradd",
		Description: "global atomic scatter-increment (CTA-slot limited)",
		Launch: &isa.Launch{
			Kernel:   b.MustBuild(),
			GridDim:  isa.Dim1(480 * scale),
			BlockDim: isa.Dim1(64),
			Params:   []uint32{a.bufA()},
		},
		Init: func(bk *mem.Backing) {
			for i := 0; i < counters; i++ {
				bk.StoreWord(table+uint32(4*i), 0)
			}
		},
	}
}
