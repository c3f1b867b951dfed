package kernels

import (
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
)

// ParticleFilter models the resampling walk: each warp follows a chain of
// indices through an L2-resident weight array, with the loop condition
// depending on the loaded weight — a full memory round trip per step.
// Small CTAs make it CTA-slot limited: a canonical VT gainer.
func ParticleFilter(scale int, a Arena) Workload {
	const (
		weights  = 32768 // 128 KiB weight array, L2 resident
		maxSteps = 16
	)
	b := isa.NewBuilder("particlefilter")
	emitGid(b)
	b.LdParam(3, 0) // weights base
	// Warp-uniform starting index derived from the CTA id, so the loads
	// coalesce; the per-lane offset stays within one line.
	b.S2R(4, isa.SrCTAIdX)
	b.IMulImm(5, 4, 4*1024)
	b.AndImm(5, 5, 4*(weights-32))
	b.S2R(6, isa.SrTidX)
	b.AndImm(7, 6, 31)
	b.ShlImm(7, 7, 2)
	b.MovImm(8, 0) // accumulated weight
	b.MovImm(9, 0) // step
	b.Label("walk")
	b.IAdd(10, 3, 5)
	b.IAdd(10, 10, 7)
	b.LdG(11, 10, 0) // weight (coalesced line per warp)
	b.IAdd(8, 8, 11)
	// Next cursor: warp-uniform xorshift of the block index.
	b.ShlImm(12, 5, 7)
	b.Xor(5, 5, 12)
	b.ShrImm(12, 5, 9)
	b.Xor(5, 5, 12)
	b.AndImm(5, 5, 4*(weights-32))
	// Loop condition gated on the loaded weight: a real stall per step.
	b.AndImm(13, 11, 0)
	b.IAdd(13, 13, 9)
	b.IAddImm(9, 9, 1)
	b.SetpImm(14, isa.CmpILT, 13, maxSteps-1)
	b.Bra(14, "walk", "done")
	b.Label("done")
	b.LdParam(15, 1)
	b.IAdd(15, 15, 1)
	b.StG(15, 0, 8)
	b.Exit()
	k := b.MustBuild()

	grid := 480 * scale
	weightBuf := a.bufA()
	return Workload{
		Name:        "particlefilter",
		Description: "resampling index walk, stall per step (CTA-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(64),
			Params:   []uint32{a.bufA(), a.bufB()},
		},
		Init: func(bk *mem.Backing) {
			for i := 0; i < weights; i++ {
				bk.StoreWord(weightBuf+uint32(4*i), lcg(uint32(i))%256)
			}
		},
	}
}

// HeartWall models the template-tracking kernel: per frame, load a
// template row from an L2-resident window, correlate against the shared
// tile, barrier, repeat. Small CTAs, a long-latency load per frame.
func HeartWall(scale int, a Arena) Workload {
	const (
		frames = 12
		window = 0x1FFFC // 128 KiB template window
	)
	b := isa.NewBuilder("heartwall").SharedMem(1024)
	emitGid(b)
	b.S2R(3, isa.SrTidX)
	b.ShlImm(4, 3, 2)
	b.LdParam(5, 0)
	b.IAdd(6, 5, 1)
	b.LdG(7, 6, 0) // own pixel
	b.StS(4, 0, 7)
	b.MovImm(8, 0) // frame
	b.MovImm(9, 0) // correlation
	b.Mov(10, 1)   // template cursor = gid*4
	b.Label("frame")
	b.Bar()
	b.AndImm(10, 10, window)
	b.LdParam(11, 1)
	b.IAdd(12, 11, 10)
	b.LdG(13, 12, 0) // template sample (L2 hit, full round trip)
	b.LdS(14, 4, 0)
	b.FFma(9, 13, 14, 9)
	// The shared tile shifts by one each frame (neighbour exchange).
	b.IAddImm(15, 3, 1)
	b.AndImm(15, 15, 255)
	b.ShlImm(15, 15, 2)
	b.LdS(16, 15, 0)
	b.Bar()
	b.StS(4, 0, 16)
	// Cursor strides by a large step, gated on the loaded sample.
	b.AndImm(17, 13, 0)
	b.IAdd(17, 17, 8)
	b.IAddImm(10, 10, 4*64*29)
	b.IAddImm(8, 8, 1)
	b.SetpImm(18, isa.CmpILT, 17, frames-1)
	b.Bra(18, "frame", "done")
	b.Label("done")
	b.LdParam(19, 2)
	b.IAdd(19, 19, 1)
	b.StG(19, 0, 9)
	b.Exit()
	k := b.MustBuild()

	grid := 480 * scale
	templates := a.bufB()
	return Workload{
		Name:        "heartwall",
		Description: "template tracking: load + correlate + barrier per frame (CTA-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(64),
			Params:   []uint32{a.bufA(), a.bufB(), a.bufC()},
		},
		Init: func(bk *mem.Backing) {
			for i := 0; i < (window+4)/4; i++ {
				bk.StoreWord(templates+uint32(4*i), math.Float32bits(f32(lcg(uint32(i)))))
			}
		},
	}
}
