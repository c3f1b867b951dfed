package kernels

import (
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
)

// VecAdd models a streaming SAXPY-style kernel: out[i] = a[i] + b[i].
// Large CTAs with a tiny register footprint make it warp-slot limited.
func VecAdd(scale int, a Arena) Workload {
	b := isa.NewBuilder("vecadd")
	emitGid(b)
	b.LdParam(3, 0)
	b.IAdd(3, 3, 1)
	b.LdG(4, 3, 0) // a[i]
	b.LdParam(5, 1)
	b.IAdd(5, 5, 1)
	b.LdG(6, 5, 0) // b[i]
	b.FAdd(7, 4, 6)
	b.LdParam(5, 2)
	b.IAdd(5, 5, 1)
	b.StG(5, 0, 7)
	b.Exit()
	k := b.MustBuild()

	grid := 360 * scale
	n := grid * 256
	x, y := a.bufA(), a.bufB()
	return Workload{
		Name:        "vecadd",
		Description: "streaming vector add (warp-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(256),
			Params:   []uint32{a.bufA(), a.bufB(), a.bufC()},
		},
		Init: func(bk *mem.Backing) {
			for i := 0; i < n; i++ {
				bk.StoreWord(x+uint32(4*i), math.Float32bits(f32(uint32(i))))
				bk.StoreWord(y+uint32(4*i), math.Float32bits(f32(lcg(uint32(i)))))
			}
		},
	}
}

// Stencil3D models a 7-point 3-D stencil sweep: small CTAs, six neighbour
// loads per point, CTA-slot limited.
func Stencil3D(scale int, a Arena) Workload {
	const (
		width  = 128
		height = 64
	)
	b := isa.NewBuilder("stencil3d")
	emitGid(b)
	b.LdParam(3, 0)
	b.IAdd(3, 3, 1) // &in[i]
	b.LdG(4, 3, 0)  // center
	b.LdG(5, 3, 4)  // +x
	b.LdG(6, 3, -4) // -x
	b.LdG(7, 3, 4*width)
	b.LdG(8, 3, -4*width)
	b.LdG(9, 3, 4*width*height)
	b.LdG(10, 3, -4*width*height)
	b.FAdd(11, 5, 6)
	b.FAdd(12, 7, 8)
	b.FAdd(13, 9, 10)
	b.FAdd(11, 11, 12)
	b.FAdd(11, 11, 13)
	b.MovImm(14, math.Float32bits(1.0/6.0))
	b.FMul(11, 11, 14)
	b.MovImm(14, math.Float32bits(0.5))
	b.FFma(11, 4, 14, 11)
	b.LdParam(15, 1)
	b.IAdd(15, 15, 1)
	b.StG(15, 0, 11)
	b.Exit()
	k := b.MustBuild()

	grid := 480 * scale
	return Workload{
		Name:        "stencil3d",
		Description: "7-point 3-D stencil (CTA-slot limited, streaming)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(128),
			Params:   []uint32{a.bufA() + 4*width*height, a.bufB()},
		},
	}
}

// SRAD models the speckle-reducing anisotropic diffusion stencil: a
// register-hungry (capacity-limited) memory-heavy kernel where Virtual
// Thread has no headroom.
func SRAD(scale int, a Arena) Workload {
	const width = 256
	b := isa.NewBuilder("srad").ReserveRegs(28)
	emitGid(b)
	b.LdParam(3, 0)
	b.IAdd(3, 3, 1)
	b.LdG(4, 3, 0)
	b.LdG(5, 3, 4)
	b.LdG(6, 3, -4)
	b.LdG(7, 3, 4*width)
	b.LdG(8, 3, -4*width)
	// Diffusion coefficient chain.
	b.FAdd(9, 5, 6)
	b.FAdd(10, 7, 8)
	b.FAdd(9, 9, 10)
	b.MovImm(11, math.Float32bits(0.25))
	b.FMul(9, 9, 11) // mean of neighbours
	b.FAdd(12, 9, 4) // + center
	b.FMul(13, 12, 12)
	b.FRcp(14, 13)
	b.FMul(15, 9, 14)
	b.MovImm(16, math.Float32bits(0.125))
	b.FFma(17, 15, 16, 4)
	b.LdParam(18, 1)
	b.IAdd(18, 18, 1)
	b.StG(18, 0, 17)
	b.Exit()
	k := b.MustBuild()

	grid := 240 * scale
	return Workload{
		Name:        "srad",
		Description: "diffusion stencil, 28 regs/thread (register limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(256),
			Params:   []uint32{a.bufA() + 4*width, a.bufB()},
		},
	}
}

// Transpose models a tiled matrix transpose through shared memory,
// exercising shared-memory bank behaviour; warp-slot limited.
func Transpose(scale int, a Arena) Workload {
	b := isa.NewBuilder("transpose").SharedMem(4 * 1024)
	emitGid(b)
	// Load one element into the tile, coalesced.
	b.LdParam(3, 0)
	b.IAdd(3, 3, 1)
	b.LdG(4, 3, 0)
	b.S2R(5, isa.SrTidX)
	b.ShlImm(6, 5, 2)
	b.StS(6, 0, 4) // smem[tid] = in[gid]
	b.Bar()
	// Read transposed within the 16x16 tile: tid -> (tid%16)*16 + tid/16.
	b.AndImm(7, 5, 15)
	b.ShlImm(7, 7, 4)
	b.ShrImm(8, 5, 4)
	b.IAdd(7, 7, 8)
	b.ShlImm(7, 7, 2)
	b.LdS(9, 7, 0)
	b.LdParam(10, 1)
	b.IAdd(10, 10, 1)
	b.StG(10, 0, 9)
	b.Exit()
	k := b.MustBuild()

	grid := 240 * scale
	return Workload{
		Name:        "transpose",
		Description: "tiled transpose through shared memory (warp-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(256),
			Params:   []uint32{a.bufA(), a.bufB()},
		},
	}
}
