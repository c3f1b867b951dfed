package kernels

import (
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
)

// KMeans models the nearest-centroid assignment step: each thread scans K
// centroids (broadcast loads that cache well) against its point.
func KMeans(scale int, a Arena) Workload {
	const kCentroids = 8
	b := isa.NewBuilder("kmeans").ReserveRegs(16)
	emitGid(b)
	b.LdParam(3, 0)
	b.IAdd(3, 3, 1)
	b.LdG(4, 3, 0) // point feature
	b.LdParam(5, 1)
	b.MovImm(6, math.Float32bits(1e30)) // best distance
	b.MovImm(7, 0)                      // best index
	b.MovImm(8, 0)                      // c
	b.Label("loop")
	b.ShlImm(9, 8, 2)
	b.IAdd(9, 5, 9)
	b.LdG(10, 9, 0) // centroid[c] (same address across lanes)
	b.FAdd(11, 4, 10)
	b.FMul(11, 11, 11) // (x + c)^2 distance surrogate
	b.Setp(12, isa.CmpFLT, 11, 6)
	b.Selp(6, 11, 6, 12)
	b.Selp(7, 8, 7, 12)
	b.IAddImm(8, 8, 1)
	b.SetpImm(13, isa.CmpILT, 8, kCentroids)
	b.Bra(13, "loop", "done")
	b.Label("done")
	b.LdParam(14, 2)
	b.IAdd(14, 14, 1)
	b.StG(14, 0, 7)
	b.Exit()
	k := b.MustBuild()

	grid := 360 * scale
	centroids := a.bufB()
	return Workload{
		Name:        "kmeans",
		Description: "nearest-centroid scan (warp-slot limited, compute+gather)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(128),
			Params:   []uint32{a.bufA(), a.bufB(), a.bufC()},
		},
		Init: func(bk *mem.Backing) {
			for c := 0; c < kCentroids; c++ {
				bk.StoreWord(centroids+uint32(4*c), math.Float32bits(f32(uint32(c*37))))
			}
		},
	}
}

// Hotspot models the thermal-simulation stencil: shared-memory tile,
// barriers, and a float compute chain per point.
func Hotspot(scale int, a Arena) Workload {
	const width = 256
	b := isa.NewBuilder("hotspot").ReserveRegs(24).SharedMem(3 * 1024)
	emitGid(b)
	b.LdParam(3, 0)
	b.IAdd(3, 3, 1)
	b.LdG(4, 3, 0) // temp[i]
	b.LdParam(5, 1)
	b.IAdd(5, 5, 1)
	b.LdG(6, 5, 0) // power[i]
	b.S2R(7, isa.SrTidX)
	b.ShlImm(8, 7, 2)
	b.StS(8, 0, 4) // tile[tid] = temp
	b.Bar()
	// Neighbours within the tile (wrapping), plus the global row above.
	b.IAddImm(9, 7, 1)
	b.AndImm(9, 9, 255)
	b.ShlImm(9, 9, 2)
	b.LdS(10, 9, 0) // right
	b.IAddImm(11, 7, 255)
	b.AndImm(11, 11, 255)
	b.ShlImm(11, 11, 2)
	b.LdS(12, 11, 0) // left
	b.LdG(13, 3, 4*width)
	b.LdG(14, 3, -4*width)
	b.FAdd(15, 10, 12)
	b.FAdd(16, 13, 14)
	b.FAdd(15, 15, 16)
	b.MovImm(17, math.Float32bits(0.25))
	b.FMul(15, 15, 17)
	b.ISub(18, 15, 4) // delta (bit-level surrogate)
	b.MovImm(19, math.Float32bits(0.5))
	b.FFma(20, 6, 19, 4)
	b.FAdd(20, 20, 18)
	b.Bar()
	b.LdParam(21, 2)
	b.IAdd(21, 21, 1)
	b.StG(21, 0, 20)
	b.Exit()
	k := b.MustBuild()

	grid := 240 * scale
	return Workload{
		Name:        "hotspot",
		Description: "thermal stencil with shared tile and barriers (warp-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(256),
			Params:   []uint32{a.bufA() + 4*width, a.bufB(), a.bufC()},
		},
	}
}

// MonteCarlo models an embarrassingly parallel path simulation: an
// xorshift generator feeding SFU-heavy math, nearly no memory traffic.
// Scheduling limited but compute bound, so VT gains little — included for
// suite diversity, as in the paper.
func MonteCarlo(scale int, a Arena) Workload {
	const paths = 16
	b := isa.NewBuilder("montecarlo").ReserveRegs(18)
	emitGid(b)
	b.IAddImm(3, 0, 12345) // seed = gid + 12345
	b.MovImm(4, 0)         // acc
	b.MovImm(5, 0)         // i
	b.Label("loop")
	// xorshift32
	b.ShlImm(6, 3, 13)
	b.Xor(3, 3, 6)
	b.ShrImm(6, 3, 17)
	b.Xor(3, 3, 6)
	b.ShlImm(6, 3, 5)
	b.Xor(3, 3, 6)
	// Map to [1,2) float and run transcendental chain.
	b.ShrImm(7, 3, 9)
	b.MovImm(8, 0x3F800000)
	b.Or(7, 7, 8)
	b.FSin(9, 7)
	b.MovImm(10, math.Float32bits(0.1))
	b.FMul(9, 9, 10)
	b.FExp(11, 9)
	b.FAdd(4, 4, 11)
	b.IAddImm(5, 5, 1)
	b.SetpImm(12, isa.CmpILT, 5, paths)
	b.Bra(12, "loop", "done")
	b.Label("done")
	b.LdParam(13, 0)
	b.IAdd(13, 13, 1)
	b.StG(13, 0, 4)
	b.Exit()
	k := b.MustBuild()

	grid := 480 * scale
	return Workload{
		Name:        "montecarlo",
		Description: "SFU-heavy path simulation (CTA-slot limited, compute bound)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(64),
			Params:   []uint32{a.bufA()},
		},
	}
}
