package kernels

import (
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
)

// graphCSR deterministically builds a banded CSR adjacency for n nodes
// with degrees in [1, 8) and neighbours within ±512 of the node, the
// locality profile of mesh-derived graphs and band matrices. The locality
// keeps gathers cache-friendly so the workload is memory-latency bound
// rather than bandwidth bound — the regime the paper's benchmarks occupy.
func graphCSR(n int) (rows, cols []uint32) {
	rows = make([]uint32, n+1)
	for i := 0; i < n; i++ {
		deg := uint32(i*7+3)%7 + 1
		rows[i+1] = rows[i] + deg
	}
	cols = make([]uint32, rows[n])
	e := 0
	for i := 0; i < n; i++ {
		for ; e < int(rows[i+1]); e++ {
			delta := int(lcg(uint32(e))%128) - 64
			j := i + delta
			if j < 0 {
				j += n
			}
			if j >= n {
				j -= n
			}
			cols[e] = uint32(j)
		}
	}
	return rows, cols
}

// BFS models one level-expansion iteration of breadth-first search: tiny
// CTAs (CTA-slot limited), heavy branch divergence, and irregular
// data-dependent gathers — the archetypal workload the paper's motivation
// highlights.
func BFS(scale int, a Arena) Workload {
	const curLevel = 1
	const nNodes = 16384 // fixed L2-resident graph, reused across the grid
	b := isa.NewBuilder("bfs")
	emitGid(b)
	b.AndImm(0, 0, nNodes-1) // node = gid mod graph size
	b.ShlImm(1, 0, 2)
	b.LdParam(4, 0) // levels base
	b.LdParam(5, 1) // rows base
	b.LdParam(6, 2) // cols base
	b.IAdd(7, 4, 1)
	b.LdG(8, 7, 0) // level[node]
	b.SetpImm(9, isa.CmpINE, 8, curLevel)
	b.Bra(9, "end", "end") // not on the frontier: skip
	b.IAdd(10, 5, 1)
	b.LdG(11, 10, 0) // rowStart
	b.LdG(12, 10, 4) // rowEnd
	b.Label("loop")
	b.Setp(13, isa.CmpILT, 11, 12)
	b.Bra(13, "body", "end")
	b.Jmp("end")
	b.Label("body")
	b.ShlImm(14, 11, 2)
	b.IAdd(14, 6, 14)
	b.LdG(15, 14, 0) // neighbour id
	b.ShlImm(16, 15, 2)
	b.IAdd(16, 4, 16)
	b.LdG(17, 16, 0) // neighbour level
	b.SetpImm(18, isa.CmpIEQ, 17, -1)
	b.Bra(18, "write", "cont")
	b.Jmp("cont")
	b.Label("write")
	b.MovImm(19, curLevel+1)
	b.StG(16, 0, 19)
	b.Label("cont")
	b.IAddImm(11, 11, 1)
	b.Jmp("loop")
	b.Label("end")
	b.Exit()
	k := b.MustBuild()

	grid := 480 * scale
	n := nNodes
	levelsBuf, rowsBuf, colsBuf := a.bufA(), a.bufB(), a.bufC()
	return Workload{
		Name:        "bfs",
		Description: "BFS level expansion: divergent, irregular (CTA-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(64),
			Params:   []uint32{a.bufA(), a.bufB(), a.bufC()},
		},
		Init: func(bk *mem.Backing) {
			rows, cols := graphCSR(n)
			bk.WriteWords(rowsBuf, rows)
			bk.WriteWords(colsBuf, cols)
			levels := make([]uint32, n)
			for i := range levels {
				if i%4 == 0 {
					levels[i] = curLevel // frontier
				} else {
					levels[i] = 0xFFFFFFFF // unvisited
				}
			}
			bk.WriteWords(levelsBuf, levels)
		},
	}
}

// SpMV models ELLPACK sparse matrix-vector multiply, one row per thread:
// the matrix is stored column-major (coalesced across the warp) with a
// fixed slot count, and the x-vector gathers follow the band structure of
// mesh matrices, making the kernel memory-latency bound.
func SpMV(scale int, a Arena) Workload {
	const slots = 4
	const nRows = 8192 // fixed L2-resident matrix, reused across the grid
	b := isa.NewBuilder("spmv")
	emitGid(b)
	b.AndImm(10, 0, nRows-1) // row = gid mod matrix height
	b.ShlImm(13, 10, 2)      // byte offset of row within a column
	b.LdParam(5, 0)          // cols (ELL, column-major)
	b.LdParam(6, 1)          // vals (ELL, column-major)
	b.LdParam(7, 2)          // x
	b.LdParam(20, 4)
	b.LdG(21, 20, 0) // n (number of rows), uniform load
	b.ShlImm(22, 21, 2)
	b.MovImm(11, 0) // acc = 0.0f
	b.MovImm(9, 0)  // slot index
	b.Label("loop")
	b.IAdd(14, 5, 13)
	b.LdG(15, 14, 0) // col index (coalesced)
	b.IAdd(16, 6, 13)
	b.LdG(17, 16, 0) // A value (coalesced)
	b.ShlImm(18, 15, 2)
	b.IAdd(18, 7, 18)
	b.LdG(19, 18, 0) // x[col] banded gather
	b.FFma(11, 17, 19, 11)
	b.IAdd(13, 13, 22) // next column slot
	b.IAddImm(9, 9, 1)
	b.SetpImm(12, isa.CmpILT, 9, slots)
	b.Bra(12, "loop", "after")
	b.Label("after")
	b.LdParam(23, 3)
	b.IAdd(23, 23, 1)
	b.StG(23, 0, 11)
	b.Exit()
	k := b.MustBuild()

	grid := 480 * scale
	n := nRows
	colsBuf, valsBuf, xBuf, nBuf := a.bufA(), a.bufB(), a.bufC(), a.bufE()
	return Workload{
		Name:        "spmv",
		Description: "ELL sparse y=Ax, row per thread (CTA-slot limited)",
		Launch: &isa.Launch{
			Kernel:   k,
			GridDim:  isa.Dim1(grid),
			BlockDim: isa.Dim1(96),
			Params:   []uint32{a.bufA(), a.bufB(), a.bufC(), a.bufD(), a.bufE()},
		},
		Init: func(bk *mem.Backing) {
			// Column-major ELL: element s of row r at index s*n + r.
			cols := make([]uint32, slots*n)
			vals := make([]uint32, slots*n)
			for r := 0; r < n; r++ {
				deg := int(uint32(r*7+3)%7) + 1
				for s := 0; s < slots; s++ {
					idx := s*n + r
					if s < deg {
						delta := int(lcg(uint32(r*slots+s))%128) - 64
						j := r + delta
						if j < 0 {
							j += n
						}
						if j >= n {
							j -= n
						}
						cols[idx] = uint32(j)
						vals[idx] = math.Float32bits(f32(uint32(idx)))
					} else {
						cols[idx] = uint32(r) // padded: value 0
						vals[idx] = 0
					}
				}
			}
			bk.WriteWords(colsBuf, cols)
			bk.WriteWords(valsBuf, vals)
			x := make([]uint32, n)
			for i := range x {
				x[i] = math.Float32bits(f32(lcg(uint32(i))))
			}
			bk.WriteWords(xBuf, x)
			// n is passed through memory so the kernel can stride
			// column-major without a multiply chain.
			bk.StoreWord(nBuf, uint32(n))
		},
	}
}
