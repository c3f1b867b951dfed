package gpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
)

// vecAddKernel builds out[i] = a[i] + b[i] over grid*block threads.
func vecAddKernel(t testing.TB) *isa.Kernel {
	b := isa.NewBuilder("vecadd_test")
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(1, isa.SrNTidX)
	b.IMul(2, 0, 1)
	b.S2R(3, isa.SrTidX)
	b.IAdd(2, 2, 3)   // gid
	b.ShlImm(2, 2, 2) // byte offset
	b.LdParam(4, 0)
	b.IAdd(4, 4, 2)
	b.LdG(5, 4, 0) // a[gid]
	b.LdParam(6, 1)
	b.IAdd(6, 6, 2)
	b.LdG(7, 6, 0) // b[gid]
	b.IAdd(8, 5, 7)
	b.LdParam(9, 2)
	b.IAdd(9, 9, 2)
	b.StG(9, 0, 8)
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

const (
	aBase   = 0x0010_0000
	bBase   = 0x0020_0000
	outBase = 0x0030_0000
)

func vecAddLaunch(t testing.TB, ctas, block int) *isa.Launch {
	return &isa.Launch{
		Kernel:   vecAddKernel(t),
		GridDim:  isa.Dim1(ctas),
		BlockDim: isa.Dim1(block),
		Params:   []uint32{aBase, bBase, outBase},
	}
}

func initVec(n int) func(*mem.Backing) {
	return func(bk *mem.Backing) {
		for i := 0; i < n; i++ {
			bk.StoreWord(aBase+uint32(4*i), uint32(i))
			bk.StoreWord(bBase+uint32(4*i), uint32(2*i))
		}
	}
}

func TestRunVecAddFunctional(t *testing.T) {
	const ctas, block = 8, 64
	n := ctas * block
	cfg := config.Small()
	var out *mem.Backing
	res, err := Run(vecAddLaunch(t, ctas, block), cfg, Options{
		InitMemory:  initVec(n),
		KeepBacking: func(bk *mem.Backing) { out = bk },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	for i := 0; i < n; i++ {
		if got := out.LoadWord(outBase + uint32(4*i)); got != uint32(3*i) {
			t.Fatalf("out[%d] = %d, want %d", i, got, 3*i)
		}
	}
	if res.SM.CTAsCompleted != ctas {
		t.Fatalf("CTAs completed = %d, want %d", res.SM.CTAsCompleted, ctas)
	}
	if res.SM.Issued == 0 || res.IPC() <= 0 {
		t.Fatal("no instructions issued")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := config.Small()
	l1 := vecAddLaunch(t, 16, 64)
	l2 := vecAddLaunch(t, 16, 64)
	r1, err := Run(l1, cfg, Options{InitMemory: initVec(1024)})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(l2, cfg, Options{InitMemory: initVec(1024)})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.SM.Issued != r2.SM.Issued {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d cycles/issued",
			r1.Cycles, r1.SM.Issued, r2.Cycles, r2.SM.Issued)
	}
}

func TestRunAllPolicies(t *testing.T) {
	for _, p := range []config.Policy{
		config.PolicyBaseline, config.PolicyVT, config.PolicyIdeal, config.PolicyFullSwap,
	} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := config.Small().WithPolicy(p)
			var out *mem.Backing
			const ctas, block = 12, 64
			n := ctas * block
			res, err := Run(vecAddLaunch(t, ctas, block), cfg, Options{
				InitMemory:  initVec(n),
				KeepBacking: func(bk *mem.Backing) { out = bk },
			})
			if err != nil {
				t.Fatal(err)
			}
			// Functional results must be policy-independent.
			for i := 0; i < n; i++ {
				if got := out.LoadWord(outBase + uint32(4*i)); got != uint32(3*i) {
					t.Fatalf("out[%d] = %d, want %d", i, got, 3*i)
				}
			}
			if res.SM.CTAsCompleted != ctas {
				t.Fatalf("CTAs completed = %d, want %d", res.SM.CTAsCompleted, ctas)
			}
		})
	}
}

func TestRunRejectsOversizedCTA(t *testing.T) {
	cfg := config.Small()
	b := isa.NewBuilder("fat").ReserveRegs(200).SharedMem(0)
	b.Nop().Exit()
	k := b.MustBuild()
	// 200 regs x 32 lanes x 32 warps = way beyond the register file.
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(1), BlockDim: isa.Dim1(1024)}
	if _, err := Run(l, cfg, Options{}); err == nil {
		t.Fatal("expected capacity rejection")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := config.Small()
	cfg.NumSMs = 0
	if _, err := Run(vecAddLaunch(t, 1, 32), cfg, Options{}); err == nil {
		t.Fatal("expected config rejection")
	}
}

// TestThreadInstrsConsistent: thread instructions = sum over issues of the
// active lane counts; for a divergence-free kernel it is exactly
// warp instructions x warp width except partial warps.
func TestThreadInstrsConsistent(t *testing.T) {
	cfg := config.Small()
	res, err := Run(vecAddLaunch(t, 4, 64), cfg, Options{InitMemory: initVec(256)})
	if err != nil {
		t.Fatal(err)
	}
	if res.SM.ThreadInstrs != res.SM.Issued*32 {
		t.Fatalf("thread instrs = %d, want %d (no divergence, full warps)",
			res.SM.ThreadInstrs, res.SM.Issued*32)
	}
}

// TestPolicyCycleOrdering: on a scheduling-limited memory-bound workload,
// ideal <= vt <= fullswap in cycles (with tolerance for vt==ideal ties).
func TestPolicyCycleOrdering(t *testing.T) {
	mkKernel := func() *isa.Kernel {
		b := isa.NewBuilder("order")
		b.S2R(0, isa.SrCTAIdX)
		b.ShlImm(1, 0, 7)
		b.S2R(2, isa.SrTidX)
		b.ShlImm(3, 2, 2)
		b.MovImm(4, 0)
		b.MovImm(5, 0)
		b.Label("l")
		b.LdParam(6, 0)
		b.IAdd(7, 6, 1)
		b.IAdd(7, 7, 3)
		b.LdG(8, 7, 0)
		b.IAdd(4, 4, 8)
		b.IAddImm(1, 1, 128*512+128)
		b.AndImm(1, 1, 0x3FFFF)
		b.IAddImm(5, 5, 1)
		b.SetpImm(9, isa.CmpILT, 5, 10)
		b.Bra(9, "l", "d")
		b.Label("d")
		b.Exit()
		return b.MustBuild()
	}
	run := func(p config.Policy) int64 {
		l := &isa.Launch{Kernel: mkKernel(), GridDim: isa.Dim1(64),
			BlockDim: isa.Dim1(64), Params: []uint32{0x100000}}
		res, err := Run(l, config.Small().WithPolicy(p), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	ideal, vt, fullswap := run(config.PolicyIdeal), run(config.PolicyVT), run(config.PolicyFullSwap)
	if !(float64(ideal) <= float64(vt)*1.02) {
		t.Fatalf("ideal (%d) must not be slower than VT (%d)", ideal, vt)
	}
	if !(vt <= fullswap) {
		t.Fatalf("VT (%d) must not be slower than fullswap (%d)", vt, fullswap)
	}
}

// mixedKernel exercises every readiness-flipping path the issue fast path
// caches: global loads (long-latency scoreboard), shared memory with a
// barrier, SFU instructions (structural hazards), plain ALU chains, and an
// atomic. out[gid] = f(a[gid]) staged through a shared tile.
func mixedKernel(t testing.TB) *isa.Kernel {
	b := isa.NewBuilder("mixed_test").SharedMem(256)
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(1, isa.SrNTidX)
	b.IMul(2, 0, 1)
	b.S2R(3, isa.SrTidX)
	b.IAdd(2, 2, 3)   // gid
	b.ShlImm(4, 2, 2) // gid byte offset
	b.LdParam(5, 0)
	b.IAdd(5, 5, 4)
	b.LdG(6, 5, 0)    // a[gid]
	b.ShlImm(7, 3, 2) // tid byte offset into the shared tile
	b.StS(7, 0, 6)
	b.Bar()
	b.LdS(8, 7, 0)
	b.FSin(9, 8)
	b.FRcp(10, 9)
	b.FMul(11, 10, 8)
	b.LdParam(12, 1)
	b.IAdd(12, 12, 4)
	b.StG(12, 0, 11)
	b.LdParam(13, 2)
	b.AtomAdd(14, 13, 0, 3)
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func mixedLaunch(t testing.TB, ctas, block int) *isa.Launch {
	const accumBase = 0x0040_0000
	return &isa.Launch{
		Kernel:   mixedKernel(t),
		GridDim:  isa.Dim1(ctas),
		BlockDim: isa.Dim1(block),
		Params:   []uint32{aBase, outBase, accumBase},
	}
}

// memLoopKernel strides loads across 4 KiB so every iteration misses:
// warps spend most cycles memory-blocked, which drives the VT controller
// through its full swap-out/swap-in cycle.
func memLoopKernel(t testing.TB, iters int) *isa.Kernel {
	b := isa.NewBuilder("memloop_test")
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(1, isa.SrNTidX)
	b.IMul(2, 0, 1)
	b.S2R(3, isa.SrTidX)
	b.IAdd(2, 2, 3)
	b.ShlImm(4, 2, 2)
	b.LdParam(5, 0)
	b.IAdd(5, 5, 4)
	b.MovImm(8, 0)
	b.MovImm(9, 0)
	b.Label("loop")
	b.LdG(6, 5, 0)
	b.IAdd(8, 8, 6)
	b.IAddImm(5, 5, 4096+128)
	b.AndImm(5, 5, 0x3FFFF)
	b.LdParam(7, 0)
	b.IAdd(5, 5, 7)
	b.IAddImm(9, 9, 1)
	b.SetpImm(10, isa.CmpILT, 9, int32(iters))
	b.Bra(10, "loop", "done")
	b.Label("done")
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}
