package warp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/simt"
)

func simpleLaunch(t *testing.T, k *isa.Kernel, grid, block int, params ...uint32) *isa.Launch {
	t.Helper()
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(grid), BlockDim: isa.Dim1(block), Params: params}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return l
}

// runWarp drives a warp to completion with no timing: issues the next
// instruction every step.
func runWarp(t *testing.T, w *Warp, code []isa.Instr, gmem *mem.Backing) {
	t.Helper()
	buf := make([]uint32, 64)
	for steps := 0; !w.Finished; steps++ {
		if steps > 100000 {
			t.Fatal("warp did not finish")
		}
		pc, active, ok := w.Stack.Current()
		if !ok {
			break
		}
		Execute(w, &code[pc], active, gmem, buf)
	}
}

func TestScoreboard(t *testing.T) {
	var sb Scoreboard
	in := isa.Instr{Op: isa.OpIAdd, Dst: 2, SrcA: 0, SrcB: 1}
	in.Decode()

	if c, _ := sb.Conflicts(&in); c {
		t.Fatal("empty scoreboard must not conflict")
	}
	sb.MarkPending(0, false) // RAW on SrcA, short latency
	c, onLoad := sb.Conflicts(&in)
	if !c || onLoad {
		t.Fatalf("RAW short: conflict=%v onLoad=%v", c, onLoad)
	}
	sb.ClearPending(0)
	sb.MarkPending(1, true) // RAW on SrcB, load
	c, onLoad = sb.Conflicts(&in)
	if !c || !onLoad {
		t.Fatalf("RAW load: conflict=%v onLoad=%v", c, onLoad)
	}
	sb.ClearPending(1)
	sb.MarkPending(2, false) // WAW on Dst
	if c, _ := sb.Conflicts(&in); !c {
		t.Fatal("WAW must conflict")
	}
	sb.ClearPending(2)
	if sb.Busy() {
		t.Fatal("cleared scoreboard must be idle")
	}
	// RZ never conflicts.
	sb.MarkPending(isa.RZ, true)
	if sb.Busy() {
		t.Fatal("RZ must not be tracked")
	}
}

func TestNewCTAShapes(t *testing.T) {
	k := isa.NewBuilder("k").ReserveRegs(4).SharedMem(256).Nop().Exit().MustBuild()
	l := simpleLaunch(t, k, 6, 96)
	c := NewCTA(l, 4, 32)
	if c.ID != (isa.Dim3{X: 4, Y: 0, Z: 0}) {
		t.Errorf("CTA id = %v", c.ID)
	}
	if len(c.Warps) != 3 {
		t.Fatalf("warps = %d, want 3", len(c.Warps))
	}
	if len(c.SMem) != 64 {
		t.Errorf("smem words = %d, want 64", len(c.SMem))
	}
	for i, w := range c.Warps {
		if w.Lanes != 32 {
			t.Errorf("warp %d lanes = %d", i, w.Lanes)
		}
		if len(w.Regs) != 4*32 {
			t.Errorf("warp %d regs = %d", i, len(w.Regs))
		}
	}
}

func TestPartialLastWarp(t *testing.T) {
	k := isa.NewBuilder("k").Nop().Exit().MustBuild()
	l := simpleLaunch(t, k, 1, 40) // 40 threads = 1 full warp + 8 lanes
	c := NewCTA(l, 0, 32)
	if len(c.Warps) != 2 {
		t.Fatalf("warps = %d, want 2", len(c.Warps))
	}
	if c.Warps[1].Lanes != 8 {
		t.Fatalf("partial warp lanes = %d, want 8", c.Warps[1].Lanes)
	}
	_, active, _ := c.Warps[1].Stack.Current()
	if active.Count() != 8 {
		t.Fatalf("partial warp active = %d, want 8", active.Count())
	}
}

func TestMultiDimCTAID(t *testing.T) {
	k := isa.NewBuilder("k").Nop().Exit().MustBuild()
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim3{X: 3, Y: 2, Z: 2}, BlockDim: isa.Dim1(32)}
	c := NewCTA(l, 7, 32) // 7 = x=1, y=0, z=1 in a 3x2 grid
	if c.ID != (isa.Dim3{X: 1, Y: 0, Z: 1}) {
		t.Errorf("CTA id = %v, want (1,0,1)", c.ID)
	}
}

func TestExecuteALUAndSpecials(t *testing.T) {
	// out[tid] = tid * p0 + ctaid
	b := isa.NewBuilder("alu")
	b.S2R(0, isa.SrTidX)
	b.LdParam(1, 0)
	b.IMul(2, 0, 1)
	b.S2R(3, isa.SrCTAIdX)
	b.IAdd(2, 2, 3)
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 4, 32, 10)
	c := NewCTA(l, 2, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	for lane := 0; lane < 4; lane++ {
		want := uint32(lane*10 + 2)
		if got := w.Reg(2, lane); got != want {
			t.Errorf("lane %d: R2 = %d, want %d", lane, got, want)
		}
	}
}

func TestExecuteGlobalMemory(t *testing.T) {
	// out[tid] = in[tid] + 1
	b := isa.NewBuilder("memtest")
	b.S2R(0, isa.SrTidX)
	b.ShlImm(1, 0, 2) // byte offset
	b.LdParam(2, 0)   // in base
	b.IAdd(3, 2, 1)
	b.LdG(4, 3, 0)
	b.IAddImm(4, 4, 1)
	b.LdParam(5, 1) // out base
	b.IAdd(6, 5, 1)
	b.StG(6, 0, 4)
	b.Exit()
	k := b.MustBuild()

	gmem := mem.NewBacking()
	const inBase, outBase = 0x1000, 0x2000
	gmem.WriteWords(inBase, []uint32{100, 200, 300, 400})

	l := simpleLaunch(t, k, 1, 32, inBase, outBase)
	c := NewCTA(l, 0, 32)
	runWarp(t, c.Warps[0], k.Code, gmem)

	for i, want := range []uint32{101, 201, 301, 401} {
		if got := gmem.LoadWord(outBase + uint32(4*i)); got != want {
			t.Errorf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestExecuteSharedMemory(t *testing.T) {
	// smem[tid] = tid; bar; r = smem[blockDim-1-tid]
	b := isa.NewBuilder("smem")
	b.SharedMem(128)
	b.S2R(0, isa.SrTidX)
	b.ShlImm(1, 0, 2)
	b.StS(1, 0, 0)
	b.S2R(2, isa.SrNTidX)
	b.IAddImm(2, 2, -1)
	b.ISub(2, 2, 0) // blockDim-1-tid
	b.ShlImm(2, 2, 2)
	b.LdS(3, 2, 0)
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 1, 32)
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	for lane := 0; lane < 32; lane++ {
		if got := w.Reg(3, lane); got != uint32(31-lane) {
			t.Errorf("lane %d read %d, want %d", lane, got, 31-lane)
		}
	}
}

func TestExecuteDivergentBranch(t *testing.T) {
	// if (tid < 2) r1 = 100 else r1 = 200
	b := isa.NewBuilder("div")
	b.S2R(0, isa.SrTidX)
	b.SetpImm(1, isa.CmpILT, 0, 2)
	b.Bra(1, "then", "join")
	b.MovImm(2, 200)
	b.Jmp("join")
	b.Label("then")
	b.MovImm(2, 100)
	b.Label("join")
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 1, 32)
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	for lane := 0; lane < 4; lane++ {
		want := uint32(200)
		if lane < 2 {
			want = 100
		}
		if got := w.Reg(2, lane); got != want {
			t.Errorf("lane %d: R2 = %d, want %d", lane, got, want)
		}
	}
}

func TestExecuteLoop(t *testing.T) {
	// r0 = 0; for i in 0..tid: r0 += 2   (divergent trip counts)
	b := isa.NewBuilder("loop")
	b.S2R(0, isa.SrTidX) // trip count = tid
	b.MovImm(1, 0)       // acc
	b.MovImm(2, 0)       // i
	b.Label("head")
	b.Setp(3, isa.CmpILT, 2, 0)
	b.Bra(3, "body", "done")
	b.Jmp("done")
	b.Label("body")
	b.IAddImm(1, 1, 2)
	b.IAddImm(2, 2, 1)
	b.Jmp("head")
	b.Label("done")
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 1, 32)
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	for lane := 0; lane < 8; lane++ {
		if got := w.Reg(1, lane); got != uint32(2*lane) {
			t.Errorf("lane %d acc = %d, want %d", lane, got, 2*lane)
		}
	}
}

func TestExecuteFloatOps(t *testing.T) {
	b := isa.NewBuilder("float")
	b.MovImm(0, fbits(3.0))
	b.MovImm(1, fbits(4.0))
	b.FMul(2, 0, 1)    // 12
	b.FAdd(3, 2, 0)    // 15
	b.FFma(4, 0, 1, 3) // 27
	b.FSqrt(5, 1)      // 2
	b.FRcp(6, 1)       // 0.25
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 1, 32)
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	checks := []struct {
		r    isa.Reg
		want float32
	}{{2, 12}, {3, 15}, {4, 27}, {5, 2}, {6, 0.25}}
	for _, c2 := range checks {
		if got := ffrom(w.Reg(c2.r, 0)); got != c2.want {
			t.Errorf("R%d = %v, want %v", c2.r, got, c2.want)
		}
	}
}

func TestExecuteBarrierFlag(t *testing.T) {
	b := isa.NewBuilder("bar")
	b.Bar()
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 1, 64)
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	buf := make([]uint32, 32)
	_, active, _ := w.Stack.Current()
	info := Execute(w, &k.Code[0], active, mem.NewBacking(), buf)
	if !info.IsBar {
		t.Fatal("barrier must be flagged")
	}
	pc, _, _ := w.Stack.Current()
	if pc != 1 {
		t.Fatalf("pc after barrier = %d, want 1", pc)
	}
}

func TestBlockedState(t *testing.T) {
	b := isa.NewBuilder("blk")
	b.IAdd(2, 0, 1)
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 1, 32)
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]

	if got := w.BlockedState(k.Code); got != BlockedNot {
		t.Fatalf("fresh warp blocked = %v", got)
	}
	w.SB.MarkPending(0, false)
	if got := w.BlockedState(k.Code); got != BlockedALU {
		t.Fatalf("ALU dep blocked = %v", got)
	}
	w.SB.MarkPending(1, true)
	if got := w.BlockedState(k.Code); got != BlockedMem {
		t.Fatalf("load dep blocked = %v", got)
	}
	w.SB = Scoreboard{}
	w.AtBarrier = true
	if got := w.BlockedState(k.Code); got != BlockedBarrier {
		t.Fatalf("barrier blocked = %v", got)
	}
	w.AtBarrier = false
	w.Finished = true
	if got := w.BlockedState(k.Code); got != BlockedDone {
		t.Fatalf("finished blocked = %v", got)
	}
	if BlockedNot.String() != "ready" || BlockedMem.String() != "mem-dep" {
		t.Error("blocked names wrong")
	}
}

func TestCTABarrierBookkeeping(t *testing.T) {
	k := isa.NewBuilder("k").Bar().Exit().MustBuild()
	l := simpleLaunch(t, k, 1, 64)
	c := NewCTA(l, 0, 32)
	c.Arrived = 1
	if c.BarrierReleased() {
		t.Fatal("one of two warps must not release")
	}
	c.Arrived = 2
	if !c.BarrierReleased() {
		t.Fatal("all warps arrived must release")
	}
	c.Arrived, c.Finished = 1, 1
	if !c.BarrierReleased() {
		t.Fatal("finished warps count toward release")
	}
	if c.Done() {
		t.Fatal("not all warps finished")
	}
	c.Finished = 2
	if !c.Done() {
		t.Fatal("all warps finished must be done")
	}
}

func TestCTAStateString(t *testing.T) {
	names := map[CTAState]string{
		CTAPending:         "pending",
		CTAActive:          "active",
		CTAInactiveWaiting: "inactive-waiting",
		CTAInactiveReady:   "inactive-ready",
		CTADone:            "done",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestContextFootprint(t *testing.T) {
	k := isa.NewBuilder("k").Nop().Exit().MustBuild()
	l := simpleLaunch(t, k, 1, 32)
	c := NewCTA(l, 0, 32)
	fp := c.Warps[0].ContextFootprintBytes()
	if fp <= 0 || fp > 1024 {
		t.Fatalf("footprint = %d, implausible", fp)
	}
}

// Property: RegMask set/clear/has behave as a set for arbitrary registers.
func TestRegMaskProperty(t *testing.T) {
	f := func(rs []uint8) bool {
		var m RegMask
		seen := map[isa.Reg]bool{}
		for _, r8 := range rs {
			r := isa.Reg(r8)
			if seen[r] {
				m.Clear(r)
				seen[r] = false
			} else {
				m.Set(r)
				seen[r] = true
			}
		}
		for r := 0; r < 256; r++ {
			if m.Has(isa.Reg(r)) != seen[isa.Reg(r)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: execute-at-issue never writes registers of inactive lanes, and
// the row kernels compute exactly what the per-lane reference computes.
func TestInactiveLanesUntouchedProperty(t *testing.T) {
	t.Run("divergent-write", func(t *testing.T) {
		b := isa.NewBuilder("p")
		b.S2R(0, isa.SrTidX)
		b.SetpImm(1, isa.CmpILT, 0, 7)
		b.Bra(1, "then", "join")
		b.Jmp("join")
		b.Label("then")
		b.MovImm(2, 0xDEAD)
		b.Label("join")
		b.Exit()
		k := b.MustBuild()
		l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(1), BlockDim: isa.Dim1(32)}
		c := NewCTA(l, 0, 32)
		w := c.Warps[0]
		runWarp(t, w, k.Code, mem.NewBacking())
		for lane := 0; lane < 32; lane++ {
			got := w.Reg(2, lane)
			if lane < 7 && got != 0xDEAD {
				t.Errorf("active lane %d missed write: %x", lane, got)
			}
			if lane >= 7 && got != 0 {
				t.Errorf("inactive lane %d corrupted: %x", lane, got)
			}
		}
	})
	t.Run("rows-vs-lanes", testRowKernelEquivalence)
	t.Run("missing-param", func(t *testing.T) {
		// Out of range must panic naming the kernel from the row kernels
		// too, dense or sparse, even when the destination is RZ.
		for _, dst := range []isa.Reg{3, isa.RZ} {
			for _, active := range []simt.Mask{simt.FullMask(32), 0x10, 0xF0F0} {
				for _, ref := range []bool{false, true} {
					func() {
						defer func() {
							msg, _ := recover().(string)
							if !strings.Contains(msg, `kernel "lanes"`) || !strings.Contains(msg, "param 7") {
								t.Errorf("dst %v mask %x ref %v: panic %q does not name the kernel and parameter",
									dst, uint64(active), ref, msg)
							}
						}()
						ws := newLaneRig(1, 0, active)
						in := isa.Instr{Op: isa.OpLdParam, Dst: dst, Imm: 7}
						in.Decode()
						ws.run(&in, ref)
					}()
				}
			}
		}
	})
	for _, v := range zeroRow {
		if v != 0 {
			t.Fatal("the shared zero row was written")
		}
	}
}

// laneRig is one warp over a seeded register file, shared memory and
// global memory, positioned at a single SIMT entry with the given mask.
type laneRig struct {
	w      *Warp
	gmem   *mem.Backing
	active simt.Mask
	buf    []uint32
}

func newLaneRig(seed int64, warpIdx int, active simt.Mask) *laneRig {
	k := isa.NewKernel("lanes", make([]isa.Instr, 8), 6, 96)
	// 52 threads: warp 0 is full, warp 1 is the partial last warp (20 lanes).
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim3{X: 3, Y: 2, Z: 1}, BlockDim: isa.Dim3{X: 13, Y: 2, Z: 2},
		Params: []uint32{0x1000, 0xBEEF, 7}}
	c := NewCTA(l, 4, 32)
	rng := rand.New(rand.NewSource(seed))
	w := c.Warps[warpIdx]
	for i := range w.Regs {
		switch rng.Intn(4) {
		case 0:
			w.Regs[i] = uint32(rng.Intn(5)) // small: zero predicates, equal operands
		case 1:
			w.Regs[i] = math.Float32bits(float32(rng.NormFloat64() * 8))
		default:
			w.Regs[i] = rng.Uint32()
		}
		// Keep NaNs out of the registers (the immediates bring one in):
		// when two operands of one float op are NaNs with different
		// payloads, which payload survives is the host FPU's choice by
		// operand order, and the compiler may order the operands of the
		// same expression differently at two sites.
		if w.Regs[i]&0x7F80_0000 == 0x7F80_0000 && w.Regs[i]&0x007F_FFFF != 0 {
			w.Regs[i] &^= 0x0080_0000
		}
	}
	for i := range c.SMem {
		c.SMem[i] = rng.Uint32()
	}
	// A few stored words in the page the small register values address;
	// everything else reads as the backing's synthesized contents.
	g := mem.NewBacking()
	for i := 0; i < 8; i++ {
		g.StoreWord(uint32(rng.Intn(16))*4, rng.Uint32())
	}
	w.Stack.SetState([]simt.Entry{{PC: 0, Reconv: -1, Mask: active}}, 0)
	return &laneRig{w: w, gmem: g, active: active, buf: make([]uint32, 32)}
}

func (r *laneRig) run(in *isa.Instr, ref bool) ExecInfo {
	if ref {
		return ExecuteRef(r.w, in, r.active, r.gmem, r.buf)
	}
	return Execute(r.w, in, r.active, r.gmem, r.buf)
}

// testRowKernelEquivalence runs every opcode, with the immediate and the
// register form, RZ in each operand position, the destination aliasing
// each source, under full, single-lane, sparse and partial-last-warp
// masks, through the row kernels and through the per-lane reference from
// identical state, and requires identical registers (every lane of every
// register, so inactive lanes and untouched registers count), shared and
// global memory, SIMT stack and ExecInfo.
func testRowKernelEquivalence(t *testing.T) {
	type regs struct{ d, a, b, c isa.Reg }
	operands := []regs{
		{3, 0, 1, 2},
		{isa.RZ, 0, 1, 2}, {3, isa.RZ, 1, 2}, {3, 0, isa.RZ, 2}, {3, 0, 1, isa.RZ},
		{isa.RZ, isa.RZ, isa.RZ, isa.RZ},
		{0, 0, 1, 2}, {1, 0, 1, 2}, {2, 0, 1, 2}, {4, 4, 4, 4},
	}
	masks := []struct {
		name   string
		warp   int
		active simt.Mask
	}{
		{"full", 0, simt.FullMask(32)},
		{"lane0", 0, 1},
		{"lane19", 0, 1 << 19},
		{"sparse", 0, 0x8421_F00D},
		{"sparse-low", 0, 0x0000_0A5B},
		{"partial-last-warp", 1, simt.FullMask(20)},
		{"partial-sparse", 1, 0x000A_0A05},
	}
	ops := []isa.Opcode{
		isa.OpNop, isa.OpMov, isa.OpS2R, isa.OpLdParam,
		isa.OpIAdd, isa.OpISub, isa.OpIMul, isa.OpIMad, isa.OpIMin, isa.OpIMax,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
		isa.OpFAdd, isa.OpFMul, isa.OpFFma, isa.OpFRcp, isa.OpFSqrt, isa.OpFSin, isa.OpFExp,
		isa.OpSetp, isa.OpSelp,
		isa.OpLdGlobal, isa.OpStGlobal, isa.OpLdShared, isa.OpStShared, isa.OpAtomAdd,
		isa.OpBra, isa.OpJmp, isa.OpBar, isa.OpExit,
	}
	imms := []uint32{0, 1, 5, 0xFFFF_FFFC, math.Float32bits(1.5)}

	cases := 0
	for _, op := range ops {
		// selectors: comparison kinds for setp, special registers for s2r,
		// parameter indices for ldparam; one pass otherwise.
		selectors := 1
		switch op {
		case isa.OpSetp:
			selectors = int(isa.CmpFGT) + 1
		case isa.OpS2R:
			selectors = int(isa.SrWarpID) + 1
		case isa.OpLdParam:
			selectors = 3
		}
		for sel := 0; sel < selectors; sel++ {
			for _, useImm := range []bool{false, true} {
				for ii, imm := range imms {
					if !useImm && ii > 0 && op.Unit() != isa.UnitMem {
						continue // the immediate is unread
					}
					for _, r := range operands {
						for _, m := range masks {
							in := isa.Instr{Op: op, Dst: r.d, SrcA: r.a, SrcB: r.b, SrcC: r.c,
								Imm: imm, UseImm: useImm, Target: 5, Reconv: 6}
							switch op {
							case isa.OpSetp:
								if useImm {
									in.Target = int32(sel)
								} else {
									in.Imm = uint32(sel)
								}
							case isa.OpS2R, isa.OpLdParam:
								in.Imm = uint32(sel)
							}
							in.Decode()
							cases++
							seed := int64(cases)
							rows, lanes := newLaneRig(seed, m.warp, m.active), newLaneRig(seed, m.warp, m.active)
							before := append([]uint32(nil), rows.w.Regs...)
							gi, wi := rows.run(&in, false), lanes.run(&in, true)
							name := fmt.Sprintf("%v useImm=%v imm=%#x sel=%d regs=%v mask=%s", op, useImm, imm, sel, r, m.name)

							if !reflect.DeepEqual(rows.w.Regs, lanes.w.Regs) {
								t.Fatalf("%s: registers differ\nrows:  %x\nlanes: %x", name, rows.w.Regs, lanes.w.Regs)
							}
							for i, v := range rows.w.Regs {
								if lane := i % 32; !m.active.Has(lane) && v != before[i] {
									t.Fatalf("%s: inactive lane %d of r%d written", name, lane, i/32)
								}
							}
							if !reflect.DeepEqual(rows.w.CTA.SMem, lanes.w.CTA.SMem) {
								t.Fatalf("%s: shared memory differs", name)
							}
							if !reflect.DeepEqual(rows.w.Stack.Entries(), lanes.w.Stack.Entries()) ||
								rows.w.Stack.Exited() != lanes.w.Stack.Exited() || rows.w.Finished != lanes.w.Finished {
								t.Fatalf("%s: SIMT stack differs: %v vs %v", name, rows.w.Stack.String(), lanes.w.Stack.String())
							}
							if gi.Active != wi.Active || gi.Lanes != wi.Lanes || gi.IsExit != wi.IsExit ||
								gi.IsBar != wi.IsBar || gi.MemOp != wi.MemOp || len(gi.Addrs) != len(wi.Addrs) {
								t.Fatalf("%s: ExecInfo differs: %+v vs %+v", name, gi, wi)
							}
							if rows.gmem.TouchedWords() != lanes.gmem.TouchedWords() {
								t.Fatalf("%s: global memory footprint differs", name)
							}
							for lane := 0; gi.MemOp && lane < 32; lane++ {
								if !m.active.Has(lane) {
									continue
								}
								if gi.Addrs[lane] != wi.Addrs[lane] {
									t.Fatalf("%s: lane %d address %#x vs %#x", name, lane, gi.Addrs[lane], wi.Addrs[lane])
								}
								if a := gi.Addrs[lane]; rows.gmem.LoadWord(a) != lanes.gmem.LoadWord(a) {
									t.Fatalf("%s: global word %#x differs", name, a)
								}
							}

						}
					}
				}
			}
		}
	}
	t.Logf("%d instruction forms compared", cases)
}
