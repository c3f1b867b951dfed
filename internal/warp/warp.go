// Package warp defines the execution contexts of the simulated GPU — warps
// and CTAs — and the functional semantics of the ISA. A Warp owns all the
// per-warp state the hardware keeps: the SIMT stack, scoreboard, register
// values, and barrier/finish flags. Virtual Thread's central trick is that
// this state splits into a large capacity part (registers, shared memory)
// that stays resident and a tiny scheduling part (PC, SIMT stack,
// scoreboard) that is cheap to save and restore; the package keeps both in
// the Warp object so policies can bind and unbind warps from hardware warp
// slots freely.
package warp

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/simt"
)

// RegMask is a 256-bit register bitset used by the scoreboard. It lives in
// package isa so instructions can carry pre-decoded operand masks; the
// alias keeps this package's historical name working.
type RegMask = isa.RegMask

// Scoreboard tracks registers with outstanding writes, distinguishing
// long-latency producers (global loads) from short-latency ALU producers.
// The distinction drives Virtual Thread's swap trigger: a warp blocked on a
// global-load register is worth swapping out; one blocked on an ALU result
// is not.
type Scoreboard struct {
	pend RegMask // registers awaiting any writeback
	load RegMask // subset produced by outstanding global loads
}

// MarkPending records an outstanding write to r; longLatency tags global
// loads.
func (sb *Scoreboard) MarkPending(r isa.Reg, longLatency bool) {
	if r == isa.RZ {
		return
	}
	sb.pend.Set(r)
	if longLatency {
		sb.load.Set(r)
	}
}

// ClearPending retires the outstanding write to r.
func (sb *Scoreboard) ClearPending(r isa.Reg) {
	if r == isa.RZ {
		return
	}
	sb.pend.Clear(r)
	sb.load.Clear(r)
}

// Conflicts reports whether the instruction has a RAW or WAW hazard against
// outstanding writes, and whether any conflicting register is waiting on a
// global load. load is a subset of pend (MarkPending/ClearPending maintain
// them in lockstep), so the second answer is a load/HazMask intersection.
func (sb *Scoreboard) Conflicts(in *isa.Instr) (conflict, onLoad bool) {
	if !sb.pend.Intersects(&in.HazMask) {
		return false, false
	}
	return true, sb.load.Intersects(&in.HazMask)
}

// Busy reports whether any write is outstanding.
func (sb *Scoreboard) Busy() bool { return sb.pend.Any() }

// Snapshot returns a copy of the scoreboard (it is a value type already;
// provided for symmetry with the SIMT stack).
func (sb *Scoreboard) Snapshot() Scoreboard { return *sb }

// Masks returns the pending and load register masks — the scoreboard's
// complete serializable state.
func (sb *Scoreboard) Masks() (pend, load RegMask) { return sb.pend, sb.load }

// SetMasks replaces the scoreboard state (the inverse of Masks).
func (sb *Scoreboard) SetMasks(pend, load RegMask) { sb.pend, sb.load = pend, load }

// CTAState is the lifecycle state of a CTA on an SM. The inactive states
// exist only under the Virtual Thread policies.
type CTAState int

// CTA lifecycle states.
const (
	// CTAPending is assigned to the SM but never yet activated (VT).
	// Pending CTAs are ready by definition.
	CTAPending CTAState = iota
	// CTAActive owns warp slots and is being scheduled.
	CTAActive
	// CTARestoring owns warp slots but its context restore is still in
	// flight; its warps cannot issue yet (VT swap-in latency).
	CTARestoring
	// CTAInactiveWaiting is swapped out with outstanding global loads.
	CTAInactiveWaiting
	// CTAInactiveReady is swapped out and able to make progress.
	CTAInactiveReady
	// CTADone has retired all of its warps.
	CTADone
)

// String names the state for reports.
func (s CTAState) String() string {
	switch s {
	case CTAPending:
		return "pending"
	case CTAActive:
		return "active"
	case CTARestoring:
		return "restoring"
	case CTAInactiveWaiting:
		return "inactive-waiting"
	case CTAInactiveReady:
		return "inactive-ready"
	case CTADone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// CTA is one resident cooperative thread array: its warps, its functional
// shared memory, barrier bookkeeping, and the SM resource footprint it
// holds.
type CTA struct {
	FlatID   int      // linear CTA index within the grid
	KernelID int      // index of the launch in a multi-kernel run
	ID       isa.Dim3 // three-dimensional CTA index
	Launch   *isa.Launch
	Warps    []*Warp
	SMem     []uint32 // functional shared-memory words

	Arrived  int // warps currently parked at the barrier
	Finished int // warps that have exited

	RegsAlloc int // SM registers held (allocation-granular)
	SMemAlloc int // SM shared-memory bytes held
	Threads   int // thread slots the CTA occupies when active

	State       CTAState
	AssignedAt  int64 // cycle the CTA became resident
	ActivatedAt int64 // cycle of the most recent activation
	Activations int   // number of times the CTA gained warp slots

	// CtxCharged is the context-buffer bytes the VT controller charged
	// when this CTA was swapped out (0 while active). The charge is
	// recorded here rather than recomputed at release because functional
	// fast-forward spans can grow or shrink a swapped-out CTA's SIMT
	// stacks, and the buffer must release exactly what was charged.
	CtxCharged int

	// Derived scheduling state, owned by the SM the CTA is resident on and
	// rebuilt on checkpoint restore (see docs/ARCHITECTURE.md, "Derived
	// state and its single writer"). Seq is the CTA's position in the SM's
	// residency order (the tie-break of the ready-CTA set); Class counts
	// the CTA's warps by cached IssueState (all BlockedDone unless the CTA
	// is active); Stalled caches the VT swap trigger over those counts.
	Seq     int64
	Class   [NumBlocked]int32
	Stalled bool
}

// Done reports whether every warp has exited.
func (c *CTA) Done() bool { return c.Finished == len(c.Warps) }

// BarrierReleased reports whether all live warps have arrived.
func (c *CTA) BarrierReleased() bool {
	return c.Arrived > 0 && c.Arrived+c.Finished == len(c.Warps)
}

// Warp is one warp's complete execution context.
type Warp struct {
	CTA      *CTA
	IdxInCTA int
	Lanes    int // live thread count (last warp of a CTA may be partial)

	Regs  []uint32 // register values, layout [reg*warpSize + lane]
	warpW int      // warp width used for Regs layout

	Stack simt.Stack
	SB    Scoreboard

	AtBarrier bool
	Finished  bool

	// OutstandingLoads counts global-load instructions in flight; it is
	// nonzero for the swapped-out CTAs that VT must wait on.
	OutstandingLoads int

	// Issue fast-path cache, owned by the SM the warp is resident on (see
	// internal/sm and docs/ARCHITECTURE.md, "Issue fast path"). Slot is
	// the warp-slot index while bound, -1 otherwise. IssueState is the
	// cached scheduler classification (BlockedDone while unbound or while
	// the CTA is not active); RestoreReady marks a bound warp that would
	// be ready but for its CTA's in-flight context restore.
	Slot         int
	IssueState   Blocked
	RestoreReady bool

	// Next-instruction record of a bound warp, written by the SM after
	// every mutation of the SIMT stack: the shared execution resource the
	// instruction at the stack's top entry needs, the instruction itself
	// (nil when the warp has none, and always nil while unbound), and that
	// entry's live lanes. The issue stage reads these instead of walking
	// the stack and re-indexing the kernel's code.
	NextPort   IssuePort
	Next       *isa.Instr
	NextActive simt.Mask

	LastIssue    int64 // cycle of the most recent issue (GTO priority)
	IssuedInstrs int64 // warp instructions issued
	ThreadInstrs int64 // thread instructions (issued x active lanes)
}

// NewCTA builds the runtime instance of the flatID'th CTA of the launch,
// with functional state initialized (registers zero, shared memory zero,
// SIMT stacks at PC 0). warpSize is the machine's warp width.
func NewCTA(l *isa.Launch, flatID int, warpSize int) *CTA {
	g := l.GridDim
	id := isa.Dim3{
		X: flatID % g.X,
		Y: (flatID / g.X) % g.Y,
		Z: flatID / (g.X * g.Y),
	}
	threads := l.BlockDim.Size()
	nw := l.WarpsPerCTA(warpSize)
	c := &CTA{
		FlatID: flatID,
		ID:     id,
		Launch: l,
		SMem:   make([]uint32, (l.Kernel.SMemBytes+3)/4),
		State:  CTAPending,
	}
	c.Class[BlockedDone] = int32(nw) // every warp starts unbound
	for w := 0; w < nw; w++ {
		lanes := warpSize
		if rem := threads - w*warpSize; rem < lanes {
			lanes = rem
		}
		wp := &Warp{
			CTA:        c,
			IdxInCTA:   w,
			Lanes:      lanes,
			Regs:       make([]uint32, l.Kernel.NumRegs*warpSize),
			warpW:      warpSize,
			Slot:       -1,
			IssueState: BlockedDone,
		}
		wp.Stack.Reset(lanes)
		c.Warps = append(c.Warps, wp)
	}
	return c
}

// zeroRow backs every read of RZ as a register row. It is shared by all
// warps of all concurrent simulations and must never be written: row
// kernels skip instructions whose destination is RZ.
var zeroRow [64]uint32

// row returns register r's values for all lanes as a slice of exactly
// warp-width length, aliasing Regs (the shared read-only zero row for RZ).
func (w *Warp) row(r isa.Reg) []uint32 {
	if r == isa.RZ {
		return zeroRow[:w.warpW:w.warpW]
	}
	base := int(r) * w.warpW
	return w.Regs[base : base+w.warpW : base+w.warpW]
}

// Reg returns the value of register r in the given lane.
func (w *Warp) Reg(r isa.Reg, lane int) uint32 {
	if r == isa.RZ {
		return 0
	}
	return w.Regs[int(r)*w.warpW+lane]
}

// SetReg writes register r in the given lane; writes to RZ are dropped.
func (w *Warp) SetReg(r isa.Reg, lane int, v uint32) {
	if r == isa.RZ {
		return
	}
	w.Regs[int(r)*w.warpW+lane] = v
}

// GlobalTid returns the lane's linear thread index within its CTA.
func (w *Warp) GlobalTid(lane int) int { return w.IdxInCTA*w.warpW + lane }

// Blocked classifies why the warp cannot issue its next instruction, for
// the VT stall detector and the stall-breakdown statistics.
type Blocked uint8

// Blocked reasons, from the VT controller's point of view.
const (
	BlockedNot     Blocked = iota // ready to issue
	BlockedALU                    // short-latency scoreboard dependence
	BlockedMem                    // dependence on an outstanding global load
	BlockedBarrier                // parked at a CTA barrier
	BlockedDone                   // warp finished

	// NumBlocked sizes per-class counter arrays indexed by Blocked.
	NumBlocked = int(BlockedDone) + 1
)

// String names the blocked reason.
func (b Blocked) String() string {
	switch b {
	case BlockedNot:
		return "ready"
	case BlockedALU:
		return "alu-dep"
	case BlockedMem:
		return "mem-dep"
	case BlockedBarrier:
		return "barrier"
	case BlockedDone:
		return "done"
	default:
		return fmt.Sprintf("blocked(%d)", int(b))
	}
}

// IssuePort names the shared execution resource whose availability can
// hold back an otherwise ready instruction (a structural hazard).
type IssuePort uint8

// Issue ports.
const (
	PortNone   IssuePort = iota // SP pipeline and control: never busy
	PortSFU                     // special function unit (initiation interval)
	PortShared                  // shared-memory pipeline (bank-conflict serialization)
	PortGlobal                  // load-store unit queue
)

// PortOf returns the issue port the instruction needs.
func PortOf(in *isa.Instr) IssuePort {
	switch in.ExecUnit {
	case isa.UnitSFU:
		return PortSFU
	case isa.UnitMem:
		if in.Op.IsGlobal() {
			return PortGlobal
		}
		return PortShared
	}
	return PortNone
}

// BlockedState classifies the warp's current impediment, ignoring
// structural (execution-unit) availability.
func (w *Warp) BlockedState(code []isa.Instr) Blocked {
	var in *isa.Instr
	if pc, _, ok := w.Stack.Current(); ok {
		in = &code[pc]
	}
	return w.BlockedOn(in)
}

// BlockedOn is BlockedState for a caller that already holds the warp's
// next instruction (nil when the SIMT stack is empty).
func (w *Warp) BlockedOn(in *isa.Instr) Blocked {
	if w.Finished {
		return BlockedDone
	}
	if w.AtBarrier {
		return BlockedBarrier
	}
	if in == nil {
		return BlockedDone
	}
	conflict, onLoad := w.SB.Conflicts(in)
	switch {
	case !conflict:
		return BlockedNot
	case onLoad:
		return BlockedMem
	default:
		return BlockedALU
	}
}

// StalledEnough evaluates the VT swap trigger over the CTA's per-class
// warp counts: unfinished warps blocked on outstanding global loads (or
// barrier-parked) reach the trigger fraction, with at least one
// memory-blocked warp. At the paper-default fraction of 1.0 any issuable
// or short-latency-blocked warp vetoes the swap.
func (c *CTA) StalledEnough(frac float64) bool {
	mem := c.Class[BlockedMem]
	if mem == 0 {
		return false
	}
	blocked := mem + c.Class[BlockedBarrier]
	other := c.Class[BlockedNot] + c.Class[BlockedALU]
	if other > 0 && frac >= 1 {
		return false
	}
	return float64(blocked) >= frac*float64(blocked+other)
}

// ContextFootprintBytes returns the scheduling-state bytes VT must save for
// this warp: PC + SIMT stack + scoreboard + flags. This is the quantity the
// context buffer budget constrains.
func (w *Warp) ContextFootprintBytes() int {
	return 4 /* PC */ + w.Stack.FootprintBytes() + 64 /* scoreboard */ + 4 /* flags */
}
