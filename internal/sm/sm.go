// Package sm implements the streaming multiprocessor pipeline: warp slots,
// multiple warp schedulers (greedy-then-oldest, loose round-robin, or
// two-level), scoreboard-checked issue, SP/SFU execution pipelines, a
// load-store unit with coalescing and MSHR backpressure, shared-memory
// bank-conflict serialization, optional register-file bank conflicts, and
// CTA barriers. CTAs may come from multiple concurrent kernels; every CTA
// carries its own resource footprint. Residency and activation decisions
// are delegated to a Controller, which is where the baseline and Virtual
// Thread policies differ.
package sm

import (
	"repro/internal/config"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/warp"
)

// Controller is the CTA scheduling policy attached to an SM. New calls
// Attach once, with the fully built SM, so the policy sizes its per-SM
// state at construction. The SM calls Cycle before issuing each cycle so
// the policy can assign new CTAs, activate ready ones, and (under VT) swap
// stalled ones out. A retired CTA's resources and a swapped-out CTA's
// drained loads are already in the SM's state by the next Cycle call.
type Controller interface {
	Attach(s *SM)
	Cycle(s *SM)
}

// Probe observes SM state transitions for telemetry. Every method is
// invoked synchronously at the transition site and must be a pure
// observer: a Probe may not mutate simulator state, and results must be
// bit-identical with and without one attached (gpu's telemetry
// equivalence test enforces this, like CheckInvariants).
type Probe interface {
	// CTAActivated fires after the CTA's warps are bound to warp slots
	// (fresh activations and VT swap-ins alike).
	CTAActivated(s *SM, c *warp.CTA)
	// CTADeactivated fires after the CTA's warps are unbound from their
	// slots (VT swap-outs and CTA retirement).
	CTADeactivated(s *SM, c *warp.CTA)
	// SMWoke fires when a per-SM fast-forward span ends: the SM slept
	// from cycle from up to (excluding) cycle to.
	SMWoke(s *SM, from, to int64)
}

// Stats collects per-SM pipeline counters.
type Stats struct {
	Cycles       int64
	Issued       int64 // warp instructions issued
	ThreadInstrs int64 // thread instructions (lanes x issues)

	// Issue-slot stall breakdown: one sample per scheduler per cycle.
	SlotIssued   int64
	SlotStallMem int64 // every candidate blocked on a global-load dependence
	SlotStallALU int64 // blocked on short-latency dependences
	SlotStallBar int64 // blocked at barriers
	SlotStallStr int64 // ready warp existed but its unit was busy
	SlotIdle     int64 // no schedulable warp attached

	// Occupancy accumulators (per cycle).
	ActiveWarpAccum   int64 // warps bound to slots
	ResidentWarpAccum int64 // warps of all resident CTAs (incl. inactive)
	ActiveCTAAccum    int64
	ResidentCTAAccum  int64

	SFUIssued         int64 // warp instructions issued to the SFU
	SMemAccesses      int64 // shared-memory warp accesses
	CTAsCompleted     int64
	BarrierReleases   int64
	SMemConflictCyc   int64 // extra cycles lost to shared-memory bank conflicts
	RFBankConflictCyc int64 // scheduler cycles lost to register-file bank conflicts
	GlobalTxns        int64 // coalesced global transactions generated
	LSURetries        int64 // transactions retried after L1 MSHR rejection

	// IssuedPerKernel splits Issued by launch index in multi-kernel runs.
	IssuedPerKernel []int64
}

// lsuOp is one in-flight warp memory instruction being streamed into the
// memory system, one coalesced line per cycle. Ops live in the SM's
// lsuPool arena and are referenced by index (pool growth would invalidate
// pointers); the lines buffer is recycled with the op. A store names no
// warp: nothing reads it after issue, and its op can outlive the CTA that
// issued it (it frees only once its last line is sent), so used — not w —
// marks an arena slot as in flight.
type lsuOp struct {
	used      bool
	w         *warp.Warp // the load's (or atomic's) warp; nil for stores
	dst       isa.Reg
	write     bool
	lines     []uint32
	next      int // next line to inject
	remaining int // responses outstanding (reads)
}

// evLoadLine is the SM's one event kind: one coalesced line of a global
// load arrived (a = lsuPool index).
const evLoadLine uint8 = 0

// HandleEvent delivers the SM's typed memory-completion events.
func (s *SM) HandleEvent(_ uint8, a, _ uint32) {
	op := &s.lsuPool[a]
	op.remaining--
	if op.remaining == 0 {
		s.loadComplete(int32(a))
	}
}

// SM is one streaming multiprocessor.
type SM struct {
	ID   int
	Cfg  *config.GPUConfig
	Ev   *event.Queue // the GPU's shared event queue
	Mem  *mem.System
	Gmem *mem.Backing

	Ctl Controller

	// Probe, when non-nil, observes CTA bind/unbind transitions and
	// fast-forward spans for telemetry. Nil costs one pointer check at
	// each (rare) transition; see the Probe contract above.
	Probe Probe

	// Effective scheduling limits under the configured policy.
	MaxCTAs    int
	MaxWarps   int
	MaxThreads int

	Slots []*warp.Warp // warp slots; nil = free

	// Fit reports whether a CTA with the given footprint can launch
	// right now (capacity and scheduling limits). Built once in New so
	// per-cycle dispatch avoids allocating a fresh closure.
	Fit func(regs, smem, warps, threads int) bool

	// Resident CTAs: active and (under VT) inactive. Membership changes
	// only through addResident/removeResident and CTA.State only through
	// SetCTAState, which keep the derived residency state below (see
	// ctastate.go).
	Resident    []*warp.CTA
	ActiveCTAs  int
	RegsUsed    int
	SMemUsed    int
	ThreadsUsed int // threads bound to slots (scheduling resource)
	WarpsUsed   int // warp slots bound

	schedulers []*scheduler
	schedMask  int // scheduler count - 1 when that is a power of two, else -1
	sfuFreeAt  int64
	smemFreeAt int64

	// Load-store unit state: ops live in the lsuPool arena, recycled
	// through lsuFree; lsuQueue[lsuHead:] orders in-flight ops by pool
	// index (head index instead of re-slicing so the backing array is
	// reused instead of reallocated as the queue drains and refills).
	lsuPool  []lsuOp
	lsuFree  []int32
	lsuQueue []int32
	lsuHead  int

	wb wbWheel // fixed-latency writeback completions (SM-local)

	// DisableFastPath routes issue selection, stall classification, and
	// quiescence detection through the original full scans instead of the
	// incrementally maintained ready sets below. The cached state is
	// maintained either way, so the two modes are interchangeable and must
	// produce identical results (gpu's fast-path equivalence test).
	DisableFastPath bool

	// restoreReady counts bound warps that would be ready but for an
	// in-flight CTA context restore (they keep the SM non-quiescent exactly
	// like the full Quiescent scan does). Like the schedulers' ready
	// bitsets and class counters it is maintained by refreshWarp at every
	// transition that can change a classification.
	restoreReady int

	// Derived residency state (ctastate.go): the resident-warp count, the
	// ready-CTA set in activation-policy order, the count of active CTAs
	// whose warps satisfy the VT swap trigger, and an epoch that advances
	// on every CTA state change so a controller can cache scans of
	// Resident.
	residentWarps int
	readyCTAs     []*warp.CTA
	readyBuf      [16]*warp.CTA // readyCTAs' first backing array: no allocation until a 17th CTA is ready
	stalledCTAs   int
	ctaEpoch      uint64
	nextSeq       int64
	trigFrac      float64 // Cfg.VT.EffTriggerFraction()
	newestFirst   bool    // Cfg.VT.Activation == config.ActNewest

	// Per-SM fast-forward (engine idle skip at SM granularity): while
	// asleep the engine does not call Cycle for this SM;
	// WakeUp charges the skipped span through AccountSkipped before any
	// state mutation makes the frozen classification stale.
	asleep    bool
	sleptFrom int64 // first fast-forwarded cycle
	wakeAt    int64 // earliest local-wheel completion at sleep time; 0 = none

	Stats Stats

	addrBuf []uint32

	// sampLines is coalescing scratch for the functional-retire path
	// (see sampling.go); transient, never serialized.
	sampLines []uint32
}

// wbEntry is one pending scoreboard clear.
type wbEntry struct {
	cycle int64
	w     *warp.Warp
	reg   isa.Reg
}

// wbWheel is a timing wheel for the SM's own fixed-latency writebacks (ALU,
// SFU, shared-memory loads). These completions touch only the issuing
// warp's scoreboard, so routing them through the shared event queue bought
// nothing but heap churn and a closure allocation per issued instruction;
// the wheel keeps them SM-local. Completions commute with every same-cycle
// event (nothing reads a scoreboard between event callbacks), so draining
// at the start of the SM's cycle is timing-identical to the old queue
// events.
//
// Every pending entry sits in the slot of its own cycle, inside the live
// window (drained, drained+len(slots)). scheduleWB runs only at issue,
// after the cycle's drain set drained to now, with a latency of at least
// 1 (config.Validate) and at most the maxLat init sized the ring past, so
// a slot of the window holds only entries due at exactly that slot's
// cycle. Restore refuses entries outside the window and CheckInvariants
// recounts it.
type wbWheel struct {
	slots   [][]wbEntry // ring, indexed by cycle & mask
	mask    int64
	drained int64 // completions at cycles <= drained have been applied
	pending int
}

func (wb *wbWheel) init(maxLat int) {
	size := int64(2)
	for size < int64(maxLat)+2 {
		size <<= 1
	}
	// Carve each slot's initial capacity from one slab so first-use
	// growth across the ring is a single allocation; hot slots that
	// outgrow it reallocate individually and keep the larger capacity.
	const slotCap = 2
	slab := make([]wbEntry, size*slotCap)
	wb.slots = make([][]wbEntry, size)
	for i := range wb.slots {
		wb.slots[i] = slab[i*slotCap : i*slotCap : (i+1)*slotCap]
	}
	wb.mask = size - 1
}

// schedule registers a scoreboard clear for reg of w at the given cycle,
// which lies in the live window.
func (wb *wbWheel) schedule(cycle int64, w *warp.Warp, reg isa.Reg) {
	slot := cycle & wb.mask
	wb.slots[slot] = append(wb.slots[slot], wbEntry{cycle: cycle, w: w, reg: reg})
	wb.pending++
}

// drainTo applies every completion due at or before now, refreshing the
// retired warps' cached issue classification on s.
func (wb *wbWheel) drainTo(now int64, s *SM) {
	if wb.pending == 0 {
		wb.drained = now
		return
	}
	// Slot c of the window holds only entries due at c, so each visited
	// slot empties whole. An SM is cycled or woken by the cycle of its
	// earliest entry, so this visits at most one lap.
	for c := wb.drained + 1; c <= now; c++ {
		slot := c & wb.mask
		for _, e := range wb.slots[slot] {
			e.w.SB.ClearPending(e.reg)
			wb.pending--
			s.reclassify(e.w)
		}
		wb.slots[slot] = wb.slots[slot][:0]
	}
	wb.drained = now
}

// next returns the earliest pending completion cycle, ok=false when none:
// the cycle of the window's first nonempty slot.
func (wb *wbWheel) next() (int64, bool) {
	if wb.pending == 0 {
		return 0, false
	}
	c := wb.drained + 1
	for len(wb.slots[c&wb.mask]) == 0 {
		c++
	}
	return c, true
}

// New builds an SM under the configuration; numKernels sizes the
// per-kernel issue counters (1 for single-launch runs). Slots and limits
// are derived from the policy's effective scheduling limits.
func New(id int, cfg *config.GPUConfig, ev *event.Queue, msys *mem.System,
	gmem *mem.Backing, numKernels int, ctl Controller) *SM {

	maxCTAs, maxWarps, maxThreads := cfg.EffectiveSchedulingLimits()
	s := &SM{
		ID:         id,
		Cfg:        cfg,
		Ev:         ev,
		Mem:        msys,
		Gmem:       gmem,
		Ctl:        ctl,
		MaxCTAs:    maxCTAs,
		MaxWarps:   maxWarps,
		MaxThreads: maxThreads,
		Slots:      make([]*warp.Warp, maxWarps),
		addrBuf:    make([]uint32, cfg.WarpSize),

		trigFrac:    cfg.VT.EffTriggerFraction(),
		newestFirst: cfg.VT.Activation == config.ActNewest,
	}
	s.Fit = func(regs, smem, warps, threads int) bool {
		return s.HasCapacityFor(regs, smem) && s.CanActivateFor(warps, threads)
	}
	s.readyCTAs = s.readyBuf[:0]
	s.schedMask = -1
	if n := cfg.NumSchedulers; n&(n-1) == 0 {
		s.schedMask = n - 1
	}
	s.Stats.IssuedPerKernel = make([]int64, numKernels)
	words := (maxWarps + 63) / 64
	readySlab := make([]uint64, words*cfg.NumSchedulers)
	for i := 0; i < cfg.NumSchedulers; i++ {
		sc := newScheduler(s, i)
		sc.ready = readySlab[i*words : (i+1)*words : (i+1)*words]
		s.schedulers = append(s.schedulers, sc)
	}
	maxLat := cfg.ALULatency
	if cfg.SFULatency > maxLat {
		maxLat = cfg.SFULatency
	}
	if l := cfg.SMemLatency + cfg.WarpSize; l > maxLat {
		// Shared-memory latency grows with bank conflicts, by at most one
		// cycle per active lane: SMemLatency+WarpSize-1 is the longest
		// writeback scheduleWB is handed.
		maxLat = l
	}
	s.wb.init(maxLat)
	ctl.Attach(s)
	return s
}

// scheduleWB registers a scoreboard clear for dst after lat cycles on the
// SM-local wheel, which New sizes for the longest latency it is handed.
func (s *SM) scheduleWB(lat int64, w *warp.Warp, dst isa.Reg) {
	s.wb.schedule(s.Ev.Now()+lat, w, dst)
}

// NextWake returns the earliest cycle at which this SM's local wheel will
// change state, ok=false when it holds nothing. The engine's idle-skip
// takes the minimum over the shared queue and every SM's wheel so local
// writebacks are never skipped past.
func (s *SM) NextWake() (int64, bool) { return s.wb.next() }

// HasCapacityFor reports whether a CTA needing the given registers and
// shared memory fits on the SM — the capacity-limit check that Virtual
// Thread admits against.
func (s *SM) HasCapacityFor(regs, smem int) bool {
	return s.RegsUsed+regs <= s.Cfg.RegFileSize &&
		s.SMemUsed+smem <= s.Cfg.SharedMemPerSM
}

// CanActivateFor reports whether the scheduling structures can host one
// more active CTA of the given shape (CTA slots, warp slots, thread
// slots).
func (s *SM) CanActivateFor(warps, threads int) bool {
	return s.ActiveCTAs < s.MaxCTAs &&
		s.WarpsUsed+warps <= s.MaxWarps &&
		s.ThreadsUsed+threads <= s.MaxThreads
}

// CanActivateCTA reports whether the specific CTA can take warp slots now.
func (s *SM) CanActivateCTA(c *warp.CTA) bool {
	return s.CanActivateFor(len(c.Warps), c.Threads)
}

// Activate binds the CTA's warps to free warp slots. The caller must have
// checked CanActivate.
func (s *SM) Activate(c *warp.CTA) {
	slot := 0
	for _, w := range c.Warps {
		for s.Slots[slot] != nil {
			slot++
		}
		s.Slots[slot] = w
		w.Slot = slot
	}
	s.WarpsUsed += len(c.Warps)
	s.ThreadsUsed += c.Threads
	s.ActiveCTAs++
	s.SetCTAState(c, warp.CTAActive)
	c.ActivatedAt = s.Ev.Now()
	c.Activations++
	if s.Probe != nil {
		s.Probe.CTAActivated(s, c)
	}
}

// Deactivate unbinds the CTA's warps from their slots (a VT swap-out). The
// CTA stays resident; its registers and shared memory are untouched.
func (s *SM) Deactivate(c *warp.CTA) {
	for _, w := range c.Warps {
		s.Slots[w.Slot] = nil
		s.unbindWarp(w)
	}
	s.WarpsUsed -= len(c.Warps)
	s.ThreadsUsed -= c.Threads
	s.ActiveCTAs--
	if s.anyOutstandingLoads(c) {
		s.SetCTAState(c, warp.CTAInactiveWaiting)
	} else {
		s.SetCTAState(c, warp.CTAInactiveReady)
	}
	if s.Probe != nil {
		s.Probe.CTADeactivated(s, c)
	}
}

// refreshWarp rewrites the warp's next-instruction record from its SIMT
// stack and then reclassifies it. It must run after every mutation of the
// stack or of the warp's binding: instruction issue (detailed or
// functional), CTA bind/unbind/state changes, checkpoint restore. This is
// the one place the stack is read and the kernel's code indexed on the
// issue path.
func (s *SM) refreshWarp(w *warp.Warp) {
	w.Next, w.NextActive, w.NextPort = nil, 0, warp.PortNone
	if w.Slot >= 0 {
		if pc, active, ok := w.Stack.Current(); ok {
			in := &w.CTA.Launch.Kernel.Code[pc]
			w.Next, w.NextActive, w.NextPort = in, active, warp.PortOf(in)
		}
	}
	s.reclassify(w)
}

// reclassify recomputes the warp's cached issue classification from its
// next-instruction record and folds any change into the owning
// scheduler's class counters and ready bitset, the CTA's class counters,
// and the restore-ready count. Mutations that leave the SIMT stack alone
// — scoreboard writeback, load completion, barrier release — call it
// directly; everything else goes through refreshWarp.
func (s *SM) reclassify(w *warp.Warp) {
	cls := warp.BlockedDone
	rr := false
	if w.Slot >= 0 {
		bs := w.BlockedOn(w.Next)
		switch w.CTA.State {
		case warp.CTAActive:
			cls = bs
		case warp.CTARestoring:
			rr = bs == warp.BlockedNot
		}
	}
	if rr != w.RestoreReady {
		if rr {
			s.restoreReady++
		} else {
			s.restoreReady--
		}
		w.RestoreReady = rr
	}
	s.noteClass(w, cls)
}

// noteClass moves the warp's cached classification to cls, updating the
// scheduler's and the CTA's class counters, the scheduler's ready bitset,
// and the CTA's cached swap trigger. No-op when unchanged; unbound warps
// are always BlockedDone, so the slot index is valid whenever the counters
// move.
func (s *SM) noteClass(w *warp.Warp, cls warp.Blocked) {
	old := w.IssueState
	if cls == old {
		return
	}
	w.IssueState = cls
	sc := s.schedulerOf(w.Slot)
	sc.class[old]--
	sc.class[cls]++
	bit := uint64(1) << (uint(w.Slot) & 63)
	if old == warp.BlockedNot {
		sc.ready[w.Slot>>6] &^= bit
	} else if cls == warp.BlockedNot {
		sc.ready[w.Slot>>6] |= bit
	}
	c := w.CTA
	c.Class[old]--
	c.Class[cls]++
	if st := c.StalledEnough(s.trigFrac); st != c.Stalled {
		c.Stalled = st
		if st {
			s.stalledCTAs++
		} else {
			s.stalledCTAs--
		}
	}
}

// schedulerOf returns the scheduler that owns the slot: slot modulo the
// scheduler count, without the division when the count is a power of two.
func (s *SM) schedulerOf(slot int) *scheduler {
	if s.schedMask >= 0 {
		return s.schedulers[slot&s.schedMask]
	}
	return s.schedulers[slot%len(s.schedulers)]
}

// unbindWarp clears the warp's cached state contributions before it loses
// its slot. Only an active CTA is deactivated (a swap-out victim is
// active, and so is a CTA whose last warp just issued its exit), and the
// warps of an active CTA are never restore-ready: reclassify sets the
// flag only while the CTA is restoring, and SetCTAState reclassifies
// every bound warp when the restore completes.
func (s *SM) unbindWarp(w *warp.Warp) {
	s.noteClass(w, warp.BlockedDone)
	w.Slot = -1
	w.Next, w.NextActive, w.NextPort = nil, 0, warp.PortNone
}

func (s *SM) anyOutstandingLoads(c *warp.CTA) bool {
	for _, w := range c.Warps {
		if w.OutstandingLoads > 0 {
			return true
		}
	}
	return false
}

// retire releases everything a completed CTA holds; the controller sees
// the freed capacity at its next Cycle.
func (s *SM) retire(c *warp.CTA) {
	s.Deactivate(c)
	s.removeResident(c)
}

// Idle reports whether the SM holds no work at all.
func (s *SM) Idle() bool { return len(s.Resident) == 0 }

// Cycle advances the SM by one core cycle: it retires due local
// writebacks, runs the CTA-scheduling controller, streams the LSU and lets
// every scheduler issue. It returns true when any warp instruction issued
// (used by the engine's idle-skip heuristic).
func (s *SM) Cycle() bool {
	s.Stats.Cycles++
	s.wb.drainTo(s.Ev.Now(), s)
	s.Ctl.Cycle(s)
	s.lsuTick()

	issued := false
	for _, sch := range s.schedulers {
		if sch.issueOne() {
			issued = true
		}
	}
	s.accumOccupancy()
	return issued
}

// Quiescent reports whether nothing inside the SM can change state without
// an external event: no LSU traffic pending and no warp ready to issue.
// The engine uses it to fast-forward across long memory stalls.
func (s *SM) Quiescent() bool {
	if s.lsuHead != len(s.lsuQueue) {
		return false
	}
	now := s.Ev.Now()
	if now < s.sfuFreeAt || now < s.smemFreeAt {
		return false
	}
	if !s.DisableFastPath {
		// A ready warp of a restoring CTA blocks quiescence in the scan
		// below (BlockedState ignores CTA state), so mirror it here.
		if s.restoreReady > 0 {
			return false
		}
		for _, sc := range s.schedulers {
			if sc.class[warp.BlockedNot] > 0 {
				return false
			}
		}
		return true
	}
	for _, w := range s.Slots {
		if w == nil || w.Finished {
			continue
		}
		if w.BlockedState(w.CTA.Launch.Kernel.Code) == warp.BlockedNot {
			return false
		}
	}
	return true
}

// Asleep reports whether the SM is being fast-forwarded by the engine.
func (s *SM) Asleep() bool { return s.asleep }

// sleepGate is an optional Controller refinement: CanSleep vetoes per-SM
// fast-forward while the controller still has an actionable decision (an
// activation or swap-out that needs no external event). Controllers whose
// per-cycle work is fully event-driven once the SM is quiescent need not
// implement it.
type sleepGate interface {
	CanSleep(*SM) bool
}

// TrySleep puts the SM into per-SM fast-forward if nothing local can change
// state: it is quiescent and no scheduler holds a register-file bank stall
// that expires after next cycle. While asleep the engine skips its cycles;
// any event that can change the SM's state wakes it first (WakeUp), and the
// local writeback wheel wakes it through WheelWakeDue.
func (s *SM) TrySleep() {
	now := s.Ev.Now()
	for _, sc := range s.schedulers {
		if sc.busyUntil > now+1 {
			return
		}
	}
	if !s.Quiescent() {
		return
	}
	if g, ok := s.Ctl.(sleepGate); ok && !g.CanSleep(s) {
		return
	}
	s.asleep = true
	s.sleptFrom = now + 1
	if c, ok := s.wb.next(); ok {
		s.wakeAt = c
	} else {
		s.wakeAt = 0
	}
}

// WakeUp ends a fast-forward span, charging the skipped cycles through
// AccountSkipped. Every event callback that mutates SM state calls it
// first, so the classification counters the accounting reads are exactly
// the ones frozen when the SM went to sleep.
func (s *SM) WakeUp() {
	if !s.asleep {
		return
	}
	s.asleep = false
	if n := s.Ev.Now() - s.sleptFrom; n > 0 {
		s.AccountSkipped(n)
		if s.Probe != nil {
			s.Probe.SMWoke(s, s.sleptFrom, s.Ev.Now())
		}
	}
}

// WheelWakeDue reports whether the sleeping SM's local writeback wheel has
// a completion due at or before now (wheel cycles are always >= 1, so 0
// safely encodes "none").
func (s *SM) WheelWakeDue(now int64) bool { return s.wakeAt != 0 && s.wakeAt <= now }

func (s *SM) accumOccupancy() {
	st := &s.Stats
	st.ActiveWarpAccum += int64(s.WarpsUsed)
	st.ActiveCTAAccum += int64(s.ActiveCTAs)
	st.ResidentCTAAccum += int64(len(s.Resident))
	st.ResidentWarpAccum += int64(s.residentWarps)
}

// allocOp takes an lsuOp from the free list (or grows the arena) and
// returns its pool index.
func (s *SM) allocOp() int32 {
	if n := len(s.lsuFree); n > 0 {
		idx := s.lsuFree[n-1]
		s.lsuFree = s.lsuFree[:n-1]
		return idx
	}
	s.lsuPool = append(s.lsuPool, lsuOp{})
	return int32(len(s.lsuPool) - 1)
}

// freeOp recycles an op, keeping its lines buffer for reuse.
func (s *SM) freeOp(idx int32) {
	op := &s.lsuPool[idx]
	op.used = false
	op.w = nil
	op.lines = op.lines[:0]
	s.lsuFree = append(s.lsuFree, idx)
}

// lsuTick streams one coalesced transaction of the head LSU operation into
// the memory system per cycle, retrying on MSHR backpressure.
func (s *SM) lsuTick() {
	if s.lsuHead == len(s.lsuQueue) {
		return
	}
	idx := s.lsuQueue[s.lsuHead]
	op := &s.lsuPool[idx]
	line := op.lines[op.next]
	var done event.Completion
	if !op.write {
		done = event.Completion{H: s, Kind: evLoadLine, A: uint32(idx)}
	}
	if !s.Mem.AccessGlobal(s.ID, line, op.write, done) {
		s.Stats.LSURetries++
		return // MSHRs full; retry next cycle
	}
	op.next++
	if op.next == len(op.lines) {
		s.lsuHead++
		if s.lsuHead == len(s.lsuQueue) {
			s.lsuHead = 0
			s.lsuQueue = s.lsuQueue[:0]
		}
		if op.write {
			s.freeOp(idx) // stores have no responses; reads free in loadComplete
		}
	}
}

// loadComplete fires when the last line of a warp load returns: the
// destination becomes readable and, if this was the CTA's last outstanding
// load while swapped out, the CTA becomes ready again.
func (s *SM) loadComplete(idx int32) {
	s.WakeUp() // flush fast-forward accounting before mutating state
	op := &s.lsuPool[idx]
	w, dst := op.w, op.dst
	s.freeOp(idx)
	w.SB.ClearPending(dst)
	w.OutstandingLoads--
	s.reclassify(w)
	c := w.CTA
	if c.State == warp.CTAInactiveWaiting && !s.anyOutstandingLoads(c) {
		s.SetCTAState(c, warp.CTAInactiveReady)
	}
}

// lsuHasRoom reports whether another warp memory instruction can enter the
// LSU queue.
func (s *SM) lsuHasRoom() bool { return len(s.lsuQueue)-s.lsuHead < s.Cfg.LSUQueueDepth }

// LSUQueueLen returns the number of warp memory instructions queued in
// the load-store unit (telemetry occupancy gauge).
func (s *SM) LSUQueueLen() int { return len(s.lsuQueue) - s.lsuHead }

// WheelPending returns the number of writeback completions pending on the
// SM-local timing wheel (telemetry occupancy gauge).
func (s *SM) WheelPending() int { return s.wb.pending }
