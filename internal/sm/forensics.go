package sm

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/isa"
	"repro/internal/simt"
	"repro/internal/warp"
)

// This file is the SM's failure-forensics surface: a point-in-time state
// snapshot (Diagnose) attached to abort errors, and an exhaustive
// invariant checker (CheckInvariants) that re-derives every piece of
// cached bookkeeping from scratch. Both are pure reads — taking a
// snapshot or running the checker must never perturb a simulation.

// BarrierDiag describes one resident CTA with warps parked at a barrier.
type BarrierDiag struct {
	CTA      int `json:"cta"`      // flat CTA id within its grid
	Kernel   int `json:"kernel"`   // launch index (multi-kernel runs)
	Arrived  int `json:"arrived"`  // warps parked at the barrier
	Finished int `json:"finished"` // warps that have exited
	Warps    int `json:"warps"`    // total warps in the CTA
}

// Diag is a point-in-time snapshot of one SM, captured when a run aborts
// so the failure report shows where every warp was stuck.
type Diag struct {
	SM     int  `json:"sm"`
	Asleep bool `json:"asleep,omitempty"` // in per-SM fast-forward at abort

	// Residency and capacity bookkeeping.
	ResidentCTAs int `json:"resident_ctas"`
	ActiveCTAs   int `json:"active_ctas"`
	RegsUsed     int `json:"regs_used"`
	SMemUsed     int `json:"smem_used"`
	WarpsUsed    int `json:"warps_used"`
	ThreadsUsed  int `json:"threads_used"`

	// Warp issue-class counters summed over the SM's schedulers (the
	// fast path's incrementally maintained classification).
	Ready          int `json:"ready"`
	BlockedMem     int `json:"blocked_mem"`
	BlockedALU     int `json:"blocked_alu"`
	BlockedBarrier int `json:"blocked_barrier"`
	RestoreReady   int `json:"restore_ready,omitempty"`

	// ReadyMask is the slot-indexed ready bitset (64 slots per word), the
	// union of the schedulers' own.
	ReadyMask []uint64 `json:"ready_mask"`

	// Derived residency state the VT controller decides from: resident
	// warps (any CTA state), CTAs ready to take warp slots, and active
	// CTAs whose warps satisfy the swap trigger.
	ResidentWarps int `json:"resident_warps"`
	ReadyCTAs     int `json:"ready_ctas,omitempty"`
	StalledCTAs   int `json:"stalled_ctas,omitempty"`

	// In-flight memory operations.
	LSUOps           int `json:"lsu_ops"`           // warp memory instructions queued
	LSULinesPending  int `json:"lsu_lines_pending"` // coalesced lines not yet injected
	OutstandingLoads int `json:"outstanding_loads"` // global loads awaiting responses
	WheelPending     int `json:"wheel_pending"`     // local writebacks not yet retired

	// CTAStates counts resident CTAs by state name.
	CTAStates map[string]int `json:"cta_states,omitempty"`

	// Barriers lists every CTA with warps parked at a barrier.
	Barriers []BarrierDiag `json:"barriers,omitempty"`
}

// Diagnose captures the SM's current state for a failure report.
func (s *SM) Diagnose() Diag {
	d := Diag{
		SM:           s.ID,
		Asleep:       s.asleep,
		ResidentCTAs: len(s.Resident),
		ActiveCTAs:   s.ActiveCTAs,
		RegsUsed:     s.RegsUsed,
		SMemUsed:     s.SMemUsed,
		WarpsUsed:    s.WarpsUsed,
		ThreadsUsed:  s.ThreadsUsed,
		RestoreReady: s.restoreReady,
		ReadyMask:    make([]uint64, (len(s.Slots)+63)/64),
		LSUOps:       s.LSUQueueLen(),
		WheelPending: s.wb.pending,

		ResidentWarps: s.residentWarps,
		ReadyCTAs:     len(s.readyCTAs),
		StalledCTAs:   s.stalledCTAs,
	}
	for _, sc := range s.schedulers {
		d.Ready += sc.class[warp.BlockedNot]
		d.BlockedMem += sc.class[warp.BlockedMem]
		d.BlockedALU += sc.class[warp.BlockedALU]
		d.BlockedBarrier += sc.class[warp.BlockedBarrier]
		for i, wd := range sc.ready {
			d.ReadyMask[i] |= wd
		}
	}
	for _, idx := range s.lsuQueue[s.lsuHead:] {
		op := &s.lsuPool[idx]
		d.LSULinesPending += len(op.lines) - op.next
	}
	for _, c := range s.Resident {
		if d.CTAStates == nil {
			d.CTAStates = map[string]int{}
		}
		d.CTAStates[c.State.String()]++
		for _, w := range c.Warps {
			d.OutstandingLoads += w.OutstandingLoads
		}
		if c.Arrived > 0 {
			d.Barriers = append(d.Barriers, BarrierDiag{
				CTA:      c.FlatID,
				Kernel:   c.KernelID,
				Arrived:  c.Arrived,
				Finished: c.Finished,
				Warps:    len(c.Warps),
			})
		}
	}
	return d
}

// CheckInvariants re-derives the SM's cached bookkeeping from scratch and
// reports every mismatch (joined with errors.Join), or nil. It validates:
//
//   - issue-slot conservation: issued + stalls + idle samples equal
//     cycles × schedulers (every scheduler accounts exactly one slot per
//     simulated cycle, including fast-forwarded spans);
//   - capacity and scheduling bounds: used resources within the SM's
//     limits and non-negative;
//   - residency accounting: RegsUsed/SMemUsed (and WarpsUsed/ThreadsUsed/
//     ActiveCTAs for active CTAs) match a recount over Resident;
//   - ready-bitset consistency: each scheduler's bitset population matches
//     its cached ready counter and every set bit names a bound, ready warp
//     in a slot the scheduler owns;
//   - writeback-wheel occupancy: the pending counter matches a recount of
//     the ring's entries;
//   - derived issue and residency state (checkDerived): every warp's
//     next-instruction record against its SIMT stack, every CTA's class
//     counters and cached swap trigger against a BlockedState scan, the
//     ready-CTA set against a scan of Resident, and the resident-warp and
//     stalled-CTA counts.
//
// The checker must only run at a cycle boundary (after the engine's cycle
// barrier), where asleep SMs hold consistently frozen statistics.
func (s *SM) CheckInvariants() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("SM%d: "+format, append([]any{s.ID}, args...)...))
	}

	st := &s.Stats
	samples := st.SlotIssued + st.SlotStallMem + st.SlotStallALU +
		st.SlotStallBar + st.SlotStallStr + st.SlotIdle
	if want := st.Cycles * int64(len(s.schedulers)); samples != want {
		fail("issue-slot conservation: %d samples != %d cycles x %d schedulers = %d",
			samples, st.Cycles, len(s.schedulers), want)
	}

	if s.RegsUsed < 0 || s.RegsUsed > s.Cfg.RegFileSize {
		fail("RegsUsed %d outside [0, %d]", s.RegsUsed, s.Cfg.RegFileSize)
	}
	if s.SMemUsed < 0 || s.SMemUsed > s.Cfg.SharedMemPerSM {
		fail("SMemUsed %d outside [0, %d]", s.SMemUsed, s.Cfg.SharedMemPerSM)
	}
	if s.WarpsUsed < 0 || s.WarpsUsed > s.MaxWarps {
		fail("WarpsUsed %d outside [0, %d]", s.WarpsUsed, s.MaxWarps)
	}
	if s.ThreadsUsed < 0 || s.ThreadsUsed > s.MaxThreads {
		fail("ThreadsUsed %d outside [0, %d]", s.ThreadsUsed, s.MaxThreads)
	}
	if s.ActiveCTAs < 0 || s.ActiveCTAs > s.MaxCTAs {
		fail("ActiveCTAs %d outside [0, %d]", s.ActiveCTAs, s.MaxCTAs)
	}

	regs, smem, warps, threads, active := 0, 0, 0, 0, 0
	for _, c := range s.Resident {
		regs += c.RegsAlloc
		smem += c.SMemAlloc
		if c.State == warp.CTAActive || c.State == warp.CTARestoring {
			warps += len(c.Warps)
			threads += c.Threads
			active++
		}
	}
	if regs != s.RegsUsed {
		fail("RegsUsed %d but resident CTAs hold %d", s.RegsUsed, regs)
	}
	if smem != s.SMemUsed {
		fail("SMemUsed %d but resident CTAs hold %d", s.SMemUsed, smem)
	}
	if warps != s.WarpsUsed {
		fail("WarpsUsed %d but active CTAs bind %d warps", s.WarpsUsed, warps)
	}
	if threads != s.ThreadsUsed {
		fail("ThreadsUsed %d but active CTAs bind %d threads", s.ThreadsUsed, threads)
	}
	if active != s.ActiveCTAs {
		fail("ActiveCTAs %d but %d resident CTAs are active", s.ActiveCTAs, active)
	}

	for i, sc := range s.schedulers {
		for cls := warp.BlockedNot; cls < warp.BlockedDone; cls++ {
			if sc.class[cls] < 0 {
				fail("scheduler %d has a negative class counter (%v = %d)", i, cls, sc.class[cls])
			}
		}
		pop := 0
		for wi, wd := range sc.ready {
			pop += bits.OnesCount64(wd)
			for ; wd != 0; wd &= wd - 1 {
				slot := wi*64 + bits.TrailingZeros64(wd)
				switch {
				case slot >= len(s.Slots) || s.Slots[slot] == nil:
					fail("scheduler %d: ready bit set for empty slot %d", i, slot)
				case !sc.owns(slot):
					fail("scheduler %d: ready bit set for slot %d it does not own", i, slot)
				case s.Slots[slot].IssueState != warp.BlockedNot:
					fail("scheduler %d: ready bit set for slot %d but its cached class is %v",
						i, slot, s.Slots[slot].IssueState)
				}
			}
		}
		if pop != sc.class[warp.BlockedNot] {
			fail("scheduler %d: ready bitset population %d != cached ready count %d",
				i, pop, sc.class[warp.BlockedNot])
		}
	}
	s.checkDerived(fail)

	wheel := 0
	for _, entries := range s.wb.slots {
		wheel += len(entries)
	}
	if wheel != s.wb.pending {
		fail("writeback wheel holds %d entries but pending counter is %d", wheel, s.wb.pending)
	}

	return errors.Join(errs...)
}

// checkDerived recounts the derived issue and residency state from the
// state it is derived from, the way the reference (DisableFastPath) paths
// compute it.
func (s *SM) checkDerived(fail func(format string, args ...any)) {
	residentWarps, stalled := 0, 0
	var ready []*warp.CTA
	for _, c := range s.Resident {
		residentWarps += len(c.Warps)
		if readyState(c.State) {
			ready = append(ready, c)
		}
		code := c.Launch.Kernel.Code
		var class [warp.NumBlocked]int32
		for _, w := range c.Warps {
			var in *isa.Instr
			var active simt.Mask
			port := warp.PortNone
			if w.Slot >= 0 {
				if s.Slots[w.Slot] != w {
					fail("CTA %d/%d warp %d claims slot %d, which holds another warp",
						c.KernelID, c.FlatID, w.IdxInCTA, w.Slot)
				}
				if pc, a, ok := w.Stack.Current(); ok {
					in, active, port = &code[pc], a, warp.PortOf(&code[pc])
				}
			}
			if w.Next != in || w.NextActive != active || w.NextPort != port {
				fail("CTA %d/%d warp %d: next-instruction record is stale (slot %d)",
					c.KernelID, c.FlatID, w.IdxInCTA, w.Slot)
			}
			want := warp.BlockedDone
			if w.Slot >= 0 && c.State == warp.CTAActive {
				want = w.BlockedState(code)
			}
			if w.IssueState != want {
				fail("CTA %d/%d warp %d: cached class %v, a rescan says %v",
					c.KernelID, c.FlatID, w.IdxInCTA, w.IssueState, want)
			}
			class[want]++
		}
		if class != c.Class {
			fail("CTA %d/%d: class counters %v, a rescan counts %v", c.KernelID, c.FlatID, c.Class, class)
		}
		rescan := warp.CTA{Class: class}
		if want := rescan.StalledEnough(s.trigFrac); c.Stalled != want {
			fail("CTA %d/%d: cached swap trigger %v, a rescan says %v", c.KernelID, c.FlatID, c.Stalled, want)
		}
		if c.Stalled {
			stalled++
		}
	}
	if residentWarps != s.residentWarps {
		fail("resident-warp count %d but resident CTAs hold %d warps", s.residentWarps, residentWarps)
	}
	if stalled != s.stalledCTAs {
		fail("stalled-CTA count %d but %d resident CTAs satisfy the swap trigger", s.stalledCTAs, stalled)
	}
	sort.SliceStable(ready, func(i, j int) bool { return s.readyBefore(ready[i], ready[j]) })
	if len(ready) != len(s.readyCTAs) {
		fail("ready-CTA set holds %d CTAs but %d resident CTAs are ready", len(s.readyCTAs), len(ready))
		return
	}
	for i, c := range ready {
		if s.readyCTAs[i] != c {
			fail("ready-CTA set position %d holds CTA %d/%d, a sorted scan puts %d/%d there",
				i, s.readyCTAs[i].KernelID, s.readyCTAs[i].FlatID, c.KernelID, c.FlatID)
			return
		}
	}
}
