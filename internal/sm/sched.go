package sm

import (
	"math/bits"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/simt"
	"repro/internal/warp"
)

// scheduler is one warp scheduler: it owns the warp slots whose index is
// congruent to its id modulo the scheduler count, and issues at most one
// instruction per cycle from them.
type scheduler struct {
	sm     *SM
	id     int
	greedy *warp.Warp // GTO: the warp currently being issued greedily
	rrNext int        // LRR: next owned-slot offset to consider

	busyUntil int64 // register-file bank-conflict stall (RegFileBanks > 0)

	group   []*warp.Warp // two-level: active fetch group
	groupRR int          // two-level: round-robin cursor within the group

	// Counts of owned warps by cached issue classification, and the
	// slot-indexed bitset of the BlockedNot ones (carved by New from one
	// per-SM slab), both maintained by SM.noteClass. They replace the full-scan issue selection and stall
	// classification when the fast path is enabled. class[BlockedDone]
	// only balances the moves of bound warps in and out of the live
	// classes and is never read.
	class [warp.NumBlocked]int
	ready []uint64
}

func newScheduler(s *SM, id int) *scheduler {
	return &scheduler{sm: s, id: id}
}

// owns reports whether the scheduler serves the slot index.
func (sc *scheduler) owns(slot int) bool {
	return slot%len(sc.sm.schedulers) == sc.id
}

// schedulable reports whether the warp can issue this cycle, and when it
// cannot, classifies the impediment for the stall breakdown.
func (sc *scheduler) schedulable(w *warp.Warp) (ok bool, blocked warp.Blocked, structural bool) {
	s := sc.sm
	if w.Finished || w.CTA.State != warp.CTAActive {
		return false, warp.BlockedDone, false
	}
	if w.AtBarrier {
		return false, warp.BlockedBarrier, false
	}
	pc, _, _ := w.Stack.Current() // only an exit empties the stack, and it sets Finished
	in := &w.CTA.Launch.Kernel.Code[pc]
	conflict, onLoad := w.SB.Conflicts(in)
	if conflict {
		if onLoad {
			return false, warp.BlockedMem, false
		}
		return false, warp.BlockedALU, false
	}
	// Structural hazards.
	now := s.Ev.Now()
	switch in.ExecUnit {
	case isa.UnitSFU:
		if now < s.sfuFreeAt {
			return false, warp.BlockedNot, true
		}
	case isa.UnitMem:
		if in.Op.IsGlobal() {
			if !s.lsuHasRoom() {
				return false, warp.BlockedNot, true
			}
		} else if now < s.smemFreeAt {
			return false, warp.BlockedNot, true
		}
	}
	return true, warp.BlockedNot, false
}

// older reports whether a should be prioritized over b under
// oldest-first ordering: earlier CTA assignment, then CTA id, then warp id.
func older(a, b *warp.Warp) bool {
	if a.CTA.AssignedAt != b.CTA.AssignedAt {
		return a.CTA.AssignedAt < b.CTA.AssignedAt
	}
	if a.CTA.FlatID != b.CTA.FlatID {
		return a.CTA.FlatID < b.CTA.FlatID
	}
	return a.IdxInCTA < b.IdxInCTA
}

// structural reports whether the warp's next instruction is blocked only
// by execution-unit availability this cycle. The caller guarantees the
// warp is otherwise ready (cached BlockedNot), so its next-instruction
// record is set.
func (sc *scheduler) structural(w *warp.Warp) bool {
	s := sc.sm
	switch w.NextPort {
	case warp.PortSFU:
		return s.Ev.Now() < s.sfuFreeAt
	case warp.PortShared:
		return s.Ev.Now() < s.smemFreeAt
	case warp.PortGlobal:
		return !s.lsuHasRoom()
	}
	return false
}

// classifyStall records one stall sample for this scheduler based on the
// current warp states, weighted by n cycles. Used both for a no-issue
// cycle (n=1) and for cycles the engine fast-forwards across (the SM is
// quiescent, so the classification is constant over the skipped span).
func (sc *scheduler) classifyStall(st *Stats, n int64) {
	if !sc.sm.DisableFastPath {
		sc.classifyStallFast(st, n)
		return
	}
	s := sc.sm
	var sawMem, sawALU, sawBar, sawStruct bool
	for slot := sc.id; slot < len(s.Slots); slot += len(s.schedulers) {
		w := s.Slots[slot]
		if w == nil {
			continue
		}
		_, blocked, structural := sc.schedulable(w)
		switch {
		case structural:
			sawStruct = true
		case blocked == warp.BlockedMem:
			sawMem = true
		case blocked == warp.BlockedALU:
			sawALU = true
		case blocked == warp.BlockedBarrier:
			sawBar = true
		}
	}
	switch {
	case sawStruct:
		st.SlotStallStr += n
	case sawMem:
		st.SlotStallMem += n
	case sawBar:
		st.SlotStallBar += n
	case sawALU:
		st.SlotStallALU += n
	default:
		st.SlotIdle += n
	}
}

// classifyStallFast is classifyStall driven by the scheduler's ready
// bitset and class counters instead of a slot scan.
func (sc *scheduler) classifyStallFast(st *Stats, n int64) {
	s := sc.sm
	sawStruct := false
scan:
	for wi, word := range sc.ready {
		for ; word != 0; word &= word - 1 {
			if sc.structural(s.Slots[wi<<6+bits.TrailingZeros64(word)]) {
				sawStruct = true
				break scan
			}
		}
	}
	sc.chargeStall(st, sawStruct, n)
}

// chargeStall records n no-issue samples from the cached class counters.
// The switch mirrors classifyStall's scan exactly, including its quirk
// that a ready warp counts for nothing — so a scheduler whose sole
// candidates are ready yet unpicked lands in SlotIdle, as does one with
// no live warp at all.
func (sc *scheduler) chargeStall(st *Stats, sawStruct bool, n int64) {
	switch {
	case sawStruct:
		st.SlotStallStr += n
	case sc.class[warp.BlockedMem] > 0:
		st.SlotStallMem += n
	case sc.class[warp.BlockedBarrier] > 0:
		st.SlotStallBar += n
	case sc.class[warp.BlockedALU] > 0:
		st.SlotStallALU += n
	default:
		st.SlotIdle += n
	}
}

// issueFast is the O(ready warps) issue selection: it walks the
// scheduler's ready bitset instead of re-deriving schedulable() for every
// owned slot, and classifies a no-issue cycle from the cached counters.
func (sc *scheduler) issueFast() bool {
	s := sc.sm
	var pick *warp.Warp
	sawStruct := false
	for wi, word := range sc.ready {
		for ; word != 0; word &= word - 1 {
			w := s.Slots[wi<<6+bits.TrailingZeros64(word)]
			if sc.structural(w) {
				sawStruct = true
				continue
			}
			if pick == nil || older(w, pick) {
				pick = w
			}
		}
	}

	if pick != nil {
		switch s.Cfg.Scheduler {
		case config.SchedLRR:
			pick = sc.lrrPickFast()
		case config.SchedTwoLevel:
			if g := sc.twoLevelPick(); g != nil {
				pick = g
			}
		}
		sc.greedy = pick
		sc.issue(pick)
		s.Stats.SlotIssued++
		return true
	}

	sc.greedy = nil
	sc.chargeStall(&s.Stats, sawStruct, 1)
	return false
}

// issueOne tries to issue one instruction from this scheduler's warps and
// updates the stall breakdown. Returns true on issue.
func (sc *scheduler) issueOne() bool {
	s := sc.sm
	if s.Ev.Now() < sc.busyUntil {
		// Register-file bank conflict from a previous issue occupies the
		// operand-read ports.
		s.Stats.SlotStallStr++
		return false
	}

	if s.Cfg.Scheduler == config.SchedGTO && sc.greedy != nil {
		// Greedy warp keeps priority while it can issue.
		g := sc.greedy
		var ok bool
		if !s.DisableFastPath {
			ok = g.IssueState == warp.BlockedNot && !sc.structural(g)
		} else {
			ok, _, _ = sc.schedulable(g)
		}
		if ok {
			sc.issue(g)
			s.Stats.SlotIssued++
			return true
		}
	}

	if !s.DisableFastPath {
		return sc.issueFast()
	}

	var pick *warp.Warp
	var sawMem, sawALU, sawBar, sawStruct bool

	consider := func(w *warp.Warp) {
		ok, blocked, structural := sc.schedulable(w)
		if ok {
			if pick == nil || older(w, pick) {
				pick = w
			}
			return
		}
		switch {
		case structural:
			sawStruct = true
		case blocked == warp.BlockedMem:
			sawMem = true
		case blocked == warp.BlockedALU:
			sawALU = true
		case blocked == warp.BlockedBarrier:
			sawBar = true
		}
	}

	for slot := sc.id; slot < len(s.Slots); slot += len(s.schedulers) {
		w := s.Slots[slot]
		if w == nil {
			continue
		}
		consider(w)
	}

	if pick != nil {
		switch s.Cfg.Scheduler {
		case config.SchedLRR:
			// Loose round-robin: rotate priority among ready warps.
			pick = sc.lrrPick()
		case config.SchedTwoLevel:
			if g := sc.twoLevelPick(); g != nil {
				pick = g
			}
		}
		sc.greedy = pick
		sc.issue(pick)
		s.Stats.SlotIssued++
		return true
	}

	sc.greedy = nil
	st := &s.Stats
	switch {
	case sawStruct:
		st.SlotStallStr++
	case sawMem:
		st.SlotStallMem++
	case sawBar:
		st.SlotStallBar++
	case sawALU:
		st.SlotStallALU++
	default:
		st.SlotIdle++
	}
	return false
}

// AccountSkipped charges n fast-forwarded cycles to the SM's statistics:
// stall-slot samples per scheduler and the occupancy accumulators. The
// engine only skips cycles when the SM is quiescent, so the classification
// is the same for every skipped cycle.
func (s *SM) AccountSkipped(n int64) { s.accountSkippedInto(&s.Stats, n) }

// accountSkippedInto is AccountSkipped targeting an arbitrary Stats, so
// StatsAt can charge an in-progress span into a copy without touching
// live state. classifyStall and the occupancy math only read SM state.
func (s *SM) accountSkippedInto(st *Stats, n int64) {
	st.Cycles += n
	for _, sc := range s.schedulers {
		sc.classifyStall(st, n)
	}
	st.ActiveWarpAccum += n * int64(s.WarpsUsed)
	st.ActiveCTAAccum += n * int64(s.ActiveCTAs)
	st.ResidentCTAAccum += n * int64(len(s.Resident))
	st.ResidentWarpAccum += n * int64(s.residentWarps)
}

// StatsAt returns a copy of the SM's statistics as they stand at the
// start of cycle at, including charges the engine has deferred: an
// in-progress per-SM fast-forward span (the SM is asleep and WakeUp will
// charge it later), or — when pendingFrom >= 0 — a whole-GPU idle skip
// beginning at pendingFrom whose AccountSkipped the caller applies after
// sampling. The charge lands in the copy, so this is a pure observer.
// Splitting a skipped span across sampling boundaries is exact because
// the SM is quiescent throughout: the stall classification and occupancy
// gauges are constant over the span and AccountSkipped is linear in the
// cycle count.
func (s *SM) StatsAt(at, pendingFrom int64) Stats {
	st := s.Stats
	from := int64(-1)
	if s.asleep {
		from = s.sleptFrom
	} else if pendingFrom >= 0 {
		from = pendingFrom
	}
	if from >= 0 && at > from {
		s.accountSkippedInto(&st, at-from)
	}
	return st
}

// lrrPick scans owned slots starting after the previous issue point and
// returns the first schedulable warp. The caller found one, so the scan
// meets it within one lap: when the first owned-1 slots hold none, it is
// the lap's last slot, rrNext itself, which needs no test.
func (sc *scheduler) lrrPick() *warp.Warp {
	s := sc.sm
	step := len(s.schedulers)
	owned := (len(s.Slots) + step - 1 - sc.id) / step
	i := 1
	for ; i < owned; i++ {
		if w := s.Slots[sc.id+(sc.rrNext+i)%owned*step]; w != nil {
			if ok, _, _ := sc.schedulable(w); ok {
				break
			}
		}
	}
	sc.rrNext = (sc.rrNext + i) % owned
	return s.Slots[sc.id+sc.rrNext*step]
}

// lrrPickFast is lrrPick over the ready bitset: among the issuable owned
// warps it returns the one at the smallest circular distance past rrNext,
// which is exactly the warp the sequential scan would reach first. The
// caller found an issuable warp in the same bitset, so best is set.
func (sc *scheduler) lrrPickFast() *warp.Warp {
	s := sc.sm
	step := len(s.schedulers)
	owned := (len(s.Slots) + step - 1 - sc.id) / step
	var best *warp.Warp
	bestI := 0
	for wi, word := range sc.ready {
		for ; word != 0; word &= word - 1 {
			slot := wi<<6 + bits.TrailingZeros64(word)
			w := s.Slots[slot]
			if sc.structural(w) {
				continue
			}
			o := (slot - sc.id) / step
			i := o - sc.rrNext
			if i <= 0 {
				i += owned // distance wraps; o == rrNext means a full lap
			}
			if best == nil || i < bestI {
				best = w
				bestI = i
			}
		}
	}
	sc.rrNext = (sc.rrNext + bestI) % owned
	return best
}

// fetchGroupWarps is the two-level scheduler's active-group size.
const fetchGroupWarps = 8

// twoLevelPick maintains the scheduler's active fetch group — up to
// fetchGroupWarps warps that are not blocked on long-latency memory — and
// round-robins within it. Warps that hit a long stall leave the group and
// pending warps take their place, so only a small subset needs operand
// buffering each cycle. Returns nil when no group member can issue (the
// caller falls back to a group switch). The caller has a schedulable
// warp, which the refill admits unless the group is already full, so the
// group is never empty here.
func (sc *scheduler) twoLevelPick() *warp.Warp {
	s := sc.sm

	// Evict group members that left the SM, finished, or hit a long
	// memory stall.
	kept := sc.group[:0]
	for _, w := range sc.group {
		if w.Finished || w.CTA.State != warp.CTAActive {
			continue
		}
		if w.BlockedState(w.CTA.Launch.Kernel.Code) == warp.BlockedMem {
			continue
		}
		kept = append(kept, w)
	}
	sc.group = kept

	// Refill from owned slots, oldest first.
	if len(sc.group) < fetchGroupWarps {
		inGroup := func(w *warp.Warp) bool {
			for _, g := range sc.group {
				if g == w {
					return true
				}
			}
			return false
		}
		for slot := sc.id; slot < len(s.Slots) && len(sc.group) < fetchGroupWarps; slot += len(s.schedulers) {
			w := s.Slots[slot]
			if w == nil || w.Finished || w.CTA.State != warp.CTAActive || inGroup(w) {
				continue
			}
			if w.BlockedState(w.CTA.Launch.Kernel.Code) == warp.BlockedMem {
				continue
			}
			sc.group = append(sc.group, w)
		}
	}
	for i := 1; i <= len(sc.group); i++ {
		idx := (sc.groupRR + i) % len(sc.group)
		if ok, _, _ := sc.schedulable(sc.group[idx]); ok {
			sc.groupRR = idx
			return sc.group[idx]
		}
	}
	return nil
}

// rfBankStall charges the scheduler for register-file bank conflicts among
// the instruction's source operands: one extra cycle per colliding read on
// a single-ported banked file.
func (sc *scheduler) rfBankStall(w *warp.Warp, in *isa.Instr) {
	banks := sc.sm.Cfg.RegFileBanks
	if banks <= 0 {
		return
	}
	var counts [64]int
	extra := 0
	for _, r := range in.SrcList[:in.NSrc] {
		b := int(r) % banks
		counts[b]++
		if counts[b] > 1 {
			extra++
		}
	}
	if extra > 0 {
		// busyUntil is the first cycle the scheduler may issue again:
		// the current issue plus `extra` dead operand-read cycles.
		sc.busyUntil = sc.sm.Ev.Now() + int64(extra) + 1
		sc.sm.Stats.RFBankConflictCyc += int64(extra)
	}
}

// issue functionally executes the warp's next instruction and models its
// timing on the appropriate unit.
func (sc *scheduler) issue(w *warp.Warp) {
	s := sc.sm
	now := s.Ev.Now()
	in, active := w.Next, w.NextActive
	if s.DisableFastPath {
		// Reference: walk the SIMT stack instead of trusting the record.
		pc, a, _ := w.Stack.Current()
		in, active = &w.CTA.Launch.Kernel.Code[pc], a
	}

	sc.rfBankStall(w, in)
	info := s.execute(w, in, active)
	w.LastIssue = now
	w.IssuedInstrs++
	w.ThreadInstrs += int64(info.Lanes)
	s.Stats.Issued++
	s.Stats.ThreadInstrs += int64(info.Lanes)
	if k := w.CTA.KernelID; k < len(s.Stats.IssuedPerKernel) {
		s.Stats.IssuedPerKernel[k]++
	}

	switch {
	case info.IsExit:
		if w.Finished {
			c := w.CTA
			c.Finished++
			if c.Done() {
				s.retire(c)
			}
		}
	case info.IsBar:
		sc.barrier(w)
	case info.MemOp:
		sc.memIssue(w, in, info)
	default:
		sc.aluIssue(w, in)
	}
	// Execute moved the SIMT stack and may have marked scoreboard pending,
	// parked at a barrier, or finished/retired the warp — re-derive its
	// cached classification. If the CTA retired, the warp is already
	// unbound and this is a no-op.
	s.refreshWarp(w)
}

// execute runs the instruction functionally: over register rows, or per
// lane through the reference evaluator when the fast path is disabled.
func (s *SM) execute(w *warp.Warp, in *isa.Instr, active simt.Mask) warp.ExecInfo {
	if s.DisableFastPath {
		return warp.ExecuteRef(w, in, active, s.Gmem, s.addrBuf)
	}
	return warp.Execute(w, in, active, s.Gmem, s.addrBuf)
}

func (sc *scheduler) aluIssue(w *warp.Warp, in *isa.Instr) {
	s := sc.sm
	if !in.Op.HasDst() || in.Dst == isa.RZ {
		return
	}
	var lat int64
	switch in.ExecUnit {
	case isa.UnitSFU:
		lat = int64(s.Cfg.SFULatency)
		s.sfuFreeAt = s.Ev.Now() + int64(s.Cfg.SFUInitInterval)
		s.Stats.SFUIssued++
	default:
		lat = int64(s.Cfg.ALULatency)
	}
	dst := in.Dst
	w.SB.MarkPending(dst, false)
	s.scheduleWB(lat, w, dst)
}

func (sc *scheduler) barrier(w *warp.Warp) {
	s := sc.sm
	c := w.CTA
	w.AtBarrier = true
	c.Arrived++
	if c.BarrierReleased() {
		for _, ww := range c.Warps {
			ww.AtBarrier = false
		}
		c.Arrived = 0
		s.Stats.BarrierReleases++
		for _, ww := range c.Warps {
			s.refreshWarp(ww)
		}
	}
}

func (sc *scheduler) memIssue(w *warp.Warp, in *isa.Instr, info warp.ExecInfo) {
	s := sc.sm
	now := s.Ev.Now()
	if !in.Op.IsGlobal() {
		// Shared memory: serialization by bank-conflict factor.
		s.Stats.SMemAccesses++
		f := mem.BankConflictFactor(info.Addrs, info.Active, 32)
		s.smemFreeAt = now + int64(f)
		s.Stats.SMemConflictCyc += int64(f - 1)
		if in.Op.IsLoad() && in.Dst != isa.RZ {
			dst := in.Dst
			w.SB.MarkPending(dst, false)
			s.scheduleWB(int64(s.Cfg.SMemLatency+f-1), w, dst)
		}
		return
	}

	idx := s.allocOp()
	op := &s.lsuPool[idx]
	op.lines = mem.CoalesceLinesInto(op.lines[:0], info.Addrs, info.Active, s.Cfg.L1D.LineSize)
	s.Stats.GlobalTxns += int64(len(op.lines))
	op.used = true
	op.w = nil
	op.dst = 0
	op.write = in.Op.IsStore()
	op.next = 0
	op.remaining = len(op.lines)
	if in.Op.IsLoad() || in.Op.IsAtomic() {
		// Atomics wait for the round trip like loads (the old value —
		// or at least the completion — comes back from the L2/ROP).
		op.w = w
		op.dst = in.Dst
		w.SB.MarkPending(in.Dst, true)
		w.OutstandingLoads++
	}
	s.lsuQueue = append(s.lsuQueue, idx)
}
