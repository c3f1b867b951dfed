package sm

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/warp"
)

// Interval/sampled simulation support: the gpu run loop's fast-forward
// spans retire instructions functionally through FunctionalRetire, after
// DrainTick/FunctionallyQuiescent brought the SM to a boundary with no
// in-flight timing state. See internal/gpu/sampling.go and
// docs/ARCHITECTURE.md, "Sampled simulation & error model".

// DrainTick advances only the SM's completion machinery by one cycle:
// due local writebacks retire and the LSU streams its next coalesced
// line. Neither the controller phase nor warp issue runs, so draining to
// quiescence starts no new swaps, admissions, or instructions.
func (s *SM) DrainTick() {
	s.wb.drainTo(s.Ev.Now(), s)
	s.lsuTick()
}

// FunctionallyQuiescent reports whether the SM holds no in-flight timing
// state: an empty LSU queue, an empty writeback wheel, no warp with
// outstanding scoreboard writes, and no CTA mid-restore. At such a
// boundary every bound warp's next instruction is determined purely by
// architectural state, which is what lets a fast-forward span retire
// instructions functionally.
func (s *SM) FunctionallyQuiescent() bool {
	if s.LSUQueueLen() != 0 || s.wb.pending != 0 {
		return false
	}
	for _, c := range s.Resident {
		if c.State == warp.CTARestoring {
			return false
		}
		for _, w := range c.Warps {
			if w.SB.Busy() {
				return false
			}
		}
	}
	return true
}

// FunctionalAdmitter is the optional controller interface fast-forward
// spans drive. FunctionalAdmit must admit and activate CTAs with zero
// latency and schedule no events: during a span memory is functionally
// instant, so a controller that would eventually activate a ready CTA in
// detailed mode activates it immediately here. FunctionalCTARetired
// releases any policy claim (VT's context-buffer bytes) held by a CTA
// that completes while swapped out — possible only during spans, where
// inactive CTAs keep executing.
type FunctionalAdmitter interface {
	FunctionalAdmit(s *SM)
	FunctionalCTARetired(s *SM, c *warp.CTA)
}

// funcRetireBatch is how many instructions one warp retires per visit in
// a FunctionalRetire pass. One gives the finest interleaving — closest
// to the detailed machine's cycle-by-cycle multiplexing — and costs
// nothing measurable: warp.Execute dominates the span's wall time, so
// coarser batches were measured to buy no speed while visibly biasing
// the post-span IPC measurement (batch 8 pushed a 1.4% cycle error to
// 2.8% on VT oversubscribed runs).
const funcRetireBatch = 1

// FunctionalRetire retires up to max warp instructions functionally,
// round-robining a small batch per resident warp per pass — including
// the warps of swapped-out and still-pending CTAs, whose registers and
// shared memory are resident under VT (and never modeled as moving). The
// per-CTA fairness matters as much as the execution itself: the detailed
// machine time-multiplexes every resident CTA through the active set, so
// a span that ran only the currently active CTAs to completion would
// drain the latency-hiding CTA pool and the next detailed window would
// measure an IPC the exact run never exhibits. Barriers release the way
// interleaved issue releases them, and end the arriving warp's batch.
//
// Execution goes through the same warp.Execute as detailed issue
// (registers, SIMT stacks, and functional memory advance identically);
// what is skipped is timing: no scoreboard marks, no writeback
// scheduling, no LSU queueing. Global accesses warm the cache tags
// through mem.System.WarmGlobal and shared accesses charge their
// conflict statistics, so counters and tag state track the instructions
// that executed. Each warp's cached issue classification refreshes once
// per batch, keeping the ready bitsets warm for the next detailed
// window. The controller's zero-latency admission runs at entry and
// again whenever a CTA retires — the only points where slots or policy
// capacity free up. Returns the number retired. The call stops only at
// pass boundaries, overshooting max by at most one batch per warp:
// stopping mid-pass would hand the CTAs early in the resident list an
// extra batch on every call, and that skew compounds across a span into
// a progress imbalance the detailed machine never exhibits. A return
// below max means no resident warp could make progress (all finished,
// at a barrier no sibling can release, or mid-restore).
func (s *SM) FunctionalRetire(max int64) int64 {
	fa, _ := s.Ctl.(FunctionalAdmitter)
	now := s.Ev.Now()
	var done int64
	admit := true
	for done < max {
		if admit && fa != nil {
			fa.FunctionalAdmit(s)
		}
		admit = false
		progress := false
		for ci := 0; ci < len(s.Resident); ci++ {
			c := s.Resident[ci]
			if c.State == warp.CTARestoring {
				continue
			}
			code := c.Launch.Kernel.Code
			retired := false
			for _, w := range c.Warps {
				if w.Finished || w.AtBarrier {
					continue
				}
				ran := false
				for b := 0; b < funcRetireBatch; b++ {
					pc, active, ok := w.Stack.Current()
					if !ok {
						break
					}
					in := &code[pc]
					info := s.execute(w, in, active)
					w.IssuedInstrs++
					w.ThreadInstrs += int64(info.Lanes)
					s.Stats.Issued++
					s.Stats.ThreadInstrs += int64(info.Lanes)
					if k := c.KernelID; k < len(s.Stats.IssuedPerKernel) {
						s.Stats.IssuedPerKernel[k]++
					}
					done++
					ran = true

					if info.IsExit {
						if w.Finished {
							c.Finished++
							if c.Done() {
								s.funcRetireCTA(c, fa)
								retired = true
								admit = true
							}
						}
						break
					}
					if info.IsBar {
						// barrier only touches SM-level state, never the
						// scheduler's own; any scheduler handle works for
						// unbound warps.
						s.schedulers[0].barrier(w)
						if w.AtBarrier {
							break
						}
						continue
					}
					if info.MemOp {
						s.functionalMem(w, in, info)
					} else if in.ExecUnit == isa.UnitSFU {
						s.Stats.SFUIssued++
					}
				}
				if ran {
					w.LastIssue = now
					s.refreshWarp(w)
					progress = true
				}
				if retired {
					break
				}
			}
			if retired {
				ci-- // retire removed c from Resident; its successor shifted in
			}
		}
		if !progress {
			break
		}
	}
	return done
}

// FunctionalAdmitNow runs the controller's zero-latency admission once,
// outside a retire pass. The gpu span loop calls it before sampling
// occupancy so a CTA retirement at the tail of one SM's round is refilled
// (when the grid still has work) before the span decides whether the
// machine's composition changed.
func (s *SM) FunctionalAdmitNow() {
	if fa, ok := s.Ctl.(FunctionalAdmitter); ok {
		fa.FunctionalAdmit(s)
	}
}

// funcRetireCTA retires a CTA that completed during a functional span.
// Active CTAs take the ordinary retire path; a CTA that finishes while
// holding no warp slots (it progressed functionally while swapped out or
// pending) releases its capacity directly, after the policy releases any
// claim of its own.
func (s *SM) funcRetireCTA(c *warp.CTA, fa FunctionalAdmitter) {
	if c.State == warp.CTAActive {
		s.retire(c)
		return
	}
	if fa != nil {
		fa.FunctionalCTARetired(s, c)
	}
	s.removeResident(c)
}

// functionalMem charges a functionally retired memory instruction's
// statistics and warms the cache hierarchy, without queueing LSU traffic
// or marking scoreboard state.
func (s *SM) functionalMem(w *warp.Warp, in *isa.Instr, info warp.ExecInfo) {
	if !in.Op.IsGlobal() {
		s.Stats.SMemAccesses++
		f := mem.BankConflictFactor(info.Addrs, info.Active, 32)
		if f > 1 {
			s.Stats.SMemConflictCyc += int64(f - 1)
		}
		return
	}
	s.sampLines = mem.CoalesceLinesInto(s.sampLines[:0], info.Addrs, info.Active, s.Cfg.L1D.LineSize)
	s.Stats.GlobalTxns += int64(len(s.sampLines))
	write := in.Op.IsStore()
	for _, line := range s.sampLines {
		s.Mem.WarmGlobal(s.ID, line, write)
	}
}

// AccountSampled charges n extrapolated cycles to the SM's statistics.
// issued is how many warp instructions this SM retired functionally
// during the span; it fills issue slots first and the remainder is
// distributed across the schedulers through classifyStall, so the
// issue-slot conservation invariant (slot samples == cycles x schedulers)
// holds exactly across sampled spans. Occupancy accumulators use the
// end-of-span gauges, mirroring AccountSkipped's treatment of
// fast-forwarded idle spans.
func (s *SM) AccountSampled(n, issued int64) {
	if n <= 0 {
		return
	}
	st := &s.Stats
	st.Cycles += n
	nSched := int64(len(s.schedulers))
	slots := n * nSched
	if issued > slots {
		issued = slots
	}
	if issued < 0 {
		issued = 0
	}
	st.SlotIssued += issued
	rem := slots - issued
	base := rem / nSched
	extra := rem % nSched
	for i, sc := range s.schedulers {
		ni := base
		if int64(i) < extra {
			ni++
		}
		if ni > 0 {
			sc.classifyStall(st, ni)
		}
	}
	st.ActiveWarpAccum += n * int64(s.WarpsUsed)
	st.ActiveCTAAccum += n * int64(s.ActiveCTAs)
	st.ResidentCTAAccum += n * int64(len(s.Resident))
	st.ResidentWarpAccum += n * int64(s.residentWarps)
}
