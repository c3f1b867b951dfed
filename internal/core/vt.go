// Package core implements the paper's contribution: the Virtual Thread
// (VT) architecture. VT assigns CTAs to an SM up to the capacity limit
// (register file + shared memory) while only a scheduling-limit-sized
// subset is active. When every warp of an active CTA is blocked on a
// long-latency global-memory dependence, the CTA's tiny scheduling context
// (PC, SIMT stack, scoreboard) is saved to an on-chip context buffer and a
// ready inactive CTA takes its warp slots. Registers and shared memory of
// inactive CTAs never move, so swaps cost tens of cycles and outstanding
// loads of a swapped-out CTA drain directly into its resident registers.
//
// The package also provides the FullSwap strawman (contexts spilled
// off-chip, paying a footprint-proportional latency) and, together with
// config.PolicyIdeal, the upper bound with unbounded scheduling structures.
package core

import (
	"repro/internal/config"
	"repro/internal/cta"
	"repro/internal/sm"
	"repro/internal/warp"
)

// Stats collects Virtual Thread controller counters.
type Stats struct {
	SwapsOut        int64 // CTA deactivations due to stall
	SwapsIn         int64 // CTA activations of previously-run CTAs
	FreshActivates  int64 // activations of never-run (pending) CTAs
	SwapStallCycles int64 // cycles warp slots sat idle paying swap latency
	DeniedByBuffer  int64 // virtual-CTA admissions denied by the context buffer
	DeniedByCap     int64 // admissions denied by the virtual-CTA cap
	MaxResident     int   // peak resident CTAs on any SM
	MaxInactive     int   // peak inactive CTAs on any SM
	ContextPeak     int   // peak context-buffer bytes in use on any SM
}

// TraceEvent records one CTA state transition for the swap-trace example
// and the telemetry collector. Latency is the one-way swap latency the
// transition pays (swap-outs and restore starts); 0 for free transitions.
type TraceEvent struct {
	Cycle   int64
	SM      int
	CTA     int // flat CTA id
	From    warp.CTAState
	To      warp.CTAState
	Latency int64
}

// Controller is the per-GPU Virtual Thread controller; it manages every
// SM's virtual CTA table. Swap operations per SM are limited by the
// configured context-buffer port count (one by default).
type Controller struct {
	grid     cta.Source
	fullSwap bool // FullSwap strawman: pay the full-context latency

	perSM []smState

	// Stats accumulates controller counters across all SMs.
	Stats Stats

	// Trace, when non-nil, receives CTA state transitions.
	Trace func(TraceEvent)
}

type smState struct {
	sm           *sm.SM  // bound by Attach; typed events dispatch through it
	ports        []int64 // context-buffer ports: next free cycle each
	ctxBytesUsed int     // context buffer bytes held by inactive CTAs
	wakeAt       int64
	// fit is the admission predicate for this SM, built by Attach so the
	// per-cycle admit loop does not allocate a closure.
	fit func(regs, smem, warps, threads int) bool
	// minElig caches swapOut's scan for the earliest min-residency expiry
	// among active CTAs not yet eligible for swap-out (-1 = none). The scan
	// reads only CTA states and activation cycles, so it stays valid until
	// the SM's CTA epoch moves or the cycle reaches it.
	minElig   int64
	eligEpoch uint64
	// restores pools in-flight context-restore records (the CTA whose
	// restore completes when evRestoreDone fires), recycled by index.
	restores    []*warp.CTA
	restoreFree []int32
}

func (st *smState) allocRestore(c *warp.CTA) int32 {
	if n := len(st.restoreFree); n > 0 {
		idx := st.restoreFree[n-1]
		st.restoreFree = st.restoreFree[:n-1]
		st.restores[idx] = c
		return idx
	}
	st.restores = append(st.restores, c)
	return int32(len(st.restores) - 1)
}

// Controller event kinds (operand a = SM id throughout; b = restore
// record index for evRestoreDone).
const (
	evRestoreDone uint8 = iota // context restore finished: CTA becomes active
	evPortFree                 // a swap-out's port freed: try to activate a replacement
	evMinElig                  // min-residency eligibility crossed: wake the idle-skip engine
)

// HandleEvent dispatches the controller's typed swap-engine events.
func (v *Controller) HandleEvent(kind uint8, a, b uint32) {
	st := &v.perSM[a]
	s := st.sm
	switch kind {
	case evRestoreDone:
		c := st.restores[b]
		st.restores[b] = nil
		st.restoreFree = append(st.restoreFree, int32(b))
		s.WakeUp()
		s.SetCTAState(c, warp.CTAActive)
		c.ActivatedAt = s.Ev.Now()
		v.trace(s, c, warp.CTARestoring, warp.CTAActive, 0)
	case evPortFree:
		s.WakeUp()
		v.activate(s)
	case evMinElig:
		s.WakeUp()
	}
}

// freePort returns the index of a context-buffer port free at now, or -1.
func (st *smState) freePort(now int64) int {
	for i, t := range st.ports {
		if t <= now {
			return i
		}
	}
	return -1
}

// NewController builds the VT controller over a shared CTA source.
// fullSwap selects the off-chip context-switching strawman.
func NewController(g cta.Source, numSMs int, fullSwap bool) *Controller {
	return &Controller{grid: g, fullSwap: fullSwap, perSM: make([]smState, numSMs)}
}

var _ sm.Controller = (*Controller)(nil)

// Attach binds the controller's per-SM state to its SM: the event
// dispatch handle, the context-buffer ports, and the admission predicate.
func (v *Controller) Attach(s *sm.SM) {
	st := &v.perSM[s.ID]
	st.sm = s
	st.ports = make([]int64, s.Cfg.VT.EffSwapPorts())
	st.eligEpoch = ^uint64(0) // no scan cached yet
	st.fit = func(regs, smem, warps, threads int) bool {
		if !s.HasCapacityFor(regs, smem) {
			return false
		}
		// A resident-but-inactive CTA needs context buffer space;
		// only CTAs beyond the active set consume it. Estimate with
		// the initial (depth-1 stack) footprint.
		if len(s.Resident) >= s.MaxCTAs &&
			st.ctxBytesUsed+estCtxBytes(warps) > s.Cfg.VT.ContextBufferBytes {
			v.Stats.DeniedByBuffer++
			return false
		}
		return true
	}
}

func (v *Controller) trace(s *sm.SM, c *warp.CTA, from, to warp.CTAState, lat int64) {
	if v.Trace != nil {
		v.Trace(TraceEvent{Cycle: s.Ev.Now(), SM: s.ID, CTA: c.FlatID,
			From: from, To: to, Latency: lat})
	}
}

// CtxBytesUsed returns the context-buffer bytes currently held by
// inactive CTAs on the given SM (telemetry gauge).
func (v *Controller) CtxBytesUsed(smID int) int { return v.perSM[smID].ctxBytesUsed }

// SwapsInFlight returns how many of the SM's context-buffer ports are
// busy at now — swaps (in or out) still paying their latency (telemetry
// gauge).
func (v *Controller) SwapsInFlight(smID int, now int64) int {
	n := 0
	for _, t := range v.perSM[smID].ports {
		if t > now {
			n++
		}
	}
	return n
}

// ctxBytesPerCTA returns the context-buffer footprint of one inactive CTA
// under the plain VT policy: per-warp PC + SIMT stack + scoreboard.
func ctxBytesPerCTA(c *warp.CTA) int {
	n := 0
	for _, w := range c.Warps {
		n += w.ContextFootprintBytes()
	}
	return n
}

// swapLatency returns the one-way swap latency for the CTA under the
// configured mechanism.
func (v *Controller) swapLatency(s *sm.SM, c *warp.CTA, out bool) int64 {
	if !v.fullSwap {
		if out {
			return int64(s.Cfg.VT.SwapOutLatency)
		}
		return int64(s.Cfg.VT.SwapInLatency)
	}
	// FullSwap: move registers + shared memory through a 32 B/cycle port.
	bytes := c.RegsAlloc*4 + c.SMemAlloc
	return int64(bytes / 32)
}

// Cycle runs the VT policy for one SM cycle: admit new virtual CTAs up to
// the capacity limit, activate ready CTAs into free scheduling slots, and
// swap out active CTAs whose warps are all memory-blocked.
func (v *Controller) Cycle(s *sm.SM) {
	v.admit(s)
	v.activate(s)
	v.swapOut(s)
}

// admit makes grid CTAs resident while registers, shared memory, the
// virtual-CTA cap, and the context buffer allow.
func (v *Controller) admit(s *sm.SM) {
	st := &v.perSM[s.ID]
	for {
		if vcap := s.Cfg.VT.MaxVirtualCTAsPerSM; vcap > 0 && len(s.Resident) >= vcap {
			v.Stats.DeniedByCap++
			return
		}
		c := v.grid.Next(st.fit)
		if c == nil {
			return
		}
		s.AddResident(c)
		if len(s.Resident) > v.Stats.MaxResident {
			v.Stats.MaxResident = len(s.Resident)
		}
	}
}

// estCtxBytes is the context footprint estimate used for admission: every
// warp at stack depth 1.
func estCtxBytes(warps int) int {
	perWarp := 4 + (12 + 8) + 64 + 4
	return warps * perWarp
}

// activate fills free scheduling slots with ready CTAs under the
// configured activation policy. Fresh (never-run) CTAs need no context
// restore; reactivations need a free context-buffer port.
func (v *Controller) activate(s *sm.SM) {
	st := &v.perSM[s.ID]
	now := s.Ev.Now()
	for {
		c := v.ready(s)
		if c == nil {
			return
		}
		if !s.CanActivateCTA(c) {
			return
		}
		if c.State == warp.CTAInactiveReady && st.freePort(now) < 0 {
			return // restore needs a port; try again when one frees
		}
		v.activateCTA(s, c, st)
	}
}

func (v *Controller) activateCTA(s *sm.SM, c *warp.CTA, st *smState) {
	from := c.State
	if from == warp.CTAInactiveReady {
		// Restoring a saved context pays the swap-in latency and frees
		// its context-buffer space.
		lat := v.swapLatency(s, c, false)
		st.ports[st.freePort(s.Ev.Now())] = s.Ev.Now() + lat
		st.ctxBytesUsed -= c.CtxCharged
		c.CtxCharged = 0
		v.Stats.SwapsIn++
		v.Stats.SwapStallCycles += lat
		// Occupy the slots now; warps become schedulable when the
		// restore completes.
		s.Activate(c)
		s.SetCTAState(c, warp.CTARestoring)
		v.trace(s, c, from, warp.CTARestoring, lat)
		s.Ev.PostAfter(lat, v, evRestoreDone, uint32(s.ID), uint32(st.allocRestore(c)))
		return
	}
	// Fresh CTA: no context to restore.
	s.Activate(c)
	v.Stats.FreshActivates++
	v.trace(s, c, from, warp.CTAActive, 0)
}

// ready returns the ready CTA preferred by the activation policy, or nil
// when none is ready: the head of the SM's event-maintained ready-CTA set,
// or the reference scan when the fast path is disabled.
func (v *Controller) ready(s *sm.SM) *warp.CTA {
	if s.DisableFastPath {
		return v.pickReady(s)
	}
	return s.ReadyCTA()
}

// pickReady is the reference for sm.SM.ReadyCTA: a scan of Resident for
// the pending or inactive-ready CTA the activation policy prefers.
func (v *Controller) pickReady(s *sm.SM) *warp.CTA {
	newest := s.Cfg.VT.Activation == config.ActNewest
	var best *warp.CTA
	better := func(c, b *warp.CTA) bool {
		if c.AssignedAt != b.AssignedAt {
			if newest {
				return c.AssignedAt > b.AssignedAt
			}
			return c.AssignedAt < b.AssignedAt
		}
		if newest {
			return c.FlatID > b.FlatID
		}
		return c.FlatID < b.FlatID
	}
	for _, c := range s.Resident {
		if c.State != warp.CTAPending && c.State != warp.CTAInactiveReady {
			continue
		}
		if best == nil || better(c, best) {
			best = c
		}
	}
	return best
}

// swapVictim returns the first active CTA, in residency order, that is
// past its anti-thrash residency and stalled enough to swap out. When
// there is none it returns the earliest residency expiry among the active
// CTAs not yet eligible (-1 for none), which swapOut turns into a wakeup.
//
// The fast path reads what the SM maintains at scoreboard and CTA-state
// events — the stalled-CTA count and each CTA's cached trigger — and the
// cached expiry scan, so it touches Resident only when some CTA is
// actually stalled or the cache went stale; the reference re-classifies
// every warp of every active CTA.
func (v *Controller) swapVictim(s *sm.SM, st *smState, now int64) (*warp.CTA, int64) {
	minRes := int64(s.Cfg.VT.MinResidencyCycles)
	if s.DisableFastPath {
		minElig := int64(-1)
		for _, c := range s.Resident {
			if c.State != warp.CTAActive {
				continue
			}
			if elig := c.ActivatedAt + minRes; now < elig {
				if minElig < 0 || elig < minElig {
					minElig = elig
				}
				continue
			}
			if v.stalledEnough(s, c) {
				return c, -1
			}
		}
		return nil, minElig
	}
	if s.StalledCTAs() > 0 {
		for _, c := range s.Resident {
			if c.Stalled && now >= c.ActivatedAt+minRes {
				return c, -1 // only an active CTA's counters can trip the trigger
			}
		}
	}
	if ep := s.CTAEpoch(); st.eligEpoch != ep || (st.minElig >= 0 && now >= st.minElig) {
		st.minElig, st.eligEpoch = minEligScan(s, now, minRes), ep
	}
	return nil, st.minElig
}

// minEligScan returns the earliest residency expiry among active CTAs not
// yet eligible for swap-out at now, -1 when every active CTA is eligible.
func minEligScan(s *sm.SM, now, minRes int64) int64 {
	minElig := int64(-1)
	for _, c := range s.Resident {
		if c.State != warp.CTAActive {
			continue
		}
		if elig := c.ActivatedAt + minRes; now < elig && (minElig < 0 || elig < minElig) {
			minElig = elig
		}
	}
	return minElig
}

// swapOut deactivates an active CTA whose unfinished warps are blocked on
// global-load dependences (or parked at barriers gated by them) beyond the
// configured trigger fraction, provided a ready CTA exists to take the
// slots, a context-buffer port is free, and the anti-thrash residency has
// elapsed.
func (v *Controller) swapOut(s *sm.SM) {
	st := &v.perSM[s.ID]
	now := s.Ev.Now()
	if st.freePort(now) < 0 {
		return
	}
	if v.ready(s) == nil {
		return // nothing to run instead; keep waiting in place
	}
	c, minElig := v.swapVictim(s, st, now)
	if c == nil {
		// Nothing swappable yet; remember the earliest eligibility so the
		// engine wakes up even if everything is stalled.
		if minElig > 0 && st.wakeAt != minElig {
			st.wakeAt = minElig
			s.Ev.Post(minElig, v, evMinElig, uint32(s.ID), 0) // wake the idle-skip engine
		}
		return
	}
	// Swap out: save scheduling contexts, free the slots. One swap per SM
	// at a time.
	lat := v.swapLatency(s, c, true)
	from := c.State
	s.Deactivate(c)
	c.CtxCharged = ctxBytesPerCTA(c)
	st.ctxBytesUsed += c.CtxCharged
	if st.ctxBytesUsed > v.Stats.ContextPeak {
		v.Stats.ContextPeak = st.ctxBytesUsed
	}
	st.ports[st.freePort(now)] = now + lat
	v.Stats.SwapsOut++
	v.Stats.SwapStallCycles += lat
	v.trace(s, c, from, c.State, lat)
	v.countInactive(s)
	// Activate a replacement as soon as the context-buffer port frees.
	s.Ev.PostAfter(lat, v, evPortFree, uint32(s.ID), 0)
}

// FunctionalAdmit implements sm.FunctionalAdmitter for fast-forward
// spans: admit resident CTAs normally, then activate every ready CTA the
// scheduling limit allows with a zero-latency swap-in — no context-buffer
// port, no restore event. During a span memory completes instantly, so
// warps are never load-blocked and swap-outs never trigger; the
// steady-state behavior a span models is "a slot frees, the next ready
// CTA takes it", which is exactly this loop. Registers and shared memory
// of inactive CTAs are resident under VT (and never modeled as moving
// under FullSwap), so instant activation is architecturally exact.
func (v *Controller) FunctionalAdmit(s *sm.SM) {
	st := &v.perSM[s.ID]
	v.admit(s)
	for {
		c := v.ready(s)
		if c == nil || !s.CanActivateCTA(c) {
			return
		}
		from := c.State
		if from == warp.CTAInactiveReady {
			st.ctxBytesUsed -= c.CtxCharged
			c.CtxCharged = 0
			v.Stats.SwapsIn++
		} else {
			v.Stats.FreshActivates++
		}
		s.Activate(c)
		v.trace(s, c, from, warp.CTAActive, 0)
	}
}

// FunctionalCTARetired releases the context-buffer claim of a CTA that
// completed during a fast-forward span while swapped out. In detailed
// mode a CTA can only finish while active (its warps must issue), so the
// ordinary retire path never needs this.
func (v *Controller) FunctionalCTARetired(s *sm.SM, c *warp.CTA) {
	if c.CtxCharged > 0 {
		v.perSM[s.ID].ctxBytesUsed -= c.CtxCharged
		c.CtxCharged = 0
	}
}

// CanSleep vetoes per-SM fast-forward while a controller decision is
// actionable without any external event: a ready CTA that could be
// activated next cycle, or a stalled active CTA that could be swapped out.
// Everything else the controller reacts to arrives through a waking event
// (load completions, port-free and restore-complete callbacks, the
// min-residency eligibility wakeup scheduled by swapOut), so sleeping is
// indistinguishable from running the controller every cycle.
func (v *Controller) CanSleep(s *sm.SM) bool {
	c := v.ready(s)
	if c == nil {
		// Admission cannot change while the SM is quiescent, and with no
		// ready CTA neither activation nor swap-out can proceed.
		return true
	}
	st := &v.perSM[s.ID]
	now := s.Ev.Now()
	portFree := st.freePort(now) >= 0
	if s.CanActivateCTA(c) && (c.State == warp.CTAPending || portFree) {
		return false
	}
	if portFree {
		// A CTA still inside its residency window is not a victim:
		// swapOut's minElig wakeup covers that crossing.
		if victim, _ := v.swapVictim(s, st, now); victim != nil {
			return false
		}
	}
	return true
}

func (v *Controller) countInactive(s *sm.SM) {
	n := 0
	for _, c := range s.Resident {
		if c.State == warp.CTAInactiveWaiting || c.State == warp.CTAInactiveReady {
			n++
		}
	}
	if n > v.Stats.MaxInactive {
		v.Stats.MaxInactive = n
	}
}

// stalledEnough is the reference for the SM-maintained CTA.Stalled: it
// reports whether the CTA's unfinished warps are blocked on outstanding
// global loads (or barrier-parked) beyond the trigger fraction, with at
// least one memory-blocked warp, by re-classifying every warp. At the
// paper-default fraction of 1.0, any issuable or short-latency-blocked
// warp vetoes the swap.
func (v *Controller) stalledEnough(s *sm.SM, c *warp.CTA) bool {
	code := c.Launch.Kernel.Code
	frac := s.Cfg.VT.EffTriggerFraction()
	anyMem := false
	unfinished, blocked := 0, 0
	for _, w := range c.Warps {
		switch w.BlockedState(code) {
		case warp.BlockedDone:
			continue
		case warp.BlockedMem:
			anyMem = true
			blocked++
		case warp.BlockedBarrier:
			// Parked warps cost nothing to leave; they gate on peers.
			blocked++
		default:
			if frac >= 1 {
				return false // paper default: every warp must be stalled
			}
		}
		unfinished++
	}
	if !anyMem || unfinished == 0 {
		return false
	}
	return float64(blocked) >= frac*float64(unfinished)
}
