package sm

import "repro/internal/warp"

// Residency and CTA-state bookkeeping. Resident membership changes only in
// addResident/removeResident and a resident CTA's State only in
// SetCTAState, so the state derived from them — the resident-warp count,
// the ready-CTA set, the CTA epoch — has exactly one writer each and is
// never re-derived by scanning Resident on the per-cycle path.
// CheckInvariants recounts all of it; SetState (checkpoint restore)
// rebuilds it by replaying the same calls.

// AddResident makes the CTA resident now, charging its capacity footprint.
func (s *SM) AddResident(c *warp.CTA) {
	c.AssignedAt = s.Ev.Now()
	s.addResident(c)
}

// addResident appends c to Resident in residency order. c.AssignedAt and
// c.State must be final: they key the ready-CTA set.
func (s *SM) addResident(c *warp.CTA) {
	c.Seq = s.nextSeq
	s.nextSeq++
	s.Resident = append(s.Resident, c)
	s.residentWarps += len(c.Warps)
	s.RegsUsed += c.RegsAlloc
	s.SMemUsed += c.SMemAlloc
	s.ctaEpoch++
	if readyState(c.State) {
		s.readyInsert(c)
	}
}

// removeResident retires a completed CTA that holds no warp slots:
// releases its capacity, drops it from Resident, and counts it completed.
func (s *SM) removeResident(c *warp.CTA) {
	s.SetCTAState(c, warp.CTADone)
	s.RegsUsed -= c.RegsAlloc
	s.SMemUsed -= c.SMemAlloc
	s.residentWarps -= len(c.Warps)
	for i, r := range s.Resident {
		if r == c {
			s.Resident = append(s.Resident[:i], s.Resident[i+1:]...)
			break
		}
	}
	s.Stats.CTAsCompleted++
}

// SetCTAState is the single writer of a resident CTA's State. It keeps the
// ready-CTA set and the CTA epoch, and re-derives the cached
// classification of the CTA's warps when they are bound to slots (their
// IssueState depends on whether the CTA is active, restoring, or neither).
func (s *SM) SetCTAState(c *warp.CTA, st warp.CTAState) {
	was, is := readyState(c.State), readyState(st)
	c.State = st
	s.ctaEpoch++
	switch {
	case is && !was:
		s.readyInsert(c)
	case was && !is:
		s.readyRemove(c)
	}
	if c.Warps[0].Slot >= 0 {
		for _, w := range c.Warps {
			s.refreshWarp(w)
		}
	}
}

// readyState reports whether a CTA in the state can be given warp slots:
// never yet run, or swapped out with nothing outstanding.
func readyState(st warp.CTAState) bool {
	return st == warp.CTAPending || st == warp.CTAInactiveReady
}

// readyBefore orders the ready-CTA set by the activation policy's
// preference: assignment cycle, then flat CTA id — ascending for
// oldest-first, descending for newest-first — then residency order, the
// order a scan of Resident would meet CTAs that tie on both (concurrent
// kernels admitted in one cycle).
func (s *SM) readyBefore(a, b *warp.CTA) bool {
	if a.AssignedAt != b.AssignedAt {
		return (a.AssignedAt < b.AssignedAt) != s.newestFirst
	}
	if a.FlatID != b.FlatID {
		return (a.FlatID < b.FlatID) != s.newestFirst
	}
	return a.Seq < b.Seq
}

func (s *SM) readyInsert(c *warp.CTA) {
	set := append(s.readyCTAs, nil)
	i := len(set) - 1
	for ; i > 0 && s.readyBefore(c, set[i-1]); i-- {
		set[i] = set[i-1]
	}
	set[i] = c
	s.readyCTAs = set
}

func (s *SM) readyRemove(c *warp.CTA) {
	set := s.readyCTAs
	for i, r := range set {
		if r == c {
			copy(set[i:], set[i+1:])
			set[len(set)-1] = nil
			s.readyCTAs = set[:len(set)-1]
			return
		}
	}
}

// ReadyCTA returns the ready CTA (pending or inactive-ready) the
// activation policy prefers, nil when none is ready.
func (s *SM) ReadyCTA() *warp.CTA {
	if len(s.readyCTAs) == 0 {
		return nil
	}
	return s.readyCTAs[0]
}

// StalledCTAs returns how many resident CTAs currently satisfy the VT swap
// trigger (CTA.Stalled); only active CTAs can.
func (s *SM) StalledCTAs() int { return s.stalledCTAs }

// CTAEpoch advances whenever Resident or any resident CTA's State
// changes. A controller that caches a scan of Resident revalidates it
// against the epoch.
func (s *SM) CTAEpoch() uint64 { return s.ctaEpoch }

// ResidentWarps returns the number of warps of every resident CTA (any
// state).
func (s *SM) ResidentWarps() int { return s.residentWarps }
