package core

import (
	"errors"
	"fmt"

	"repro/internal/warp"
)

// SMDiag snapshots the VT controller's bookkeeping for one SM, captured
// into abort diagnostics so a stuck swap pipeline is visible in failure
// reports.
type SMDiag struct {
	// CtxBytesUsed is the context-buffer bytes held by inactive CTAs.
	CtxBytesUsed int `json:"ctx_bytes_used"`
	// PortsBusyUntil is, per context-buffer port, the first cycle the
	// port is free again (a swap in flight shows as a future cycle).
	PortsBusyUntil []int64 `json:"ports_busy_until,omitempty"`
	// WakeAt is the earliest min-residency expiry the controller is
	// waiting on (0 = none).
	WakeAt int64 `json:"wake_at,omitempty"`
	// ReadyCTA is the flat id of the ready CTA the activation policy
	// would run next, -1 when none is ready. With a free port, a ready CTA
	// and a stalled one (sm.Diag.StalledCTAs), the next Cycle swaps.
	ReadyCTA int `json:"ready_cta"`
}

// Diag is the VT controller's state snapshot for a failure report.
type Diag struct {
	Stats Stats    `json:"stats"`
	PerSM []SMDiag `json:"per_sm"`
}

// Diagnose captures the controller's current state. Pure read.
func (v *Controller) Diagnose() *Diag {
	d := &Diag{Stats: v.Stats, PerSM: make([]SMDiag, len(v.perSM))}
	for i := range v.perSM {
		st := &v.perSM[i]
		d.PerSM[i] = SMDiag{
			CtxBytesUsed:   st.ctxBytesUsed,
			PortsBusyUntil: append([]int64(nil), st.ports...),
			WakeAt:         st.wakeAt,
			ReadyCTA:       -1,
		}
		if c := st.sm.ReadyCTA(); c != nil {
			d.PerSM[i].ReadyCTA = c.FlatID
		}
	}
	return d
}

// CheckInvariants recounts, with the reference scans, the derived state
// the controller decides from — the head of each SM's ready-CTA set, each
// active CTA's cached swap trigger, the cached residency-expiry scan — the
// context-buffer charge, and the paper's active limit: however many CTAs
// are resident, those holding warp slots, and the warps and threads they
// bind, never exceed the scheduling limits. It reports every mismatch
// (joined), or nil.
// Like sm.CheckInvariants it is a pure read for cycle boundaries.
func (v *Controller) CheckInvariants() error {
	var errs []error
	for i := range v.perSM {
		st := &v.perSM[i]
		s := st.sm
		fail := func(format string, args ...any) {
			errs = append(errs, fmt.Errorf("VT SM%d: "+format, append([]any{s.ID}, args...)...))
		}
		if got, want := s.ReadyCTA(), v.pickReady(s); got != want {
			fail("ready-CTA set head %s, the activation scan picks %s", ctaName(got), ctaName(want))
		}
		charged, ctas, warps, threads := 0, 0, 0, 0
		for _, c := range s.Resident {
			charged += c.CtxCharged
			if c.State == warp.CTAActive && c.Stalled != v.stalledEnough(s, c) {
				fail("CTA %s: cached swap trigger %v, the stall scan says %v", ctaName(c), c.Stalled, !c.Stalled)
			}
			if c.State == warp.CTAActive || c.State == warp.CTARestoring {
				ctas, warps, threads = ctas+1, warps+len(c.Warps), threads+c.Threads
			}
		}
		if maxC, maxW, maxT := s.Cfg.EffectiveSchedulingLimits(); ctas > maxC || warps > maxW || threads > maxT {
			fail("active limit: %d CTAs binding %d warps and %d threads hold warp slots, the scheduling limits are %d, %d and %d",
				ctas, warps, threads, maxC, maxW, maxT)
		}
		if charged != st.ctxBytesUsed {
			fail("context buffer holds %d B but inactive CTAs were charged %d B", st.ctxBytesUsed, charged)
		}
		now := s.Ev.Now()
		if st.eligEpoch == s.CTAEpoch() && !(st.minElig >= 0 && now >= st.minElig) {
			if want := minEligScan(s, now, int64(s.Cfg.VT.MinResidencyCycles)); st.minElig != want {
				fail("cached residency expiry %d, a rescan finds %d", st.minElig, want)
			}
		}
	}
	return errors.Join(errs...)
}

func ctaName(c *warp.CTA) string {
	if c == nil {
		return "none"
	}
	return fmt.Sprintf("%d/%d", c.KernelID, c.FlatID)
}
