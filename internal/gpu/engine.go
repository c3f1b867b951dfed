package gpu

import (
	"repro/internal/event"
	"repro/internal/sm"
)

// engine drives the per-cycle simulation loop: each cycle runs
// SM[i].Cycle() in index order on the calling goroutine. Host parallelism
// lives one level up, across independent simulations (the harness worker
// pool and the sweep fabric).
type engine struct {
	sms []*sm.SM
	ev  *event.Queue

	// allowSleep enables per-SM fast-forward: an SM that is quiescent at
	// the end of its cycle goes to sleep and is skipped until an event
	// wakes it or its local writeback wheel comes due. Skipped spans are
	// charged through AccountSkipped at wake, so results are identical to
	// simulating every cycle.
	allowSleep bool
}

// cycle advances every SM by one core cycle and reports whether any warp
// instruction issued anywhere.
func (e *engine) cycle() bool {
	now := e.ev.Now()
	issued := false
	for _, s := range e.sms {
		if s.Asleep() {
			if !s.WheelWakeDue(now) {
				continue
			}
			s.WakeUp()
		}
		if s.Cycle() {
			issued = true
		} else if e.allowSleep {
			s.TrySleep()
		}
	}
	return issued
}

// quiescent reports whether no SM can change state without an event.
func (e *engine) quiescent() bool {
	for _, s := range e.sms {
		if !s.Quiescent() {
			return false
		}
	}
	return true
}

// nextEvent returns the earliest cycle at which anything — the shared
// queue or any SM's local writeback wheel — will change state. ok=false
// means the simulation can make no progress.
func (e *engine) nextEvent() (int64, bool) {
	next, ok := e.ev.NextCycle()
	for _, s := range e.sms {
		if c, cok := s.NextWake(); cok && (!ok || c < next) {
			next, ok = c, true
		}
	}
	return next, ok
}
