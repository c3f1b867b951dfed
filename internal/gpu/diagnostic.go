package gpu

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sm"
)

// Abort reasons carried by AbortDiagnostic.Reason.
const (
	// ReasonDeadlock: nothing can make progress — every SM quiescent and
	// no event pending.
	ReasonDeadlock = "deadlock"
	// ReasonMaxCycles: the run exceeded the configured cycle budget.
	ReasonMaxCycles = "max-cycles"
	// ReasonDeadline: Options.Ctx expired or was canceled (wall clock).
	ReasonDeadline = "deadline"
	// ReasonInvariant: Options.CheckInvariants found corrupted state.
	ReasonInvariant = "invariant"
)

// AbortDiagnostic is the structured forensic record attached to every
// simulation abort: instead of a bare "deadlocked at cycle N", the caller
// gets per-SM warp issue-class counters, ready bitsets, in-flight memory
// operations, barrier occupancy, and the VT controller's swap state — the
// full picture of where every warp was stuck. It serializes to JSON as
// part of harness repro bundles.
type AbortDiagnostic struct {
	Kernel string `json:"kernel"`
	Reason string `json:"reason"`
	Cycle  int64  `json:"cycle"`
	// Violation holds the invariant checker's cycle-stamped report when
	// Reason is ReasonInvariant.
	Violation string `json:"violation,omitempty"`
	// EventsPending counts callbacks still queued in the shared event
	// queue at abort (a deadlock has zero).
	EventsPending int `json:"events_pending"`
	// GridRemaining counts CTAs never dispatched to any SM.
	GridRemaining int `json:"grid_remaining"`

	SMs []sm.Diag  `json:"sms"`
	VT  *core.Diag `json:"vt,omitempty"`
}

// Summary condenses the diagnostic to one line for logs.
func (d *AbortDiagnostic) Summary() string {
	var ready, memB, barB, lsu, loads int
	for i := range d.SMs {
		s := &d.SMs[i]
		ready += s.Ready
		memB += s.BlockedMem
		barB += s.BlockedBarrier
		lsu += s.LSUOps
		loads += s.OutstandingLoads
	}
	return fmt.Sprintf("%s %s at cycle %d: %d ready / %d mem-blocked / %d barrier-parked warps, %d LSU ops, %d loads in flight, %d events pending, %d CTAs undispatched",
		d.Kernel, d.Reason, d.Cycle, ready, memB, barB, lsu, loads, d.EventsPending, d.GridRemaining)
}

// AbortError is the error every abort path returns: the legacy message
// text (so existing callers and tests keep matching on it) plus the
// structured diagnostic, extractable with DiagnosticOf / errors.As.
type AbortError struct {
	Diag *AbortDiagnostic
	// Err is the underlying cause when one exists (e.g. the context
	// error for deadline aborts, the invariant violation report).
	Err error

	msg string
}

func newAbortError(diag *AbortDiagnostic, msg string, err error) *AbortError {
	return &AbortError{Diag: diag, Err: err, msg: msg}
}

func (e *AbortError) Error() string { return e.msg }

func (e *AbortError) Unwrap() error { return e.Err }

// DiagnosticOf extracts the AbortDiagnostic attached to err (at any wrap
// depth), or nil when err carries none.
func DiagnosticOf(err error) *AbortDiagnostic {
	var ae *AbortError
	if errors.As(err, &ae) {
		return ae.Diag
	}
	return nil
}

// DefaultInvariantInterval is how often Options.CheckInvariants runs the
// per-SM checker when Options.InvariantInterval is zero.
const DefaultInvariantInterval = 4096

// checkInvariants runs every SM's invariant checker and the VT
// controller's, joining violations.
func (m *machine) checkInvariants() error {
	var errs []error
	for _, s := range m.sms {
		if err := s.CheckInvariants(); err != nil {
			errs = append(errs, err)
		}
	}
	if m.vt != nil {
		if err := m.vt.CheckInvariants(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
