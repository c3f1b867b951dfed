package gpu

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Interval/sampled simulation: the run loop alternates detailed windows
// (the ordinary cycle-accurate loop, unchanged) with functional
// fast-forward spans that retire instructions through the existing
// execute-at-issue semantics without modeling issue, LSU, or DRAM timing.
// Architectural state — registers, memory, barriers, SIMT stacks, CTA
// residency, VT swap state — stays exact; only the clock is extrapolated,
// advancing by the IPC measured over the preceding detailed window. Cache
// tags are warmed during the span (mem.System.WarmGlobal) and every
// functionally retired instruction refreshes the warp's cached issue
// classification, so the next detailed window starts from realistic
// microarchitectural state. See docs/ARCHITECTURE.md, "Sampled simulation
// & error model".

// SamplingOptions configure interval/sampled simulation. The zero value —
// the default — runs fully detailed; Tier-1 figures stay exact.
type SamplingOptions struct {
	// DetailedCycles is the length of each cycle-accurate window.
	DetailedCycles int64
	// FastForwardCycles is the clock budget of each functional span: the
	// span retires roughly IPC x FastForwardCycles instructions and
	// advances the clock by retired/IPC cycles (at most this many).
	FastForwardCycles int64
	// WarmupCycles excludes the start of each detailed window from the
	// IPC measurement, so post-span transients (cold structural state)
	// do not bias the extrapolation. Must be smaller than DetailedCycles.
	WarmupCycles int64
}

// Enabled reports whether any sampling knob is set. Validation requires a
// coherent configuration whenever this is true.
func (o SamplingOptions) Enabled() bool { return o != SamplingOptions{} }

// String renders the configuration as "detailed:fastforward:warmup" (the
// vtbench -sample syntax); empty when disabled.
func (o SamplingOptions) String() string {
	if !o.Enabled() {
		return ""
	}
	return fmt.Sprintf("%d:%d:%d", o.DetailedCycles, o.FastForwardCycles, o.WarmupCycles)
}

// ParseSampling parses the "detailed:fastforward[:warmup]" syntax of the
// vtbench -sample flag into SamplingOptions. The empty string returns
// the zero (disabled) value; validation of the parsed numbers happens in
// Run, where every violation is reported jointly.
func ParseSampling(s string) (SamplingOptions, error) {
	var o SamplingOptions
	if s == "" {
		return o, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return o, fmt.Errorf("gpu: sampling spec %q: want detailed:fastforward[:warmup]", s)
	}
	vals := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return o, fmt.Errorf("gpu: sampling spec %q: %v", s, err)
		}
		vals[i] = v
	}
	o.DetailedCycles, o.FastForwardCycles = vals[0], vals[1]
	if len(vals) == 3 {
		o.WarmupCycles = vals[2]
	}
	return o, nil
}

// SamplingStats reports what the sampling engine did during a run, and
// the error bound it derives for the extrapolated cycle count.
type SamplingStats struct {
	// Spans is the number of completed fast-forward spans.
	Spans int64
	// ExtrapolatedCycles is how much of Result.Cycles was extrapolated
	// rather than simulated in detail.
	ExtrapolatedCycles int64
	// DetailedCycles is the cycle count simulated in full detail,
	// including drain-to-quiescence phases at span entry.
	DetailedCycles int64
	// DrainCycles is the subset of DetailedCycles spent draining in-flight
	// memory traffic and swaps to quiescence before each span.
	DrainCycles int64
	// FunctionalInstrs is the number of warp instructions retired
	// functionally (inside spans) rather than through the issue pipeline.
	FunctionalInstrs int64
	// AbandonedSpans counts span attempts that fell back to detailed
	// simulation (drain bound exceeded, zero measured IPC, or no
	// functional progress).
	AbandonedSpans int64
	// TruncatedSpans counts spans cut short because the machine's
	// composition changed mid-span (a CTA retired with no grid work left
	// to replace it), forcing an early return to detailed measurement.
	TruncatedSpans int64
	// ErrorBound is the reported fractional bound on the cycle-count
	// error: |sampled - exact| / exact should not exceed it. It is
	// derived from the extrapolated fraction of the run and the
	// inter-window IPC variability (see docs/ARCHITECTURE.md).
	ErrorBound float64
}

// samplingState is the run loop's span bookkeeping.
type samplingState struct {
	nextFF     int64 // cycle at which the current detailed window ends
	winStart   int64 // first cycle of the current detailed window
	baseCycle  int64 // IPC measurement start (winStart + warmup)
	baseIssued int64 // total issued instructions at baseCycle
	warmupDone bool

	// Phase accumulator: windows since the last composition change,
	// pooled so the extrapolation uses the phase's mean IPC rather than
	// one window's noisy sample. A phase ends when a span truncates (a
	// CTA retired mid-span with no replacement) or when a detailed window
	// itself straddles a composition change (winResident differs at its
	// two ends); either resets the pool. winPhase tags each measured
	// window with its phase id so the error bound only compares windows
	// that measured the same machine.
	phaseIssued int64
	phaseCycles int64
	phaseID     int32
	winResident int64 // resident warps when the current window began

	ipcs     []float64 // per-window measured IPC, in window order
	winPhase []int32   // phase id of each measured window
	spans    []spanRec // per-span extrapolation record, for the error bound
	smIssued []int64   // scratch: per-SM issued count at span entry

	stats SamplingStats
}

// spanRec records one span's extrapolation for the error-bound derivation:
// which window measurement preceded it and how many cycles it charged.
type spanRec struct {
	win    int   // index into ipcs of the window measured just before
	cycles int64 // extrapolated cycles charged
}

// validateOptions checks the run options, collecting every violation into
// one joined error (the config.Validate convention).
func validateOptions(opts *Options) error {
	var errs []error
	bad := func(cond bool, format string, args ...any) {
		if cond {
			errs = append(errs, fmt.Errorf("gpu: "+format, args...))
		}
	}
	s := opts.Sampling
	if s.Enabled() {
		bad(s.DetailedCycles <= 0, "Sampling.DetailedCycles must be positive (got %d)", s.DetailedCycles)
		bad(s.FastForwardCycles <= 0, "Sampling.FastForwardCycles must be positive (got %d)", s.FastForwardCycles)
		bad(s.WarmupCycles < 0, "Sampling.WarmupCycles must be non-negative (got %d)", s.WarmupCycles)
		bad(s.DetailedCycles > 0 && s.WarmupCycles >= s.DetailedCycles,
			"Sampling.WarmupCycles (%d) must be smaller than DetailedCycles (%d): the window needs measurable cycles",
			s.WarmupCycles, s.DetailedCycles)
		bad(opts.CheckInvariants,
			"Sampling cannot be combined with CheckInvariants: fast-forward spans charge issue slots by extrapolation, which the per-cycle conservation checker rejects mid-span")
		bad(opts.OnCheckpoint != nil && opts.CheckpointEvery > 0,
			"Sampling cannot be combined with checkpoint capture (CheckpointEvery): a capture could land mid-span where timing state is extrapolated")
	}
	return errors.Join(errs...)
}

// residentWarps counts resident warps across all SMs after giving each
// controller a zero-latency admission pass, so a just-retired CTA the
// grid can still replace does not read as a composition change.
func (m *machine) residentWarps() int64 {
	var t int64
	for _, s := range m.sms {
		s.FunctionalAdmitNow()
		t += int64(s.ResidentWarps())
	}
	return t
}

// totalIssued sums issued warp instructions over all SMs.
func (m *machine) totalIssued() int64 {
	var t int64
	for _, s := range m.sms {
		t += s.Stats.Issued
	}
	return t
}

// functionallyQuiescent reports whether a fast-forward span may begin: no
// SM holds in-flight timing state (LSU traffic, pending writebacks, busy
// scoreboards, restoring CTAs) and — under VT — no context-buffer port is
// mid-swap. This is the same quiescence checkpoint boundaries rely on.
func (m *machine) functionallyQuiescent(now int64) bool {
	for _, s := range m.sms {
		if !s.FunctionallyQuiescent() {
			return false
		}
		if m.vt != nil && m.vt.SwapsInFlight(s.ID, now) > 0 {
			return false
		}
	}
	return true
}

// drainBound caps drain-to-quiescence: a drain that runs this long means
// the workload never quiesces (e.g. back-to-back dependent misses), and
// the span attempt is abandoned in favor of detailed simulation.
const drainBound = 100_000

// drainToQuiescence advances the machine cycle by cycle — writeback wheels
// and LSU streaming only, no controller phase, so no new swaps or
// admissions start — until every SM is functionally quiescent. Already
// scheduled controller events (restore completions, port frees) fire at
// their recorded cycles exactly as the detailed loop would fire them.
// Returns the cycle reached and whether quiescence was achieved; drained
// cycles are charged through AccountSkipped either way.
func (m *machine) drainToQuiescence(cycle int64) (int64, bool) {
	for _, s := range m.sms {
		s.WakeUp() // charge any in-progress per-SM fast-forward span
	}
	start := cycle
	reached := false
	for {
		for _, s := range m.sms {
			s.DrainTick()
		}
		if m.functionallyQuiescent(cycle) {
			reached = true
			break
		}
		if cycle-start > drainBound {
			break
		}
		next := cycle + 1
		lsuBusy := false
		for _, s := range m.sms {
			if s.LSUQueueLen() > 0 {
				lsuBusy = true
				break
			}
		}
		if !lsuBusy {
			// Nothing streams line-by-line; jump to the next scheduled
			// event (shared queue or writeback wheels).
			evNext, ok := m.eng.nextEvent()
			if !ok {
				break // no progress possible; detailed loop surfaces the deadlock
			}
			if evNext > next {
				next = evNext
			}
		}
		cycle = next
		m.ev.AdvanceTo(cycle)
	}
	if n := cycle - start; n > 0 {
		for _, s := range m.sms {
			s.AccountSkipped(n)
		}
		m.samp.stats.DrainCycles += n
	}
	return cycle, reached
}

// resetWindow starts a fresh detailed window at cycle, recording the
// machine composition the window opens with.
func (m *machine) resetWindow(cycle int64) {
	sp := m.samp
	sp.winStart = cycle
	sp.warmupDone = false
	sp.nextFF = cycle + m.opts.Sampling.DetailedCycles
	sp.winResident = m.plainResidentWarps()
}

// plainResidentWarps counts resident warps without driving admission —
// safe to call in detailed mode, where zero-latency admission would
// bypass the swap machinery being modeled.
func (m *machine) plainResidentWarps() int64 {
	var t int64
	for _, s := range m.sms {
		t += int64(s.ResidentWarps())
	}
	return t
}

// fastForward runs one functional span: drain to quiescence, measure the
// detailed window's IPC, retire ~IPC x FastForwardCycles instructions
// functionally, charge the extrapolated cycles, and advance the clock.
// It returns the new current cycle; the caller re-enters the loop there.
func (m *machine) fastForward(cycle int64) (int64, error) {
	sp := m.samp
	opts := &m.opts

	// Measure IPC before draining: the drain's zero-issue tail is not
	// steady-state behavior and would bias the extrapolation low. The
	// window's sample is pooled with the phase accumulator (all windows
	// since the last composition change), so the extrapolation uses the
	// phase's mean IPC and window-to-window noise averages out. A window
	// whose resident-warp count changed between its two ends measured a
	// mix of phases: it gets a phase id of its own, resets the pool, and
	// launches no span.
	issuedAtDrain := m.totalIssued()
	dirty := m.plainResidentWarps() != sp.winResident
	var ipc float64
	if d := cycle - sp.baseCycle; sp.warmupDone && d > 0 {
		wi := issuedAtDrain - sp.baseIssued
		sp.ipcs = append(sp.ipcs, float64(wi)/float64(d))
		if dirty {
			sp.phaseID++
			sp.winPhase = append(sp.winPhase, sp.phaseID)
			sp.phaseID++
			sp.phaseIssued, sp.phaseCycles = 0, 0
		} else {
			sp.winPhase = append(sp.winPhase, sp.phaseID)
			sp.phaseIssued += wi
			sp.phaseCycles += d
			ipc = float64(sp.phaseIssued) / float64(sp.phaseCycles)
		}
	}
	if dirty || ipc <= 0 {
		// Composition changed mid-window, or nothing issued (startup,
		// tail, an all-idle window): extrapolation has no trustworthy
		// signal. Spend another detailed window — no drain needed, the
		// detailed loop just continues.
		sp.stats.AbandonedSpans++
		sp.stats.DetailedCycles += cycle - sp.winStart
		m.resetWindow(cycle)
		return cycle, nil
	}

	now, quiesced := m.drainToQuiescence(cycle)
	drained := now - cycle
	sp.stats.DetailedCycles += now - sp.winStart
	if !quiesced {
		sp.stats.AbandonedSpans++
		m.resetWindow(now)
		return m.afterSpan(now)
	}
	// Functional retire: round-robin chunks across SMs until the target
	// instruction count is reached or no SM can make progress (every warp
	// finished, inactive, or the grid is empty of active work).
	target := int64(ipc * float64(opts.Sampling.FastForwardCycles))
	if target < 1 {
		target = 1
	}
	if sp.smIssued == nil {
		sp.smIssued = make([]int64, len(m.sms))
	}
	for i, s := range m.sms {
		sp.smIssued[i] = s.Stats.Issued
	}
	const chunk = 512 // instructions per SM per round, for fairness
	var retired int64
	truncated := false
	startResident := m.residentWarps()
	for retired < target {
		progress := false
		for _, s := range m.sms {
			rem := target - retired
			if rem <= 0 {
				break
			}
			if rem > chunk {
				rem = chunk
			}
			n := s.FunctionalRetire(rem)
			retired += n
			if n > 0 {
				progress = true
			}
		}
		if !progress {
			break
		}
		// Truncate the span when the machine's composition changes: a CTA
		// retired and admission could not refill it (the grid is out of
		// work), so the IPC measured over the previous window no longer
		// describes the machine. The next detailed window re-measures the
		// new phase — this is what keeps spans honest across the tail and
		// across occupancy steps (e.g. the last partial wave of CTAs).
		if m.residentWarps() < startResident {
			truncated = true
			break
		}
	}
	if retired == 0 {
		sp.stats.AbandonedSpans++
		m.resetWindow(now)
		return m.afterSpan(now)
	}
	if truncated {
		sp.stats.TruncatedSpans++
		// The machine entering the next window is a different phase; its
		// windows must not be pooled with the one this span extrapolated.
		sp.phaseID++
		sp.phaseIssued, sp.phaseCycles = 0, 0
	}

	// Extrapolated clock advance. The drain serialized load completions
	// that steady-state execution overlaps with issue, so the drained
	// cycles count against the span's budget: the span's work would have
	// absorbed them. Charged per SM so slot conservation and occupancy
	// accumulators stay exact.
	n := int64(float64(retired)/ipc + 0.5)
	if n > opts.Sampling.FastForwardCycles {
		n = opts.Sampling.FastForwardCycles
	}
	n -= drained
	if n < 0 {
		n = 0
	}
	for i, s := range m.sms {
		s.AccountSampled(n, s.Stats.Issued-sp.smIssued[i])
	}
	sp.spans = append(sp.spans, spanRec{win: len(sp.ipcs) - 1, cycles: n})
	sp.stats.Spans++
	sp.stats.ExtrapolatedCycles += n
	sp.stats.FunctionalInstrs += retired

	now += n
	m.ev.AdvanceTo(now)
	m.resetWindow(now)
	return m.afterSpan(now)
}

// afterSpan replays the loop-bottom bookkeeping the span skipped: the
// telemetry window pump (after all span charges landed, so rings stay
// conservation-exact) and the max-cycles bound.
func (m *machine) afterSpan(now int64) (int64, error) {
	opts := &m.opts
	if col := opts.Telemetry; col != nil {
		for col.NextBoundary() <= now {
			col.Sample(m.sms, m.msys, m.vt, -1)
		}
	}
	if now > m.maxCycles {
		return 0, newAbortError(m.diagnose(ReasonMaxCycles, "", now),
			fmt.Sprintf("gpu: kernel %q exceeded %d cycles",
				m.launches[0].Kernel.Name, m.maxCycles), nil)
	}
	return now, nil
}

// finish derives the reported error bound and returns the run's sampling
// stats. Each span's extrapolated cycles are weighted by how much the IPC
// measurement disagreed between the windows bracketing that span — the
// local signal for how fast IPC was drifting while the span skipped
// detail. A truncated span compares only against its preceding window:
// the window after it measured a different phase by construction, and its
// IPC says nothing about the phase the span extrapolated. On top of the
// local drift each span carries a fixed margin for bias the windows
// cannot observe (the post-span machine starts from an idealized balanced
// state), plus a small whole-run floor.
func (sp *samplingState) finish(totalCycles int64) *SamplingStats {
	st := sp.stats
	weighted := 0.0
	for _, rec := range sp.spans {
		cur := sp.ipcs[rec.win]
		dev := 0.0
		if cur > 0 {
			if w := rec.win - 1; w >= 0 && sp.winPhase[w] == sp.winPhase[rec.win] {
				dev = math.Abs(sp.ipcs[w]-cur) / cur
			}
			if w := rec.win + 1; w < len(sp.ipcs) && sp.winPhase[w] == sp.winPhase[rec.win] {
				if d := math.Abs(sp.ipcs[w]-cur) / cur; d > dev {
					dev = d
				}
			}
		}
		weighted += float64(rec.cycles) * (1.5*dev + 0.02)
	}
	if totalCycles > 0 {
		st.ErrorBound = weighted/float64(totalCycles) + 0.005
	}
	return &st
}

// initSampling arms the span state machine at run entry (lazy so Resume's
// nonzero start cycle is respected). No-op when sampling is off.
func (m *machine) initSampling() {
	if !m.opts.Sampling.Enabled() || m.samp != nil {
		return
	}
	m.samp = &samplingState{}
	m.resetWindow(m.cycle)
}

// sampleHook is the per-iteration span check at the top of the run loop.
// It finalizes the warmup baseline once the window has run WarmupCycles,
// and triggers a fast-forward span when the window is complete. Returns
// the (possibly advanced) current cycle and whether a span ran.
func (m *machine) sampleHook(cycle int64) (int64, bool, error) {
	sp := m.samp
	if !sp.warmupDone && cycle >= sp.winStart+m.opts.Sampling.WarmupCycles {
		sp.baseCycle = cycle
		sp.baseIssued = m.totalIssued()
		sp.warmupDone = true
	}
	if cycle < sp.nextFF {
		return cycle, false, nil
	}
	now, err := m.fastForward(cycle)
	return now, true, err
}
