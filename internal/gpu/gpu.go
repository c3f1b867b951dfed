// Package gpu assembles the whole simulated GPU — SMs, memory system,
// event queue, CTA dispenser, and the configured CTA scheduling policy —
// and runs a kernel launch to completion, returning aggregate statistics.
package gpu

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cta"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sm"
	"repro/internal/telemetry"
	"repro/internal/warp"
)

// DefaultMaxCycles aborts runaway simulations.
const DefaultMaxCycles = 200_000_000

// PerKernel summarizes one launch of a multi-kernel run.
type PerKernel struct {
	Name   string
	CTAs   int   // CTAs in the launch's grid
	Issued int64 // warp instructions issued on its behalf
}

// Result is the outcome of one simulation.
type Result struct {
	Kernel string
	Policy config.Policy
	Cycles int64

	// PerKernel has one entry per launch (one for plain Run).
	PerKernel []PerKernel

	SM  sm.Stats   // aggregated over all SMs
	Mem mem.Stats  // memory-system counters
	VT  core.Stats // zero for non-VT policies

	NumSMs     int
	Schedulers int
	WarpSize   int
	Occupancy  cta.Occupancy

	// Sampling reports the sampled-simulation accounting and error bound;
	// nil for fully detailed runs (the default).
	Sampling *SamplingStats `json:",omitempty"`
}

// IPC returns total warp instructions per cycle across the GPU.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.SM.Issued) / float64(r.Cycles)
}

// AvgActiveWarpsPerSM returns the mean number of slot-bound warps per SM.
func (r *Result) AvgActiveWarpsPerSM() float64 {
	if r.SM.Cycles == 0 {
		return 0
	}
	return float64(r.SM.ActiveWarpAccum) / float64(r.SM.Cycles)
}

// AvgResidentWarpsPerSM returns the mean resident (active + inactive)
// warps per SM — the thread-level parallelism VT exposes.
func (r *Result) AvgResidentWarpsPerSM() float64 {
	if r.SM.Cycles == 0 {
		return 0
	}
	return float64(r.SM.ResidentWarpAccum) / float64(r.SM.Cycles)
}

// AvgActiveCTAsPerSM returns the mean active CTAs per SM.
func (r *Result) AvgActiveCTAsPerSM() float64 {
	if r.SM.Cycles == 0 {
		return 0
	}
	return float64(r.SM.ActiveCTAAccum) / float64(r.SM.Cycles)
}

// AvgResidentCTAsPerSM returns the mean resident CTAs per SM.
func (r *Result) AvgResidentCTAsPerSM() float64 {
	if r.SM.Cycles == 0 {
		return 0
	}
	return float64(r.SM.ResidentCTAAccum) / float64(r.SM.Cycles)
}

// SIMDEfficiency returns the mean fraction of lanes active per issued
// warp instruction (1.0 = divergence-free full warps).
func (r *Result) SIMDEfficiency() float64 {
	if r.SM.Issued == 0 {
		return 0
	}
	ws := r.WarpSize
	if ws == 0 {
		ws = 32
	}
	return float64(r.SM.ThreadInstrs) / float64(r.SM.Issued) / float64(ws)
}

// baselineController implements the stock GPU CTA dispatcher: launch CTAs
// onto an SM while both the scheduling and capacity limits admit them, and
// refill as CTAs retire. With config.PolicyIdeal the scheduling limits are
// effectively unbounded, making this the upper-bound policy too.
type baselineController struct {
	src cta.Source
}

func (b *baselineController) Attach(s *sm.SM) {}

func (b *baselineController) Cycle(s *sm.SM) {
	for {
		c := b.src.Next(s.Fit)
		if c == nil {
			return
		}
		s.AddResident(c)
		s.Activate(c)
	}
}

// FunctionalAdmit implements sm.FunctionalAdmitter: baseline admission is
// already zero-latency and event-free, so fast-forward spans refill slots
// through the ordinary dispatch loop. Baseline CTAs are always active, so
// the swapped-out retire hook has nothing to release.
func (b *baselineController) FunctionalAdmit(s *sm.SM) { b.Cycle(s) }

func (b *baselineController) FunctionalCTARetired(s *sm.SM, c *warp.CTA) {}

// Options customize a simulation run.
type Options struct {
	// InitMemory preloads the functional global memory (graph inputs,
	// matrices) before the launch.
	InitMemory func(*mem.Backing)
	// Trace receives Virtual Thread CTA state transitions (VT policies
	// only).
	Trace func(core.TraceEvent)
	// KeepBacking, when non-nil, receives the backing store after the
	// run so callers can verify kernel outputs.
	KeepBacking func(*mem.Backing)
	// DisableIdleSkip forces the engine to simulate every cycle instead
	// of fast-forwarding across quiescent stall periods — both the
	// whole-GPU skip and the per-SM fast-forward. The results should be
	// identical either way, but are not yet under VT and FullSwap: the
	// whole-GPU skip ignores the VT controller's sleep veto, and the
	// Results that change are pinned in the engine oracle's
	// knownSkipDivergence table (oracle_test.go). This exists to verify
	// the property and to debug the skip heuristic.
	DisableIdleSkip bool
	// DisableIssueFastPath routes warp-issue selection, stall
	// classification, and quiescence detection through the original full
	// scans instead of the incrementally maintained ready sets. The
	// cached state is kept up to date either way, so results must be
	// bit-identical; like DisableIdleSkip this exists to enforce and
	// debug that equivalence.
	DisableIssueFastPath bool
	// CheckInvariants runs every SM's conservation-invariant checker
	// (issue-slot conservation, residency accounting, ready-bitset and
	// writeback-wheel consistency; see sm.CheckInvariants) every
	// InvariantInterval cycles and at run end. A violation aborts the
	// run with an *AbortError whose diagnostic carries the cycle-stamped
	// report. Off by default: the checker is a full state rescan.
	CheckInvariants bool
	// InvariantInterval is the checking period in cycles when
	// CheckInvariants is set; zero means DefaultInvariantInterval.
	InvariantInterval int64
	// Ctx, when non-nil, bounds the run by wall clock: it is polled
	// every few thousand simulated cycles, and its expiry or
	// cancellation aborts the run with an *AbortError (ReasonDeadline)
	// carrying a full diagnostic of where the simulation stood.
	Ctx context.Context
	// Telemetry, when non-nil, attaches the collector to the run: it is
	// wired into the sm.Probe hooks, the VT trace stream (teed with
	// Trace), and the run loop's window pump, and it records per-window
	// metric rings and lifecycle spans. The collector is a pure observer
	// — results are bit-identical with and without one (tested) — and a
	// nil collector costs nothing on the hot path. Resume refuses one.
	Telemetry *telemetry.Collector
	// FaultHook, when non-nil, runs at the top of every simulated cycle
	// with the current cycle and the live SMs. It is the deterministic
	// fault-injection seam the run supervisor's tests use to trigger
	// panics, state corruption, and hangs at chosen cycles (see
	// internal/faultinject); it must be nil in normal runs. Idle-skip
	// makes cycle numbers jump, so hooks must fire on the first cycle at
	// or past their target, never on equality.
	FaultHook func(cycle int64, sms []*sm.SM)
	// CheckpointEvery, when positive, captures checkpoints periodically
	// — the first at the first simulated cycle at or past this value
	// (idle-skip makes cycle numbers jump), later ones at least this many
	// cycles apart, with the gap widening as the run grows so capture
	// cost stays a bounded fraction of simulation time — while
	// CheckpointGuard (if any) holds. Each capture goes to OnCheckpoint;
	// callers keep whichever they want.
	CheckpointEvery int64
	// CheckpointGuard, when non-nil, gates captures: once it returns
	// false no further checkpoints are taken (the condition latches).
	// Prefix-forked sweeps use it to stop capturing as soon as the run
	// consumes a parameter that varies across the sweep.
	CheckpointGuard func(cycle int64, vt core.Stats) bool
	// OnCheckpoint receives captured checkpoints. Checkpointing is
	// disabled when nil, whatever the other fields say.
	OnCheckpoint func(*Checkpoint)
	// Sampling enables interval/sampled simulation: detailed windows
	// alternating with functional fast-forward spans whose clock advance
	// is extrapolated from the measured IPC (see sampling.go and
	// docs/ARCHITECTURE.md, "Sampled simulation & error model"). The zero
	// value runs fully detailed. Incompatible with CheckInvariants and
	// with checkpoint capture; validated at engine build.
	Sampling SamplingOptions
}

// queuePool recycles timing-wheel event queues across runs: the wheel's
// bucket slab is the largest single per-run allocation, and reusing it
// (plus whatever bucket/heap capacity a previous run grew) lets sweep
// harnesses schedule without allocating in steady state. Queues are Reset
// on the way back in.
var queuePool = sync.Pool{New: func() any { return event.NewQueue() }}

// Run simulates one launch on the configured GPU and returns its result.
func Run(l *isa.Launch, cfg config.GPUConfig, opts Options) (*Result, error) {
	return RunMulti([]*isa.Launch{l}, cfg, opts)
}

// RunMulti simulates several launches executing concurrently on the GPU
// (Fermi-style concurrent kernel execution): the dispatcher interleaves
// their CTAs round-robin onto SMs, and under the VT policies inactive
// CTAs of different kernels share each SM's capacity.
func RunMulti(launches []*isa.Launch, cfg config.GPUConfig, opts Options) (*Result, error) {
	m, err := newMachine(launches, cfg, opts)
	if err != nil {
		return nil, err
	}
	defer m.release()
	return m.run()
}

// machine is one fully assembled simulated GPU: the component graph plus
// the run loop's bookkeeping. RunMulti builds one, runs it, and releases
// it; Resume builds one, overlays a checkpoint, and runs the rest.
type machine struct {
	launches []*isa.Launch
	cfg      config.GPUConfig
	opts     Options
	name     string

	ev      *event.Queue
	pooled  bool
	backing *mem.Backing
	msys    *mem.System
	grid    *cta.MultiGrid
	vt      *core.Controller // nil for non-VT policies
	sms     []*sm.SM
	eng     *engine
	reg     *event.Registry // built lazily; only snapshots need it

	maxCycles int64
	cycle     int64

	nextCk int64 // next checkpoint cycle; meaningful unless ckDone
	ckDone bool  // no further checkpoints (disabled, or guard latched)

	samp *samplingState // nil unless Options.Sampling enabled
}

// newMachine validates the inputs and assembles the component graph. The
// caller must release() the machine (idempotent) when done.
func newMachine(launches []*isa.Launch, cfg config.GPUConfig, opts Options) (*machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validateOptions(&opts); err != nil {
		return nil, err
	}
	if len(launches) == 0 {
		return nil, fmt.Errorf("gpu: no launches")
	}
	_, maxWarps, maxThreads := cfg.EffectiveSchedulingLimits()
	for _, l := range launches {
		if err := l.Validate(); err != nil {
			return nil, err
		}
		fp := cta.ComputeFootprint(l, &cfg)
		if fp.Regs > cfg.RegFileSize || fp.SMem > cfg.SharedMemPerSM {
			return nil, fmt.Errorf("gpu: kernel %q: one CTA exceeds SM capacity", l.Kernel.Name)
		}
		if fp.Warps > maxWarps || fp.Threads > maxThreads {
			return nil, fmt.Errorf("gpu: kernel %q: one CTA exceeds scheduling limits", l.Kernel.Name)
		}
	}

	m := &machine{launches: launches, cfg: cfg, opts: opts}
	m.ev = queuePool.Get().(*event.Queue)
	m.pooled = true
	m.backing = mem.NewBacking()
	if opts.InitMemory != nil {
		opts.InitMemory(m.backing)
	}
	m.msys = mem.NewSystem(&m.cfg, m.ev)
	m.grid = cta.NewMultiGrid(launches, &m.cfg)

	var ctl sm.Controller
	switch m.cfg.Policy {
	case config.PolicyVT, config.PolicyFullSwap:
		m.vt = core.NewController(m.grid, m.cfg.NumSMs, m.cfg.Policy == config.PolicyFullSwap)
		m.vt.Trace = opts.Trace
		ctl = m.vt
	default:
		ctl = &baselineController{src: m.grid}
	}

	m.sms = make([]*sm.SM, m.cfg.NumSMs)
	for i := range m.sms {
		m.sms[i] = sm.New(i, &m.cfg, m.ev, m.msys, m.backing, len(launches), ctl)
		m.sms[i].DisableFastPath = opts.DisableIssueFastPath
	}

	m.name = launches[0].Kernel.Name
	for _, l := range launches[1:] {
		m.name += "+" + l.Kernel.Name
	}

	if col := opts.Telemetry; col != nil {
		col.Begin(m.cfg.NumSMs, m.name, m.cfg.Policy.String())
		// Shard the L1 counters so per-SM hit rates exist; counters are
		// additive and CollectStats folds them back, so run totals are
		// unchanged.
		m.msys.ShardStats()
		for _, s := range m.sms {
			s.Probe = col
		}
		if m.vt != nil {
			user := m.vt.Trace
			m.vt.Trace = func(e core.TraceEvent) {
				col.VTTrace(e)
				if user != nil {
					user(e)
				}
			}
		}
	}

	m.maxCycles = m.cfg.MaxCycles
	if m.maxCycles <= 0 {
		m.maxCycles = DefaultMaxCycles
	}

	m.nextCk = opts.CheckpointEvery
	m.ckDone = opts.OnCheckpoint == nil || opts.CheckpointEvery <= 0

	m.eng = &engine{sms: m.sms, ev: m.ev, allowSleep: !opts.DisableIdleSkip}
	return m, nil
}

// release returns pooled resources; safe to call more than once.
func (m *machine) release() {
	if m.pooled {
		m.ev.Reset()
		queuePool.Put(m.ev)
		m.pooled = false
	}
}

// diagnose snapshots the whole machine for an abort error. Pure read: it
// runs only on the abort paths, never in a completing simulation.
func (m *machine) diagnose(reason, violation string, cycle int64) *AbortDiagnostic {
	d := &AbortDiagnostic{
		Kernel:        m.launches[0].Kernel.Name,
		Reason:        reason,
		Violation:     violation,
		Cycle:         cycle,
		EventsPending: m.ev.Pending(),
		GridRemaining: m.grid.Remaining(),
	}
	for _, s := range m.sms {
		d.SMs = append(d.SMs, s.Diagnose())
	}
	if m.vt != nil {
		d.VT = m.vt.Diagnose()
	}
	return d
}

// maybeCheckpoint runs the checkpoint cadence at the top of a cycle. The
// machine is quiescent here: the event queue sits exactly at cycle and no
// SM is mid-step.
func (m *machine) maybeCheckpoint(cycle int64) error {
	if m.opts.CheckpointGuard != nil {
		var vs core.Stats
		if m.vt != nil {
			vs = m.vt.Stats
		}
		if !m.opts.CheckpointGuard(cycle, vs) {
			m.ckDone = true // latched: later state depends on swept parameters
			return nil
		}
	}
	ck, err := m.capture()
	if err != nil {
		return fmt.Errorf("gpu: checkpoint at cycle %d: %w", cycle, err)
	}
	m.opts.OnCheckpoint(ck)
	// Widen the gap as the run grows so the total capture cost stays a
	// bounded fraction of simulation time.
	gap := m.opts.CheckpointEvery
	if adaptive := cycle >> 2; adaptive > gap {
		gap = adaptive
	}
	m.nextCk = cycle + gap
	return nil
}

// run drives the simulation from m.cycle (zero, or the checkpoint cycle
// after restore) to completion and assembles the result.
func (m *machine) run() (*Result, error) {
	opts := &m.opts
	checkEvery := opts.InvariantInterval
	if checkEvery <= 0 {
		checkEvery = DefaultInvariantInterval
	}
	nextCheck := m.cycle + checkEvery
	// The deadline poll amortizes the context read across a window of
	// cycles; idle-skip can jump far past nextPoll, which only makes the
	// poll sooner. The window is small relative to even heavily diluted
	// runs (~1k simulated cycles) so deadlines are observed promptly.
	const deadlinePollCycles = 512
	nextPoll := m.cycle
	m.initSampling()

	cycle := m.cycle
	for {
		m.cycle = cycle
		if opts.FaultHook != nil {
			opts.FaultHook(cycle, m.sms)
		}
		if opts.Ctx != nil && cycle >= nextPoll {
			if err := opts.Ctx.Err(); err != nil {
				return nil, newAbortError(m.diagnose(ReasonDeadline, "", cycle),
					fmt.Sprintf("gpu: kernel %q aborted at cycle %d: %v",
						m.launches[0].Kernel.Name, cycle, err), err)
			}
			nextPoll = cycle + deadlinePollCycles
		}
		if opts.CheckInvariants && cycle >= nextCheck {
			if err := m.checkInvariants(); err != nil {
				return nil, newAbortError(m.diagnose(ReasonInvariant, err.Error(), cycle),
					fmt.Sprintf("gpu: kernel %q invariant violation at cycle %d: %v",
						m.launches[0].Kernel.Name, cycle, err), err)
			}
			nextCheck = cycle + checkEvery
		}
		if m.grid.Remaining() == 0 {
			done := true
			for _, s := range m.sms {
				if !s.Idle() {
					done = false
					break
				}
			}
			if done {
				break
			}
		}
		if !m.ckDone && cycle >= m.nextCk {
			if err := m.maybeCheckpoint(cycle); err != nil {
				return nil, err
			}
		}
		if m.samp != nil {
			next, spanned, err := m.sampleHook(cycle)
			if err != nil {
				return nil, err
			}
			if spanned {
				// The span advanced the clock and replayed the loop-bottom
				// bookkeeping; re-enter the loop at the new cycle.
				cycle = next
				continue
			}
		}

		issued := m.eng.cycle()

		next := cycle + 1
		skipFrom := int64(-1)
		if !issued && !opts.DisableIdleSkip && m.eng.quiescent() {
			// Fast-forward across stall periods: nothing inside any SM
			// can change state until the next scheduled event — in the
			// shared queue or any SM's local writeback wheel.
			if evNext, ok := m.eng.nextEvent(); ok && evNext > next {
				next = evNext
				skipFrom = cycle + 1
			} else if !ok {
				// No events pending and nothing schedulable:
				// the simulation cannot make progress.
				return nil, newAbortError(m.diagnose(ReasonDeadlock, "", cycle),
					fmt.Sprintf("gpu: kernel %q deadlocked at cycle %d",
						m.launches[0].Kernel.Name, cycle), nil)
			}
		}
		if col := opts.Telemetry; col != nil {
			// Window boundaries inside a skipped span sample exact
			// virtual statistics (sm.StatsAt charges the pending span
			// into a copy) before the real charge lands below.
			for col.NextBoundary() <= next {
				col.Sample(m.sms, m.msys, m.vt, skipFrom)
			}
		}
		if skipFrom >= 0 {
			for _, s := range m.sms {
				if s.Asleep() {
					continue // charged at wake, from sleptFrom
				}
				s.AccountSkipped(next - cycle - 1)
			}
		}
		cycle = next
		m.ev.AdvanceTo(cycle)
		if cycle > m.maxCycles {
			return nil, newAbortError(m.diagnose(ReasonMaxCycles, "", cycle),
				fmt.Sprintf("gpu: kernel %q exceeded %d cycles",
					m.launches[0].Kernel.Name, m.maxCycles), nil)
		}
	}
	m.cycle = cycle

	// SMs still in per-SM fast-forward owe statistics for their final
	// skipped span.
	for _, s := range m.sms {
		s.WakeUp()
	}
	if col := opts.Telemetry; col != nil {
		// After the wake loop, so every fast-forward span has been
		// charged and its sleep span recorded.
		col.Finish(cycle, m.sms, m.msys, m.vt)
	}
	if opts.CheckInvariants {
		// Final end-of-run check: every skipped span has been charged, so
		// the conservation invariants must hold exactly here.
		if err := m.checkInvariants(); err != nil {
			return nil, newAbortError(m.diagnose(ReasonInvariant, err.Error(), cycle),
				fmt.Sprintf("gpu: kernel %q invariant violation at cycle %d: %v",
					m.launches[0].Kernel.Name, cycle, err), err)
		}
	}

	res := &Result{
		Kernel:     m.name,
		Policy:     m.cfg.Policy,
		Cycles:     cycle,
		Mem:        m.msys.CollectStats(),
		NumSMs:     m.cfg.NumSMs,
		Schedulers: m.cfg.NumSchedulers,
		WarpSize:   m.cfg.WarpSize,
		Occupancy:  cta.ComputeOccupancy(m.launches[0], &m.cfg),
	}
	for _, l := range m.launches {
		res.PerKernel = append(res.PerKernel, PerKernel{
			Name: l.Kernel.Name,
			CTAs: l.GridDim.Size(),
		})
	}
	for _, s := range m.sms {
		agg := &res.SM
		st := s.Stats
		for k := range res.PerKernel {
			if k < len(st.IssuedPerKernel) {
				res.PerKernel[k].Issued += st.IssuedPerKernel[k]
			}
		}
		agg.Issued += st.Issued
		agg.ThreadInstrs += st.ThreadInstrs
		agg.SlotIssued += st.SlotIssued
		agg.SlotStallMem += st.SlotStallMem
		agg.SlotStallALU += st.SlotStallALU
		agg.SlotStallBar += st.SlotStallBar
		agg.SlotStallStr += st.SlotStallStr
		agg.SlotIdle += st.SlotIdle
		agg.ActiveWarpAccum += st.ActiveWarpAccum
		agg.ResidentWarpAccum += st.ResidentWarpAccum
		agg.ActiveCTAAccum += st.ActiveCTAAccum
		agg.ResidentCTAAccum += st.ResidentCTAAccum
		agg.SFUIssued += st.SFUIssued
		agg.SMemAccesses += st.SMemAccesses
		agg.RFBankConflictCyc += st.RFBankConflictCyc
		agg.CTAsCompleted += st.CTAsCompleted
		agg.BarrierReleases += st.BarrierReleases
		agg.SMemConflictCyc += st.SMemConflictCyc
		agg.GlobalTxns += st.GlobalTxns
		agg.LSURetries += st.LSURetries
	}
	// Per-SM cycle accumulators are averaged over SM count so that
	// "per SM" metrics read naturally.
	res.SM.Cycles = cycle
	res.SM.ActiveWarpAccum /= int64(m.cfg.NumSMs)
	res.SM.ResidentWarpAccum /= int64(m.cfg.NumSMs)
	res.SM.ActiveCTAAccum /= int64(m.cfg.NumSMs)
	res.SM.ResidentCTAAccum /= int64(m.cfg.NumSMs)
	if m.samp != nil {
		res.Sampling = m.samp.finish(cycle)
	}
	if m.vt != nil {
		res.VT = m.vt.Stats
	}
	if opts.KeepBacking != nil {
		opts.KeepBacking(m.backing)
	}
	return res, nil
}
