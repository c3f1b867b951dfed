package gpu

import (
	"fmt"
	"reflect"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sm"
	"repro/internal/warp"
)

// CheckpointVersion is bumped whenever the serialized layout changes so
// persisted checkpoints from older builds are rejected instead of
// misinterpreted.
const CheckpointVersion = 1

// Checkpoint is the complete machine state at a quiescent cycle boundary:
// the top of the run loop, where the event queue sits exactly at the
// current cycle and no SM is mid-step.
// Resuming from a checkpoint and running to completion produces a Result
// bit-identical (reflect.DeepEqual) to the uninterrupted run.
//
// The checkpoint is a value: restore never aliases its slices into live
// machine state, so one checkpoint can seed any number of forked runs —
// including concurrent ones — without copying it first.
type Checkpoint struct {
	Version int    `json:"version"`
	Cycle   int64  `json:"cycle"`
	Seq     uint64 `json:"seq"` // event-queue sequence counter
	Kernel  string `json:"kernel"`

	// Config is the configuration the checkpoint was captured under.
	// Resume accepts any config that matches it structurally; see
	// ForkNeutralizedConfig for the parameters allowed to differ.
	Config      config.GPUConfig `json:"config"`
	NumLaunches int              `json:"num_launches"`

	GridNext []int `json:"grid_next"` // per-grid dispense cursors
	GridRR   int   `json:"grid_rr"`   // multi-grid round-robin index

	Events  []event.EventRec      `json:"events"`
	SMs     []*sm.SMState         `json:"sms"`
	VT      *core.ControllerState `json:"vt,omitempty"`
	Mem     *mem.SystemState      `json:"mem"`
	Backing mem.BackingState      `json:"backing"`
}

// ForkNeutralizedConfig zeroes the configuration parameters a prefix fork
// is allowed to vary: the VT swap latencies (consumed only when a swap
// actually happens, so any checkpoint taken before the first swap is
// independent of them) and the max-cycle abort bound (never part of
// machine state). Two configurations whose neutralized forms are equal
// may share checkpoints, provided the capture guard held (no swaps yet);
// the harness keys its prefix cache on exactly this neutralized form.
func ForkNeutralizedConfig(cfg config.GPUConfig) config.GPUConfig {
	cfg.VT.SwapOutLatency = 0
	cfg.VT.SwapInLatency = 0
	cfg.MaxCycles = 0
	return cfg
}

// registry returns the machine's handler registry, building it on first
// use. Registration order is part of the checkpoint format: SMs in index
// order, then the VT controller (when the policy has one), then the
// memory system's L1s and partitions. Any machine built from the same
// structural config reproduces the same IDs.
func (m *machine) registry() *event.Registry {
	if m.reg == nil {
		m.reg = event.NewRegistry()
		for _, s := range m.sms {
			m.reg.Register(s)
		}
		if m.vt != nil {
			m.reg.Register(m.vt)
		}
		m.msys.RegisterHandlers(m.reg)
	}
	return m.reg
}

// capture serializes the whole machine. Pure read: the run can continue
// as if the capture never happened.
func (m *machine) capture() (*Checkpoint, error) {
	reg := m.registry()
	now, seq, recs, err := m.ev.CaptureEvents(reg)
	if err != nil {
		return nil, err
	}
	if now != m.cycle {
		return nil, fmt.Errorf("queue at cycle %d, machine at %d", now, m.cycle)
	}
	next, rr := m.grid.Cursors()
	ck := &Checkpoint{
		Version:     CheckpointVersion,
		Cycle:       m.cycle,
		Seq:         seq,
		Kernel:      m.name,
		Config:      m.cfg,
		NumLaunches: len(m.launches),
		GridNext:    next,
		GridRR:      rr,
		Events:      recs,
		Backing:     m.backing.State(),
	}
	for _, s := range m.sms {
		ck.SMs = append(ck.SMs, s.State())
	}
	if m.vt != nil {
		ck.VT = m.vt.State()
	}
	if ck.Mem, err = m.msys.State(reg); err != nil {
		return nil, err
	}
	return ck, nil
}

// restore overlays a checkpoint onto a freshly built machine. The
// checkpoint is only read; every slice lands in machine-owned storage.
func (m *machine) restore(ck *Checkpoint) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("gpu: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	if ck.NumLaunches != len(m.launches) {
		return fmt.Errorf("gpu: checkpoint has %d launches, machine has %d", ck.NumLaunches, len(m.launches))
	}
	if ck.Kernel != m.name {
		return fmt.Errorf("gpu: checkpoint kernel %q, machine runs %q", ck.Kernel, m.name)
	}
	if len(ck.SMs) != len(m.sms) {
		return fmt.Errorf("gpu: checkpoint has %d SMs, machine has %d", len(ck.SMs), len(m.sms))
	}
	if (ck.VT != nil) != (m.vt != nil) {
		return fmt.Errorf("gpu: checkpoint VT-controller presence does not match policy %v", m.cfg.Policy)
	}
	reg := m.registry()
	if err := m.grid.SetCursors(ck.GridNext, ck.GridRR); err != nil {
		return err
	}
	mat := func(kernel, flat int) (*warp.CTA, error) {
		return m.grid.Materialize(kernel, flat)
	}
	for i, s := range m.sms {
		if err := s.SetState(ck.SMs[i], mat); err != nil {
			return err
		}
	}
	if m.vt != nil {
		if err := m.vt.SetState(ck.VT, m.sms); err != nil {
			return err
		}
	}
	if err := m.msys.SetState(ck.Mem, reg); err != nil {
		return err
	}
	if err := m.backing.SetState(ck.Backing); err != nil {
		return err
	}
	if err := m.ev.RestoreEvents(ck.Cycle, ck.Seq, ck.Events, reg); err != nil {
		return err
	}
	m.cycle = ck.Cycle
	return nil
}

// Resume reconstructs a runnable machine from a checkpoint and runs it to
// completion. The configuration must match the checkpoint's structurally
// — only the parameters ForkNeutralizedConfig clears may differ — and the
// launches must be the ones the checkpoint was captured from (grid shape
// and kernel code are rebuilt from them, not stored in the checkpoint).
// Options.InitMemory is ignored: the functional memory image, including
// every store the prefix performed, comes from the checkpoint.
// Options.Telemetry is refused: a checkpoint carries no collector state,
// so a collector's rings could not cover the prefix.
//
// The returned Result covers the whole run, prefix included: Cycles and
// statistics are exactly those of an uninterrupted run with the same
// configuration.
func Resume(ck *Checkpoint, launches []*isa.Launch, cfg config.GPUConfig, opts Options) (*Result, error) {
	if ck == nil {
		return nil, fmt.Errorf("gpu: nil checkpoint")
	}
	if opts.Telemetry != nil {
		return nil, fmt.Errorf("gpu: Resume cannot attach a telemetry collector: its rings would miss the prefix before cycle %d", ck.Cycle)
	}
	if !reflect.DeepEqual(ForkNeutralizedConfig(ck.Config), ForkNeutralizedConfig(cfg)) {
		return nil, fmt.Errorf("gpu: config differs structurally from the checkpoint's")
	}
	opts.InitMemory = nil
	m, err := newMachine(launches, cfg, opts)
	if err != nil {
		return nil, err
	}
	defer m.release()
	if err := m.restore(ck); err != nil {
		return nil, err
	}
	return m.run()
}
