package core

import (
	"fmt"

	"repro/internal/sm"
	"repro/internal/warp"
)

// Snapshot support for the VT controller. Pending evRestoreDone events
// address the per-SM restores arena by index, so the arena and its free
// list restore to the exact captured layout, with CTA pointers encoded as
// (kernel, flat) pairs resolved against the restored SM's resident set.
// The SM handle, the ports slice and the admission predicate are built by
// Attach at construction, before SetState overlays the captured values.

// RestoreRef is one restores-arena slot (Used=false for free slots).
type RestoreRef struct {
	Used   bool `json:"used"`
	Kernel int  `json:"kernel"`
	Flat   int  `json:"flat"`
}

// SMCtlState is the controller's per-SM serialized state.
type SMCtlState struct {
	Ports        []int64      `json:"ports"`
	CtxBytesUsed int          `json:"ctx_bytes_used"`
	WakeAt       int64        `json:"wake_at"`
	Restores     []RestoreRef `json:"restores"`
	RestoreFree  []int32      `json:"restore_free"`
}

// ControllerState is the controller's complete serialized state.
type ControllerState struct {
	Stats Stats        `json:"stats"`
	PerSM []SMCtlState `json:"per_sm"`
}

// State captures the controller. Pure read.
func (v *Controller) State() *ControllerState {
	cs := &ControllerState{Stats: v.Stats}
	for i := range v.perSM {
		st := &v.perSM[i]
		ss := SMCtlState{
			Ports:        append([]int64(nil), st.ports...),
			CtxBytesUsed: st.ctxBytesUsed,
			WakeAt:       st.wakeAt,
			RestoreFree:  append([]int32(nil), st.restoreFree...),
		}
		for _, c := range st.restores {
			if c == nil {
				ss.Restores = append(ss.Restores, RestoreRef{})
			} else {
				ss.Restores = append(ss.Restores, RestoreRef{Used: true, Kernel: c.KernelID, Flat: c.FlatID})
			}
		}
		cs.PerSM = append(cs.PerSM, ss)
	}
	return cs
}

// SetState restores a freshly built controller. sms are the restored SMs
// in index order; restore records resolve against their resident sets.
func (v *Controller) SetState(cs *ControllerState, sms []*sm.SM) error {
	if len(cs.PerSM) != len(v.perSM) || len(sms) != len(v.perSM) {
		return fmt.Errorf("core: controller state for %d SMs, want %d", len(cs.PerSM), len(v.perSM))
	}
	v.Stats = cs.Stats
	for i := range v.perSM {
		st := &v.perSM[i]
		ss := &cs.PerSM[i]
		if len(ss.Ports) != 0 {
			// A checkpoint a parent build took before the first activation
			// carries no ports; Attach's all-free ports are that state.
			st.ports = append(st.ports[:0], ss.Ports...)
		}
		st.ctxBytesUsed = ss.CtxBytesUsed
		st.wakeAt = ss.WakeAt
		st.restores = st.restores[:0]
		for _, r := range ss.Restores {
			if !r.Used {
				st.restores = append(st.restores, nil)
				continue
			}
			c, err := sms[i].ResolveCTA(r.Kernel, r.Flat)
			if err != nil {
				return fmt.Errorf("core: restore record: %w", err)
			}
			st.restores = append(st.restores, c)
		}
		st.restoreFree = append(st.restoreFree[:0:0], ss.RestoreFree...)
		// Re-derive each inactive CTA's recorded context-buffer charge. In
		// detailed mode a swapped-out CTA's footprint never changes, so the
		// charge always equals the current footprint (sampled runs, where
		// the two can diverge, cannot be checkpointed).
		for _, c := range sms[i].Resident {
			if c.State == warp.CTAInactiveWaiting || c.State == warp.CTAInactiveReady {
				c.CtxCharged = ctxBytesPerCTA(c)
			}
		}
	}
	return nil
}
