package core

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/cta"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sm"
	"repro/internal/testsupport"
	"repro/internal/warp"
)

// pausedVTRun steps a one-SM VT run of a memory-bound loop, checking the
// controller's invariants at every cycle boundary, and pauses at the
// first boundary where a CTA is active and two are ready: the state every
// CheckInvariants branch reads.
func pausedVTRun(t *testing.T) (*Controller, *sm.SM) {
	t.Helper()
	cfg := testsupport.Small().WithPolicy(config.PolicyVT)
	cfg.NumSMs = 1
	b := isa.NewBuilder("membound")
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(1, isa.SrNTidX)
	b.IMul(2, 0, 1)
	b.S2R(3, isa.SrTidX)
	b.IAdd(2, 2, 3)
	b.ShlImm(4, 2, 2)
	b.LdParam(5, 0)
	b.IAdd(5, 5, 4)
	b.MovImm(9, 0)
	b.Label("loop")
	b.LdG(6, 5, 0)
	b.IAddImm(5, 6, 4096+128)
	b.AndImm(5, 5, 0x3FFFF)
	b.IAddImm(9, 9, 1)
	b.SetpImm(10, isa.CmpILT, 9, 16)
	b.Bra(10, "loop", "done")
	b.Label("done")
	b.Exit()
	l := &isa.Launch{Kernel: b.MustBuild(), GridDim: isa.Dim1(32), BlockDim: isa.Dim1(64),
		Params: []uint32{0x100000}}

	ev := event.NewQueue()
	grid := cta.NewGrid(l, &cfg)
	v := NewController(grid, 1, false)
	s := sm.New(0, &cfg, ev, mem.NewSystem(&cfg, ev), mem.NewBacking(), 1, v)
	for c := int64(1); c < 200000; c++ {
		s.Cycle()
		ev.AdvanceTo(c)
		if err := v.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d, before any corruption: %v", c, err)
		}
		active, ready := 0, 0
		for _, r := range s.Resident {
			switch r.State {
			case warp.CTAActive:
				active++
			case warp.CTAPending, warp.CTAInactiveReady:
				ready++
			}
		}
		if active > 0 && ready >= 2 {
			return v, s
		}
	}
	t.Fatal("the run never had an active CTA beside two ready ones")
	return nil, nil
}

// TestCheckInvariantsCatchesCorruption corrupts one derived value at a
// time on a VT run paused at a cycle boundary — the ready-set order, an
// active CTA's cached swap trigger, the context-buffer charge, the cached
// residency expiry — and requires CheckInvariants to name each one, and
// to pass again once the value is restored.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	v, s := pausedVTRun(t)
	st := &v.perSM[0]
	var active *warp.CTA
	var behind *warp.CTA // a ready CTA that is not the ready set's head
	for _, c := range s.Resident {
		switch {
		case c.State == warp.CTAActive && active == nil:
			active = c
		case (c.State == warp.CTAPending || c.State == warp.CTAInactiveReady) && c != s.ReadyCTA():
			behind = c
		}
	}
	for _, tc := range []struct {
		name    string
		corrupt func() (restore func())
		want    string
	}{
		{"ready-head", func() func() {
			// Older than every other ready CTA: the activation scan now
			// picks it, while the ready set still has the old head first.
			was := behind.AssignedAt
			behind.AssignedAt = -1
			return func() { behind.AssignedAt = was }
		}, "ready-CTA set head"},
		{"stalled", func() func() {
			active.Stalled = !active.Stalled
			return func() { active.Stalled = !active.Stalled }
		}, "cached swap trigger"},
		{"ctx-bytes", func() func() {
			st.ctxBytesUsed += 4
			return func() { st.ctxBytesUsed -= 4 }
		}, "context buffer holds"},
		{"min-elig", func() func() {
			// An expiry far in the future, cached as current.
			was, wasEpoch := st.minElig, st.eligEpoch
			st.minElig, st.eligEpoch = s.Ev.Now()+1_000_000, s.CTAEpoch()
			return func() { st.minElig, st.eligEpoch = was, wasEpoch }
		}, "cached residency expiry"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restore := tc.corrupt()
			err := v.CheckInvariants()
			restore()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want a %q violation", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "VT SM0: ") || strings.Count(err.Error(), "\n") != 0 {
				t.Errorf("want exactly one violation, named by SM: %q", err)
			}
			if err := v.CheckInvariants(); err != nil {
				t.Fatalf("restored state still fails: %v", err)
			}
		})
	}
}
