package sm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/simt"
	"repro/internal/warp"
)

// Snapshot support for the SM. The guiding rule: anything an event
// operand or a scheduling decision can observe is serialized verbatim,
// everything derivable is rebuilt. Pending typed events embed arena
// indices (lsuPool for evLoadLine), so the arena — including its free
// list and the lsuQueue/lsuHead cursor — restores to the exact captured
// layout. Warp pointers serialize as (kernel, flat CTA,
// warp index) triples; CTA structure is rebuilt deterministically from
// the launch (cta.Grid.Materialize) and the dynamic warp state overlaid.
// Derived state is never serialized: the next-instruction records and the
// cached issue classification (IssueState, RestoreReady, the schedulers'
// ready bitsets and class counters, the CTAs' class counters and swap
// trigger) are re-derived through refreshWarp on every bound warp, and the
// residency state (sequence, resident-warp count, ready-CTA set) through
// addResident and SetCTAState, which reproduces all of it exactly because
// it is a pure function of the serialized state.
//
// Sleep state (asleep, sleptFrom, wakeAt) travels verbatim: waking the SM
// at capture time would run extra control cycles on resume (clearing, for
// example, a GTO scheduler's greedy pointer) and diverge from the
// uninterrupted run.

// WarpRef names a warp by stable indices; Kernel < 0 encodes a nil warp.
type WarpRef struct {
	Kernel int `json:"k"`
	Flat   int `json:"c"`
	Idx    int `json:"w"`
}

// NilWarpRef is the encoding of a nil warp pointer.
func NilWarpRef() WarpRef { return WarpRef{Kernel: -1} }

func warpRef(w *warp.Warp) WarpRef {
	if w == nil {
		return NilWarpRef()
	}
	return WarpRef{Kernel: w.CTA.KernelID, Flat: w.CTA.FlatID, Idx: w.IdxInCTA}
}

// WarpState is one warp's serialized dynamic state. Structure (lane
// count, register-file shape) is rebuilt from the launch.
type WarpState struct {
	Regs             []uint32     `json:"regs"`
	Stack            []simt.Entry `json:"stack"`
	Exited           uint64       `json:"exited"`
	SBPend           isa.RegMask  `json:"sb_pend"`
	SBLoad           isa.RegMask  `json:"sb_load"`
	AtBarrier        bool         `json:"at_barrier"`
	Finished         bool         `json:"finished"`
	OutstandingLoads int          `json:"outstanding_loads"`
	Slot             int          `json:"slot"`
	LastIssue        int64        `json:"last_issue"`
	IssuedInstrs     int64        `json:"issued_instrs"`
	ThreadInstrs     int64        `json:"thread_instrs"`
}

// CTASnapshot is one resident CTA's serialized state.
type CTASnapshot struct {
	Kernel      int           `json:"kernel"`
	Flat        int           `json:"flat"`
	SMem        []uint32      `json:"smem"`
	Arrived     int           `json:"arrived"`
	Finished    int           `json:"finished"`
	State       warp.CTAState `json:"state"`
	AssignedAt  int64         `json:"assigned_at"`
	ActivatedAt int64         `json:"activated_at"`
	Activations int           `json:"activations"`
	Warps       []WarpState   `json:"warps"`
}

// SchedulerState is one warp scheduler's serialized state.
type SchedulerState struct {
	Greedy    WarpRef   `json:"greedy"`
	RRNext    int       `json:"rr_next"`
	BusyUntil int64     `json:"busy_until"`
	Group     []WarpRef `json:"group"`
	GroupRR   int       `json:"group_rr"`
}

// LSUOpState is one lsuPool arena slot (Used=false for free-list slots;
// W is the nil ref for a store).
type LSUOpState struct {
	Used      bool     `json:"used"`
	W         WarpRef  `json:"w"`
	Dst       isa.Reg  `json:"dst"`
	Write     bool     `json:"write"`
	Lines     []uint32 `json:"lines"`
	Next      int      `json:"next"`
	Remaining int      `json:"remaining"`
}

// WBEntryState is one pending local-wheel writeback.
type WBEntryState struct {
	Cycle int64   `json:"cycle"`
	W     WarpRef `json:"w"`
	Reg   isa.Reg `json:"reg"`
}

// SMState is one SM's complete serialized state.
type SMState struct {
	Resident   []CTASnapshot    `json:"resident"`
	Schedulers []SchedulerState `json:"schedulers"`

	SFUFreeAt  int64 `json:"sfu_free_at"`
	SMemFreeAt int64 `json:"smem_free_at"`

	LSUPool  []LSUOpState `json:"lsu_pool"`
	LSUFree  []int32      `json:"lsu_free"`
	LSUQueue []int32      `json:"lsu_queue"`
	LSUHead  int          `json:"lsu_head"`

	// Wheel entries in slot-scan order (per-slot order preserved), plus
	// the drain cursor.
	WBEntries []WBEntryState `json:"wb_entries"`
	WBDrained int64          `json:"wb_drained"`

	Asleep    bool  `json:"asleep"`
	SleptFrom int64 `json:"slept_from"`
	WakeAt    int64 `json:"wake_at"`

	Stats Stats `json:"stats"`
}

// State captures the SM. Pure read.
func (s *SM) State() *SMState {
	st := &SMState{
		SFUFreeAt:  s.sfuFreeAt,
		SMemFreeAt: s.smemFreeAt,
		LSUFree:    append([]int32(nil), s.lsuFree...),
		LSUQueue:   append([]int32(nil), s.lsuQueue...),
		LSUHead:    s.lsuHead,
		WBDrained:  s.wb.drained,
		Asleep:     s.asleep,
		SleptFrom:  s.sleptFrom,
		WakeAt:     s.wakeAt,
		Stats:      s.Stats,
	}
	st.Stats.IssuedPerKernel = append([]int64(nil), s.Stats.IssuedPerKernel...)
	for _, c := range s.Resident {
		cs := CTASnapshot{
			Kernel:      c.KernelID,
			Flat:        c.FlatID,
			SMem:        append([]uint32(nil), c.SMem...),
			Arrived:     c.Arrived,
			Finished:    c.Finished,
			State:       c.State,
			AssignedAt:  c.AssignedAt,
			ActivatedAt: c.ActivatedAt,
			Activations: c.Activations,
		}
		for _, w := range c.Warps {
			pend, load := w.SB.Masks()
			cs.Warps = append(cs.Warps, WarpState{
				Regs:             append([]uint32(nil), w.Regs...),
				Stack:            w.Stack.Entries(),
				Exited:           uint64(w.Stack.Exited()),
				SBPend:           pend,
				SBLoad:           load,
				AtBarrier:        w.AtBarrier,
				Finished:         w.Finished,
				OutstandingLoads: w.OutstandingLoads,
				Slot:             w.Slot,
				LastIssue:        w.LastIssue,
				IssuedInstrs:     w.IssuedInstrs,
				ThreadInstrs:     w.ThreadInstrs,
			})
		}
		st.Resident = append(st.Resident, cs)
	}
	// Scheduler refs may dangle: a GTO greedy pointer (or a two-level
	// group member) can still name a warp whose CTA completed and left
	// the SM. Live, such a pointer is inert — the warp is Finished, so
	// every issue check rejects it and twoLevelPick evicts it before the
	// group is consulted — but it is unresolvable after restore. Encode
	// departed refs as nil (greedy) or drop them (group); both are
	// behaviorally identical to the stale original.
	resident := make(map[*warp.CTA]bool, len(s.Resident))
	for _, c := range s.Resident {
		resident[c] = true
	}
	liveRef := func(w *warp.Warp) WarpRef {
		if w == nil || !resident[w.CTA] {
			return NilWarpRef()
		}
		return warpRef(w)
	}
	for _, sc := range s.schedulers {
		ss := SchedulerState{
			Greedy:    liveRef(sc.greedy),
			RRNext:    sc.rrNext,
			BusyUntil: sc.busyUntil,
			GroupRR:   sc.groupRR,
		}
		for _, w := range sc.group {
			if r := liveRef(w); r.Kernel >= 0 {
				ss.Group = append(ss.Group, r)
			}
		}
		st.Schedulers = append(st.Schedulers, ss)
	}
	for i := range s.lsuPool {
		op := &s.lsuPool[i]
		os := LSUOpState{Used: op.used}
		if op.used {
			os.W = warpRef(op.w)
			os.Dst = op.dst
			os.Write = op.write
			os.Lines = append([]uint32(nil), op.lines...)
			os.Next = op.next
			os.Remaining = op.remaining
		}
		st.LSUPool = append(st.LSUPool, os)
	}
	for slot := range s.wb.slots {
		for _, e := range s.wb.slots[slot] {
			st.WBEntries = append(st.WBEntries, WBEntryState{
				Cycle: e.cycle, W: warpRef(e.w), Reg: e.reg,
			})
		}
	}
	return st
}

// Materializer rebuilds the pristine structure of a CTA from its stable
// indices (the grid dispenser provides one).
type Materializer func(kernel, flat int) (*warp.CTA, error)

// SetState restores a freshly built SM (same configuration) to the
// captured state. mat rebuilds CTA structure; the warp resolver for
// cross-references (schedulers, arenas, wheel) is derived from the CTAs
// restored here.
func (s *SM) SetState(st *SMState, mat Materializer) error {
	if len(st.Schedulers) != len(s.schedulers) {
		return fmt.Errorf("sm %d: scheduler count mismatch (%d, want %d)", s.ID, len(st.Schedulers), len(s.schedulers))
	}

	// Rebuild resident CTAs and overlay dynamic state.
	type ctaKey struct{ k, f int }
	ctas := make(map[ctaKey]*warp.CTA, len(st.Resident))
	s.Resident = s.Resident[:0]
	s.readyCTAs = s.readyBuf[:0]
	s.residentWarps, s.stalledCTAs, s.nextSeq = 0, 0, 0
	s.RegsUsed, s.SMemUsed = 0, 0
	s.ActiveCTAs, s.WarpsUsed, s.ThreadsUsed = 0, 0, 0
	for i := range st.Resident {
		cs := &st.Resident[i]
		c, err := mat(cs.Kernel, cs.Flat)
		if err != nil {
			return fmt.Errorf("sm %d: %w", s.ID, err)
		}
		if len(cs.Warps) != len(c.Warps) {
			return fmt.Errorf("sm %d: CTA %d/%d warp count mismatch (%d, want %d)",
				s.ID, cs.Kernel, cs.Flat, len(cs.Warps), len(c.Warps))
		}
		if len(cs.SMem) != len(c.SMem) {
			return fmt.Errorf("sm %d: CTA %d/%d smem size mismatch", s.ID, cs.Kernel, cs.Flat)
		}
		copy(c.SMem, cs.SMem)
		c.Arrived = cs.Arrived
		c.Finished = cs.Finished
		c.AssignedAt = cs.AssignedAt
		c.ActivatedAt = cs.ActivatedAt
		c.Activations = cs.Activations
		for wi, w := range c.Warps {
			ws := &cs.Warps[wi]
			if len(ws.Regs) != len(w.Regs) {
				return fmt.Errorf("sm %d: CTA %d/%d warp %d regfile mismatch", s.ID, cs.Kernel, cs.Flat, wi)
			}
			copy(w.Regs, ws.Regs)
			w.Stack.SetState(ws.Stack, simt.Mask(ws.Exited))
			if ws.Finished != w.Stack.Finished() {
				return fmt.Errorf("sm %d: CTA %d/%d warp %d finished flag disagrees with its stack", s.ID, cs.Kernel, cs.Flat, wi)
			}
			w.SB.SetMasks(ws.SBPend, ws.SBLoad)
			w.AtBarrier = ws.AtBarrier
			w.Finished = ws.Finished
			w.OutstandingLoads = ws.OutstandingLoads
			w.LastIssue = ws.LastIssue
			w.IssuedInstrs = ws.IssuedInstrs
			w.ThreadInstrs = ws.ThreadInstrs
			// Slot binding happens below; keep the pristine -1 /
			// BlockedDone so refreshWarp transitions from a clean base.
		}
		// Residency-derived state (sequence, resident-warp count, ready-CTA
		// set) rebuilds through the calls that maintain it live; the
		// materialized CTA is pending until its captured state is applied.
		s.addResident(c)
		s.SetCTAState(c, cs.State)
		if c.State == warp.CTAActive || c.State == warp.CTARestoring {
			s.ActiveCTAs++
			s.WarpsUsed += len(c.Warps)
			s.ThreadsUsed += c.Threads
		}
		ctas[ctaKey{cs.Kernel, cs.Flat}] = c
	}

	resolve := func(r WarpRef) (*warp.Warp, error) {
		if r.Kernel < 0 {
			return nil, nil
		}
		c, ok := ctas[ctaKey{r.Kernel, r.Flat}]
		if !ok {
			return nil, fmt.Errorf("sm %d: warp ref %d/%d not resident", s.ID, r.Kernel, r.Flat)
		}
		if r.Idx < 0 || r.Idx >= len(c.Warps) {
			return nil, fmt.Errorf("sm %d: warp ref %d/%d idx %d out of range", s.ID, r.Kernel, r.Flat, r.Idx)
		}
		return c.Warps[r.Idx], nil
	}

	// Bind warps to their captured slots, then re-derive the cached
	// classification (counters start at the pristine zero state).
	for i := range s.Slots {
		s.Slots[i] = nil
	}
	for i := range st.Resident {
		cs := &st.Resident[i]
		c := ctas[ctaKey{cs.Kernel, cs.Flat}]
		for wi, w := range c.Warps {
			slot := cs.Warps[wi].Slot
			if slot < 0 {
				continue
			}
			if slot >= len(s.Slots) || s.Slots[slot] != nil {
				return fmt.Errorf("sm %d: slot %d invalid or doubly bound", s.ID, slot)
			}
			s.Slots[slot] = w
			w.Slot = slot
		}
	}
	for _, w := range s.Slots {
		if w != nil {
			s.refreshWarp(w)
		}
	}

	for i, sc := range s.schedulers {
		ss := &st.Schedulers[i]
		g, err := resolve(ss.Greedy)
		if err != nil {
			return err
		}
		sc.greedy = g
		sc.rrNext = ss.RRNext
		sc.busyUntil = ss.BusyUntil
		sc.groupRR = ss.GroupRR
		sc.group = sc.group[:0]
		for _, r := range ss.Group {
			w, err := resolve(r)
			if err != nil {
				return err
			}
			sc.group = append(sc.group, w)
		}
	}

	s.sfuFreeAt = st.SFUFreeAt
	s.smemFreeAt = st.SMemFreeAt

	// LSU arena: exact layout (pending events address it by index).
	s.lsuPool = s.lsuPool[:0]
	for i := range st.LSUPool {
		os := &st.LSUPool[i]
		var op lsuOp
		if os.Used {
			// A store's captured warp (checkpoints from builds that kept
			// one) is never resolved: its CTA may have departed.
			var w *warp.Warp
			if !os.Write {
				var err error
				if w, err = resolve(os.W); err != nil {
					return err
				}
				if w == nil {
					return fmt.Errorf("sm %d: lsu op %d has nil warp", s.ID, i)
				}
			}
			op = lsuOp{
				used: true, w: w, dst: os.Dst, write: os.Write,
				lines:     append([]uint32(nil), os.Lines...),
				next:      os.Next,
				remaining: os.Remaining,
			}
		}
		s.lsuPool = append(s.lsuPool, op)
	}
	s.lsuFree = append(s.lsuFree[:0], st.LSUFree...)
	s.lsuQueue = append(s.lsuQueue[:0], st.LSUQueue...)
	s.lsuHead = st.LSUHead

	// Writeback wheel: direct bucket inserts; an entry outside the live
	// window would break the wheel's slot-per-cycle rule.
	for i := range s.wb.slots {
		s.wb.slots[i] = s.wb.slots[i][:0]
	}
	s.wb.pending = 0
	s.wb.drained = st.WBDrained
	for _, e := range st.WBEntries {
		w, err := resolve(e.W)
		if err != nil {
			return err
		}
		if w == nil {
			return fmt.Errorf("sm %d: wheel entry has nil warp", s.ID)
		}
		if e.Cycle <= st.WBDrained || e.Cycle > st.WBDrained+s.wb.mask {
			return fmt.Errorf("sm %d: wheel entry at cycle %d outside the window after cycle %d", s.ID, e.Cycle, st.WBDrained)
		}
		slot := e.Cycle & s.wb.mask
		s.wb.slots[slot] = append(s.wb.slots[slot], wbEntry{cycle: e.Cycle, w: w, reg: e.Reg})
		s.wb.pending++
	}

	s.asleep = st.Asleep
	s.sleptFrom = st.SleptFrom
	s.wakeAt = st.WakeAt

	s.Stats = st.Stats
	s.Stats.IssuedPerKernel = append([]int64(nil), st.Stats.IssuedPerKernel...)
	return nil
}

// ResolveCTA finds a resident CTA by stable indices.
func (s *SM) ResolveCTA(kernel, flat int) (*warp.CTA, error) {
	for _, c := range s.Resident {
		if c.KernelID == kernel && c.FlatID == flat {
			return c, nil
		}
	}
	return nil, fmt.Errorf("sm %d: CTA %d/%d not resident", s.ID, kernel, flat)
}
