package mem

import (
	"fmt"
	"sort"

	"repro/internal/event"
)

// Snapshot support for the memory system. Everything observable is
// captured exactly: tag arrays including their LRU stamps (replacement
// decisions depend on them), MSHR chains in registration order (fire
// order is part of the determinism contract), DRAM queues positionally
// (FR-FCFS ages by queue position), and the pacing cursors (l2Free,
// dramFree, bankFree, pumpAt). The MSHR node arena's internal layout is
// unobservable — indices never escape the table — so chains are
// serialized per line, sorted by line address, and rebuilt canonically.
//
// Capture is a pure read. Stats are captured as totals (System.Stats);
// restore folds them into the system's own counters and zeroes every
// L1's, which leaves the totals, the only thing a Result reads, equal.

// TagState is a TagArray's serializable state. Geometry stays with the
// live array (it derives from config); only the dynamic arrays travel.
type TagState struct {
	Lines []uint32 `json:"lines"`
	Valid []bool   `json:"valid"`
	LRU   []int64  `json:"lru"`
	Stamp int64    `json:"stamp"`
}

// State captures the tag array contents.
func (t *TagArray) State() TagState {
	return TagState{
		Lines: append([]uint32(nil), t.lines...),
		Valid: append([]bool(nil), t.valid...),
		LRU:   append([]int64(nil), t.lru...),
		Stamp: t.stamp,
	}
}

// SetState restores the tag array contents captured by State.
func (t *TagArray) SetState(st TagState) error {
	if len(st.Lines) != len(t.lines) || len(st.Valid) != len(t.valid) || len(st.LRU) != len(t.lru) {
		return fmt.Errorf("mem: tag state geometry mismatch (%d lines, want %d)", len(st.Lines), len(t.lines))
	}
	copy(t.lines, st.Lines)
	copy(t.valid, st.Valid)
	copy(t.lru, st.LRU)
	t.stamp = st.Stamp
	return nil
}

// MSHRLine is one line's outstanding-miss chain, completions in
// registration (fire) order.
type MSHRLine struct {
	Line  uint32                `json:"line"`
	Comps []event.CompletionRec `json:"comps"`
}

// state serializes the outstanding misses sorted by line address.
func (m *mshrTable) state(reg *event.Registry) ([]MSHRLine, error) {
	lines := make([]MSHRLine, 0, len(m.pending))
	for addr, l := range m.pending {
		ml := MSHRLine{Line: addr}
		for n := l.head; n != 0; n = m.nodes[n-1].next {
			rec, err := reg.EncodeCompletion(m.nodes[n-1].comp)
			if err != nil {
				return nil, err
			}
			ml.Comps = append(ml.Comps, rec)
		}
		lines = append(lines, ml)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].Line < lines[j].Line })
	return lines, nil
}

// setState rebuilds the table from serialized chains. The node arena is
// laid out canonically; per-line fire order is preserved exactly.
func (m *mshrTable) setState(lines []MSHRLine, reg *event.Registry) error {
	m.pending = make(map[uint32]mshrList, len(lines))
	m.nodes = m.nodes[:0]
	m.free = 0
	for _, ml := range lines {
		var l mshrList
		for _, rec := range ml.Comps {
			c, err := reg.DecodeCompletion(rec)
			if err != nil {
				return err
			}
			n := m.alloc(c)
			if l.head == 0 {
				l.head = n
			} else {
				m.nodes[l.tail-1].next = n
			}
			l.tail = n
		}
		if l.head == 0 {
			return fmt.Errorf("mem: MSHR line %#x has empty chain", ml.Line)
		}
		m.pending[ml.Line] = l
	}
	return nil
}

// L1State is one L1 cache's serializable state. A state without tags
// fails the tag array's geometry check on restore.
type L1State struct {
	Tags TagState   `json:"tags"`
	MSHR []MSHRLine `json:"mshr"`
}

// DRAMReqState is one queued DRAM transaction.
type DRAMReqState struct {
	Line   uint32              `json:"line"`
	Write  bool                `json:"write"`
	OnDone event.CompletionRec `json:"on_done"`
}

// PartitionState is one memory partition's serializable state.
type PartitionState struct {
	Tags     TagState       `json:"tags"`
	MSHR     []MSHRLine     `json:"mshr"`
	L2Free   int64          `json:"l2_free"`
	DRAMFree int64          `json:"dram_free"`
	Queue    []DRAMReqState `json:"queue"`
	BankFree []int64        `json:"bank_free"`
	OpenRow  []uint32       `json:"open_row"`
	PumpAt   int64          `json:"pump_at"`
}

// SystemState is the memory system's complete serializable state.
type SystemState struct {
	Stats Stats            `json:"stats"` // additive totals incl. shards
	L1s   []L1State        `json:"l1s"`
	Parts []PartitionState `json:"parts"`
}

// RegisterHandlers registers the system's event handlers (L1s in SM
// order, then partitions in index order) so pending events and stored
// completions serialize to stable IDs.
func (s *System) RegisterHandlers(reg *event.Registry) {
	for _, c := range s.l1s {
		reg.Register(c)
	}
	for _, p := range s.parts {
		reg.Register(p)
	}
}

// State captures the memory system. Pure read: nothing is folded or
// zeroed.
func (s *System) State(reg *event.Registry) (*SystemState, error) {
	st := &SystemState{Stats: s.Stats()}
	for _, c := range s.l1s {
		ls := L1State{Tags: c.tags.State()}
		var err error
		if ls.MSHR, err = c.mshr.state(reg); err != nil {
			return nil, err
		}
		st.L1s = append(st.L1s, ls)
	}
	for _, p := range s.parts {
		ps := PartitionState{
			Tags:     p.tags.State(),
			L2Free:   p.l2Free,
			DRAMFree: p.dramFree,
			BankFree: append([]int64(nil), p.bankFree...),
			OpenRow:  append([]uint32(nil), p.openRow...),
			PumpAt:   p.pumpAt,
		}
		var err error
		if ps.MSHR, err = p.mshr.state(reg); err != nil {
			return nil, err
		}
		for _, r := range p.queue {
			rec, err := reg.EncodeCompletion(r.onDone)
			if err != nil {
				return nil, err
			}
			ps.Queue = append(ps.Queue, DRAMReqState{Line: r.line, Write: r.write, OnDone: rec})
		}
		st.Parts = append(st.Parts, ps)
	}
	return st, nil
}

// SetState restores a freshly built System (same configuration) to the
// captured state. The captured totals land in the system's own counters
// and every L1's are zeroed, so Stats reads the captured totals back.
func (s *System) SetState(st *SystemState, reg *event.Registry) error {
	if len(st.L1s) != len(s.l1s) || len(st.Parts) != len(s.parts) {
		return fmt.Errorf("mem: state shape mismatch (%d L1s/%d parts, want %d/%d)",
			len(st.L1s), len(st.Parts), len(s.l1s), len(s.parts))
	}
	s.stats = st.Stats
	for i, c := range s.l1s {
		ls := &st.L1s[i]
		if err := c.tags.SetState(ls.Tags); err != nil {
			return err
		}
		if err := c.mshr.setState(ls.MSHR, reg); err != nil {
			return err
		}
		c.stats = Stats{}
	}
	for i, p := range s.parts {
		ps := &st.Parts[i]
		if err := p.tags.SetState(ps.Tags); err != nil {
			return err
		}
		if err := p.mshr.setState(ps.MSHR, reg); err != nil {
			return err
		}
		if len(ps.BankFree) != len(p.bankFree) || len(ps.OpenRow) != len(p.openRow) {
			return fmt.Errorf("mem: partition %d bank count mismatch", i)
		}
		p.l2Free = ps.L2Free
		p.dramFree = ps.DRAMFree
		copy(p.bankFree, ps.BankFree)
		copy(p.openRow, ps.OpenRow)
		p.pumpAt = ps.PumpAt
		p.queue = p.queue[:0]
		for _, r := range ps.Queue {
			c, err := reg.DecodeCompletion(r.OnDone)
			if err != nil {
				return err
			}
			p.queue = append(p.queue, dramReq{line: r.Line, write: r.Write, onDone: c})
		}
	}
	return nil
}

// BackingPageState is one stored page of the functional backing store.
type BackingPageState struct {
	Idx     uint32   `json:"idx"`
	Words   []uint32 `json:"words"`
	Written []uint64 `json:"written"`
}

// BackingState is the backing store's serializable contents, pages sorted
// by index.
type BackingState struct {
	Pages []BackingPageState `json:"pages"`
}

// State captures the stored pages.
func (b *Backing) State() BackingState {
	var st BackingState
	for idx, p := range b.pages {
		st.Pages = append(st.Pages, BackingPageState{
			Idx:     idx,
			Words:   append([]uint32(nil), p.words[:]...),
			Written: append([]uint64(nil), p.written[:]...),
		})
	}
	sort.Slice(st.Pages, func(i, j int) bool { return st.Pages[i].Idx < st.Pages[j].Idx })
	return st
}

// SetState replaces the backing contents with a captured snapshot.
func (b *Backing) SetState(st BackingState) error {
	b.pages = make(map[uint32]*backingPage, len(st.Pages))
	b.lastIdx, b.lastPage = 0, nil
	for _, ps := range st.Pages {
		if len(ps.Words) != pageWords || len(ps.Written) != pageWords/64 {
			return fmt.Errorf("mem: backing page %d has wrong geometry", ps.Idx)
		}
		p := &backingPage{}
		copy(p.words[:], ps.Words)
		copy(p.written[:], ps.Written)
		b.pages[ps.Idx] = p
	}
	return nil
}
