package mem

import "repro/internal/event"

// TagArray is a set-associative cache tag store with true-LRU replacement.
// It tracks presence only; data motion is functional (the backing store)
// and timing is handled by the callers.
type TagArray struct {
	sets     int
	ways     int
	lineBits uint
	lines    []uint32 // line address per way, lineValid parallel
	valid    []bool
	lru      []int64 // last-touch stamp per way
	stamp    int64
}

// NewTagArray builds a tag array with the given geometry. lineSize must be
// a power of two.
func NewTagArray(sets, ways, lineSize int) *TagArray {
	bits := uint(0)
	for 1<<bits < lineSize {
		bits++
	}
	n := sets * ways
	return &TagArray{
		sets:     sets,
		ways:     ways,
		lineBits: bits,
		lines:    make([]uint32, n),
		valid:    make([]bool, n),
		lru:      make([]int64, n),
	}
}

func (t *TagArray) setOf(lineAddr uint32) int {
	return int((lineAddr >> t.lineBits) % uint32(t.sets))
}

// Probe reports whether the line is present, updating LRU on hit.
func (t *TagArray) Probe(lineAddr uint32) bool {
	base := t.setOf(lineAddr) * t.ways
	for w := 0; w < t.ways; w++ {
		if t.valid[base+w] && t.lines[base+w] == lineAddr {
			t.stamp++
			t.lru[base+w] = t.stamp
			return true
		}
	}
	return false
}

// Fill inserts the line, evicting the LRU way of its set if needed, and
// returns the evicted line address (ok=false when an invalid way was used
// or the line was already present).
func (t *TagArray) Fill(lineAddr uint32) (evicted uint32, ok bool) {
	base := t.setOf(lineAddr) * t.ways
	victim := base
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.valid[i] && t.lines[i] == lineAddr {
			t.stamp++
			t.lru[i] = t.stamp
			return 0, false // already present
		}
		if !t.valid[i] {
			victim = i
			break
		}
		if t.lru[i] < t.lru[victim] {
			victim = i
		}
	}
	evicted, ok = t.lines[victim], t.valid[victim]
	t.stamp++
	t.lines[victim] = lineAddr
	t.valid[victim] = true
	t.lru[victim] = t.stamp
	return evicted, ok
}

// Invalidate removes the line if present (write-evict policy) and reports
// whether it was present.
func (t *TagArray) Invalidate(lineAddr uint32) bool {
	base := t.setOf(lineAddr) * t.ways
	for w := 0; w < t.ways; w++ {
		if t.valid[base+w] && t.lines[base+w] == lineAddr {
			t.valid[base+w] = false
			return true
		}
	}
	return false
}

// mshrTable tracks outstanding misses by line address, merging secondary
// misses into the primary's completion list. Completions are held in a
// pooled node arena linked per line and recycled through a free list, so
// steady-state merging and completion allocate nothing (the old
// implementation grew a fresh []func() per primary miss).
type mshrTable struct {
	max     int
	pending map[uint32]mshrList
	nodes   []mshrNode
	free    int32 // free-list head (index+1; 0 = empty)
}

// mshrList is one line's completion chain; head/tail are node indexes+1.
type mshrList struct{ head, tail int32 }

type mshrNode struct {
	comp event.Completion
	next int32 // next node in chain or free list (index+1; 0 = end)
}

func newMSHRTable(max int) *mshrTable {
	return &mshrTable{max: max, pending: make(map[uint32]mshrList)}
}

// alloc takes a node from the free list (or grows the arena) and returns
// its index+1.
func (m *mshrTable) alloc(c event.Completion) int32 {
	if m.free != 0 {
		n := m.free
		m.free = m.nodes[n-1].next
		m.nodes[n-1] = mshrNode{comp: c}
		return n
	}
	m.nodes = append(m.nodes, mshrNode{comp: c})
	return int32(len(m.nodes))
}

// add registers a completion for the line. It returns primary=true when
// this is the first outstanding miss for the line (the caller must send
// the request downstream), and full=true when a new entry was needed but
// the table is at capacity (the caller must retry later; nothing is
// stored).
func (m *mshrTable) add(lineAddr uint32, done event.Completion) (primary, full bool) {
	if l, ok := m.pending[lineAddr]; ok {
		n := m.alloc(done)
		m.nodes[l.tail-1].next = n
		m.pending[lineAddr] = mshrList{head: l.head, tail: n}
		return false, false
	}
	if m.max > 0 && len(m.pending) >= m.max {
		return false, true
	}
	n := m.alloc(done)
	m.pending[lineAddr] = mshrList{head: n, tail: n}
	return true, false
}

// fireCompleted removes the line's entry and fires its completions in
// registration order. The entry is removed before anything fires and each
// node is copied out and recycled before its completion runs, so
// completions may re-enter the table (even for the same line) safely.
// Every fill answers the one primary miss that sent its line downstream,
// and a line gets a new primary only after its fill removed the entry, so
// the entry exists; a missing one would read as an empty chain anyway.
func (m *mshrTable) fireCompleted(lineAddr uint32) {
	l := m.pending[lineAddr]
	delete(m.pending, lineAddr)
	for n := l.head; n != 0; {
		node := m.nodes[n-1]
		m.nodes[n-1] = mshrNode{next: m.free}
		m.free = n
		n = node.next
		node.comp.Fire()
	}
}
