// Package event provides the discrete-event spine of the simulator. The
// GPU engine advances the clock cycle by cycle; components (caches, DRAM
// partitions, execution pipelines, the Virtual Thread swap engine)
// schedule future work instead of being ticked every cycle, which keeps
// the simulator fast and the timing code local to each component.
//
// Two backends implement the same deterministic contract — events fire in
// (cycle, scheduling-order) order:
//
//   - the default is a bucketed timing wheel (calendar queue): events due
//     inside a fixed window land in per-cycle buckets whose slices are
//     recycled across rotations, and far-future events wait in a small
//     overflow heap until the window reaches them. Post and the drain
//     loop allocate nothing in steady state.
//   - NewHeapQueue builds the reference binary-heap backend
//     (gpu.Options.DisableEventWheel). It orders by the identical
//     (cycle, seq) key, so the two backends must be observationally
//     equivalent; the property tests in this package and gpu's
//     equivalence suite enforce that.
//
// Every event is typed (Post): a Handler, a small kind enum private to
// that handler, and two operand words — no closure allocation.
package event

import "math/bits"

// Handler consumes typed events. Implementations dispatch on kind; kind
// numbering is private to each handler (dispatch is a method call on the
// scheduled handler), so components define their own enums without any
// central registry.
type Handler interface {
	HandleEvent(kind uint8, a, b uint32)
}

// Completion names a typed event to deliver later: a handler, a kind,
// and two operand words. It is the zero-allocation replacement for
// `done func()` continuations on the memory path — a Completion is a
// plain value that components store (MSHR entries, DRAM queue slots) and
// fire or schedule when the data arrives.
type Completion struct {
	H    Handler
	Kind uint8
	A, B uint32
}

// Valid reports whether the completion names a handler (writes pass a
// zero Completion where loads pass a real one).
func (c Completion) Valid() bool { return c.H != nil }

// Fire delivers the completion synchronously.
func (c Completion) Fire() { c.H.HandleEvent(c.Kind, c.A, c.B) }

// item is one scheduled event: a (cycle, seq) ordering key plus a typed
// (handler, kind, operands) record.
type item struct {
	cycle int64
	seq   uint64 // FIFO tie-break for determinism
	h     Handler
	kind  uint8
	a, b  uint32
}

func itemLess(x, y *item) bool {
	if x.cycle != y.cycle {
		return x.cycle < y.cycle
	}
	return x.seq < y.seq
}

// heapPush inserts it into the binary heap ordered by (cycle, seq).
func heapPush(h *[]item, it item) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// heapPop removes and returns the minimum item.
func heapPop(h *[]item) item {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = item{} // release handler references
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && itemLess(&s[l], &s[m]) {
			m = l
		}
		if r < n && itemLess(&s[r], &s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// Wheel geometry: the bucket window covers wheelSize consecutive cycles,
// so bucket (cycle & wheelMask) holds exactly one distinct cycle at a
// time and drains as a FIFO. The window comfortably exceeds every
// steady-state latency in the simulator (DRAM round trips, swap
// latencies); anything past it overflows to a heap and migrates into
// buckets as the window slides, which preserves (cycle, seq) order
// because migration pops the heap in exactly that order and always runs
// before any direct insert for the newly covered cycles.
const (
	wheelBits = 12
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	occWords  = wheelSize / 64
)

// Queue is a deterministic discrete-event queue. Events scheduled for the
// same cycle run in scheduling order. Queue is not safe for concurrent
// use; each simulation owns one.
type Queue struct {
	now     int64
	seq     uint64
	pending int

	useHeap bool
	heap    []item // reference backend (NewHeapQueue)

	// Wheel backend.
	buckets  [][]item // bucket i holds the one window cycle ≡ i (mod wheelSize)
	occ      []uint64 // occupancy bitmap over buckets
	occSum   uint64   // bit w set when occ[w] != 0
	overflow []item   // min-heap: events at or past wheelEnd
	wheelEnd int64    // exclusive end of the bucket window [now, wheelEnd)
	nextDue  int64    // earliest pending cycle; valid while pending > 0
}

// initialBucketCap is the per-bucket capacity carved out of one shared
// slab at construction, sized so typical per-cycle event counts never
// grow a bucket; busier buckets reallocate individually and keep the
// larger capacity across rotations.
const initialBucketCap = 8

// NewQueue returns an empty timing-wheel queue at cycle 0.
func NewQueue() *Queue {
	slab := make([]item, wheelSize*initialBucketCap)
	buckets := make([][]item, wheelSize)
	for i := range buckets {
		buckets[i] = slab[i*initialBucketCap : i*initialBucketCap : (i+1)*initialBucketCap]
	}
	return &Queue{
		buckets:  buckets,
		occ:      make([]uint64, occWords),
		wheelEnd: wheelSize,
	}
}

// NewHeapQueue returns an empty queue at cycle 0 backed by the reference
// binary heap instead of the timing wheel. Both backends order events by
// the same (cycle, seq) key; this one exists to enforce and debug that
// equivalence (gpu.Options.DisableEventWheel).
func NewHeapQueue() *Queue { return &Queue{useHeap: true} }

// Reset returns the queue to cycle 0 with no pending events, retaining
// bucket and heap capacity so a reused queue schedules without
// allocating. The caller must not reuse a queue that still has pending
// events from an aborted run without calling Reset.
func (q *Queue) Reset() {
	if q.pending > 0 {
		// Drop leftovers, releasing references.
		for i := range q.heap {
			q.heap[i] = item{}
		}
		for i := range q.overflow {
			q.overflow[i] = item{}
		}
		for b := range q.buckets {
			bk := q.buckets[b]
			for i := range bk {
				bk[i] = item{}
			}
			q.buckets[b] = bk[:0]
		}
		for i := range q.occ {
			q.occ[i] = 0
		}
		q.occSum = 0
	}
	q.heap = q.heap[:0]
	q.overflow = q.overflow[:0]
	q.now, q.seq, q.pending = 0, 0, 0
	if !q.useHeap {
		q.wheelEnd = wheelSize
	}
}

// Now returns the current cycle.
func (q *Queue) Now() int64 { return q.now }

// post clamps, stamps, and stores one event.
func (q *Queue) post(it item) {
	if it.cycle < q.now {
		it.cycle = q.now
	}
	it.seq = q.seq
	q.seq++
	if q.pending == 0 || it.cycle < q.nextDue {
		q.nextDue = it.cycle
	}
	q.pending++
	if q.useHeap {
		heapPush(&q.heap, it)
		return
	}
	if it.cycle < q.wheelEnd {
		q.bucketAdd(it)
		return
	}
	heapPush(&q.overflow, it)
}

func (q *Queue) bucketAdd(it item) {
	b := int(it.cycle & wheelMask)
	q.buckets[b] = append(q.buckets[b], it)
	q.occ[b>>6] |= 1 << (uint(b) & 63)
	q.occSum |= 1 << (uint(b) >> 6)
}

// Post schedules a typed event at the given cycle. It allocates nothing.
//
// Past-cycle semantics, pinned: scheduling at a cycle at or before Now()
// silently clamps to Now() — the event fires the next time the current
// cycle is (re)drained, including later in the very AdvanceTo drain that
// is running right now. Components rely on this when a completion for
// "this cycle" is scheduled from inside another event; it must never
// become an error or be reordered before already-queued same-cycle
// events.
func (q *Queue) Post(cycle int64, h Handler, kind uint8, a, b uint32) {
	q.post(item{cycle: cycle, h: h, kind: kind, a: a, b: b})
}

// PostAfter schedules a typed event delay cycles from now.
func (q *Queue) PostAfter(delay int64, h Handler, kind uint8, a, b uint32) {
	q.post(item{cycle: q.now + delay, h: h, kind: kind, a: a, b: b})
}

// PostC schedules a stored Completion at the given cycle.
func (q *Queue) PostC(cycle int64, c Completion) {
	q.post(item{cycle: cycle, h: c.H, kind: c.Kind, a: c.A, b: c.B})
}

// slideWindow extends the bucket window to [now, now+wheelSize),
// migrating overflow events that the window now covers. The overflow heap
// pops in (cycle, seq) order and migration precedes any direct insert for
// the newly covered cycles, so bucket order stays FIFO per cycle.
func (q *Queue) slideWindow() {
	end := q.now + wheelSize
	if end <= q.wheelEnd {
		return
	}
	q.wheelEnd = end
	for len(q.overflow) > 0 && q.overflow[0].cycle < end {
		q.bucketAdd(heapPop(&q.overflow))
	}
}

// scanBuckets returns the earliest occupied bucket cycle at or after
// from. The caller guarantees at least one bucket is occupied and that
// every occupied cycle is >= from.
func (q *Queue) scanBuckets(from int64) int64 {
	i0 := int(from & wheelMask)
	w0, b0 := i0>>6, uint(i0&63)
	for k := 0; k <= occWords; k++ {
		w := (w0 + k) & (occWords - 1)
		if q.occSum&(1<<uint(w)) == 0 {
			continue
		}
		word := q.occ[w]
		if k == 0 {
			word &= ^uint64(0) << b0
		} else if k == occWords {
			word &= 1<<b0 - 1
		}
		if word == 0 {
			continue
		}
		bkt := w<<6 + bits.TrailingZeros64(word)
		d := (int64(bkt) - int64(i0)) & wheelMask
		return from + d
	}
	panic("event: scanBuckets on empty wheel")
}

// recomputeNextDue refreshes the cached earliest pending cycle after the
// bucket at from-1 drained. Occupied buckets always precede every
// overflow event (overflow holds only cycles >= wheelEnd).
func (q *Queue) recomputeNextDue(from int64) {
	if q.pending == 0 {
		return
	}
	if q.occSum != 0 {
		q.nextDue = q.scanBuckets(from)
		return
	}
	q.nextDue = q.overflow[0].cycle
}

// AdvanceTo sets the clock to cycle and runs every event due at or before
// it, in (cycle, scheduling-order) order. Events may schedule new events,
// including for the current cycle (which run within this same drain).
func (q *Queue) AdvanceTo(cycle int64) {
	if q.useHeap {
		for len(q.heap) > 0 && q.heap[0].cycle <= cycle {
			it := heapPop(&q.heap)
			q.pending--
			if it.cycle > q.now {
				q.now = it.cycle
			}
			it.h.HandleEvent(it.kind, it.a, it.b)
		}
		if cycle > q.now {
			q.now = cycle
		}
		return
	}
	for q.pending > 0 && q.nextDue <= cycle {
		c := q.nextDue
		if c > q.now {
			q.now = c
		}
		q.slideWindow()
		b := int(c & wheelMask)
		// Events may append to this same bucket mid-drain (Post(now) from
		// inside an event); the bounds check re-reads the slice, so those
		// run in this pass too, in scheduling order.
		for i := 0; i < len(q.buckets[b]); i++ {
			it := q.buckets[b][i]
			q.buckets[b][i] = item{}
			q.pending--
			it.h.HandleEvent(it.kind, it.a, it.b)
		}
		q.buckets[b] = q.buckets[b][:0]
		q.occ[b>>6] &^= 1 << (uint(b) & 63)
		if q.occ[b>>6] == 0 {
			q.occSum &^= 1 << (uint(b) >> 6)
		}
		q.recomputeNextDue(c + 1)
	}
	if cycle > q.now {
		q.now = cycle
		q.slideWindow()
	}
}

// Pending returns the number of scheduled events.
func (q *Queue) Pending() int { return q.pending }

// NextCycle returns the cycle of the earliest pending event, and ok=false
// when the queue is empty. Used by the engine to skip idle cycles; the
// wheel answers from a cached earliest-due cycle maintained on insert and
// drain, replacing the heap peek that used to gate SM sleep.
func (q *Queue) NextCycle() (int64, bool) {
	if q.pending == 0 {
		return 0, false
	}
	if q.useHeap {
		return q.heap[0].cycle, true
	}
	return q.nextDue, true
}
