package event

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// queue is every Queue operation the engine uses. The wheel and the
// reference heap below both implement it, so one property test drives
// them side by side.
type queue interface {
	Now() int64
	Pending() int
	Post(cycle int64, h Handler, kind uint8, a, b uint32)
	PostAfter(delay int64, h Handler, kind uint8, a, b uint32)
	PostC(cycle int64, c Completion)
	AdvanceTo(cycle int64)
	NextCycle() (int64, bool)
	Reset()
	CaptureEvents(reg *Registry) (int64, uint64, []EventRec, error)
	RestoreEvents(now int64, seq uint64, recs []EventRec, reg *Registry) error
}

// heapQueue is the reference queue: one binary heap ordered by the same
// (cycle, seq) key, with none of the wheel's buckets, window or cached
// next-due cycle. It is the specification the wheel must match.
type heapQueue struct {
	now  int64
	seq  uint64
	heap []item
}

func newHeapQueue() queue  { return &heapQueue{} }
func newWheelQueue() queue { return NewQueue() }

func (q *heapQueue) Now() int64   { return q.now }
func (q *heapQueue) Pending() int { return len(q.heap) }

func (q *heapQueue) post(it item) {
	if it.cycle < q.now {
		it.cycle = q.now
	}
	it.seq = q.seq
	q.seq++
	heapPush(&q.heap, it)
}

func (q *heapQueue) Post(cycle int64, h Handler, kind uint8, a, b uint32) {
	q.post(item{cycle: cycle, h: h, kind: kind, a: a, b: b})
}

func (q *heapQueue) PostAfter(delay int64, h Handler, kind uint8, a, b uint32) {
	q.post(item{cycle: q.now + delay, h: h, kind: kind, a: a, b: b})
}

func (q *heapQueue) PostC(cycle int64, c Completion) {
	q.post(item{cycle: cycle, h: c.H, kind: c.Kind, a: c.A, b: c.B})
}

func (q *heapQueue) AdvanceTo(cycle int64) {
	for len(q.heap) > 0 && q.heap[0].cycle <= cycle {
		it := heapPop(&q.heap)
		if it.cycle > q.now {
			q.now = it.cycle
		}
		it.h.HandleEvent(it.kind, it.a, it.b)
	}
	if cycle > q.now {
		q.now = cycle
	}
}

func (q *heapQueue) NextCycle() (int64, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].cycle, true
}

func (q *heapQueue) Reset() { *q = heapQueue{} }

func (q *heapQueue) CaptureEvents(reg *Registry) (int64, uint64, []EventRec, error) {
	recs := make([]EventRec, 0, len(q.heap))
	for _, it := range q.heap {
		id, ok := reg.ids[it.h]
		if !ok {
			return 0, 0, nil, fmt.Errorf("handler %T not registered", it.h)
		}
		recs = append(recs, EventRec{Cycle: it.cycle, Seq: it.seq, H: id, Kind: it.kind, A: it.a, B: it.b})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Cycle != recs[j].Cycle {
			return recs[i].Cycle < recs[j].Cycle
		}
		return recs[i].Seq < recs[j].Seq
	})
	return q.now, q.seq, recs, nil
}

func (q *heapQueue) RestoreEvents(now int64, seq uint64, recs []EventRec, reg *Registry) error {
	q.now, q.seq = now, seq
	for _, r := range recs {
		h, ok := reg.Handler(r.H)
		if !ok {
			return fmt.Errorf("handler id %d out of range", r.H)
		}
		heapPush(&q.heap, item{cycle: r.Cycle, seq: r.Seq, h: h, kind: r.Kind, a: r.A, b: r.B})
	}
	return nil
}

var queueKinds = []struct {
	name string
	mk   func() queue
}{
	{"wheel", newWheelQueue}, {"heap", newHeapQueue},
}

// TestPastClampDuringDrain pins the documented Post contract for the case
// the doc comment calls out explicitly: scheduling at a past (or current)
// cycle from INSIDE an event that is firing during an AdvanceTo drain.
// The clamped event must run later in the very same drain — after every
// event already queued for the current cycle — and the behavior must be
// identical for the wheel and the reference heap.
func TestPastClampDuringDrain(t *testing.T) {
	for _, tc := range queueKinds {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.mk()
			var order []string
			// Two events at cycle 5. The first reaches back to cycles 0
			// and 3 — both in the past once the drain reaches cycle 5 —
			// and to cycle 5 itself. All three clamp to "now" and must
			// fire within this AdvanceTo, after the already-queued "b".
			at(q, 5, func() {
				order = append(order, "a")
				at(q, 0, func() { order = append(order, "past0") })
				at(q, 3, func() { order = append(order, "past3") })
				at(q, 5, func() { order = append(order, "now5") })
			})
			at(q, 5, func() { order = append(order, "b") })
			q.AdvanceTo(10)
			want := []string{"a", "b", "past0", "past3", "now5"}
			if !reflect.DeepEqual(order, want) {
				t.Fatalf("drain order = %v, want %v", order, want)
			}
			if q.Pending() != 0 {
				t.Fatalf("clamped events left %d pending past the drain", q.Pending())
			}
		})
	}
}

// TestPastClampBeforeDrain covers the simpler half of the contract:
// scheduling at a cycle at or before Now() between drains fires on the
// next AdvanceTo that reaches the current cycle, not never and not
// earlier.
func TestPastClampBeforeDrain(t *testing.T) {
	for _, tc := range queueKinds {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.mk()
			q.AdvanceTo(100)
			fired := int64(-1)
			at(q, 7, func() { fired = q.Now() })
			if next, ok := q.NextCycle(); !ok || next != 100 {
				t.Fatalf("clamped event due at %d (ok=%v), want 100 (= Now)", next, ok)
			}
			q.AdvanceTo(100) // re-drain the current cycle
			if fired != 100 {
				t.Fatalf("clamped event fired at %d, want 100", fired)
			}
		})
	}
}

// recorder is a typed handler that logs its firings, so the property test
// covers stored Completions as well as closure adapters.
type recorder struct {
	log *[]string
	id  int
}

func (r *recorder) HandleEvent(kind uint8, a, b uint32) {
	*r.log = append(*r.log, fmt.Sprintf("h%d/%d/%d/%d", r.id, kind, a, b))
}

// TestWheelMatchesHeapProperty feeds an identical seed-deterministic
// randomized schedule through the timing wheel and the reference heap and
// requires the exact same execution order, NextCycle answers and
// captured event sets. The generator drives every operation the engine
// uses and is built to hit the wheel's hard cases:
//   - same-cycle bursts (FIFO tie-break on seq),
//   - re-entrant scheduling from inside firing events, including clamped
//     past-cycle posts,
//   - far-future events beyond the 4096-bucket window (overflow heap),
//     whose later migration back into buckets must preserve seq order
//     across bucket-wrap boundaries,
//   - Post, PostAfter and stored completions, typed and closure-backed,
//   - AdvanceTo jumps to NextCycle, as the engine's idle skip makes them,
//   - RestoreEvents(CaptureEvents()) into a fresh queue mid-stream, as a
//     checkpoint fork does,
//   - a queue dirtied by an abandoned run and Reset for reuse.
func TestWheelMatchesHeapProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run := func(mk func() queue) []string {
				rng := rand.New(rand.NewSource(seed))
				q := mk()
				reg := NewRegistry()
				var log []string
				n := 0
				// schedule posts one event at an offset pattern chosen by
				// the rng; some events re-enter schedule when they fire.
				var schedule func(depth int)
				schedule = func(depth int) {
					id := n
					n++
					var when int64
					switch rng.Intn(6) {
					case 0: // same-cycle burst member
						when = q.Now()
					case 1: // past cycle: clamps to now
						when = q.Now() - rng.Int63n(50) - 1
					case 2: // near future, same wheel window
						when = q.Now() + rng.Int63n(64) + 1
					case 3: // window edge
						when = q.Now() + 4090 + rng.Int63n(12)
					case 4: // far future: overflow heap, crosses wrap
						when = q.Now() + 4096 + rng.Int63n(20000)
					case 5: // multiple wraps out
						when = q.Now() + 3*4096 + rng.Int63n(4096)
					}
					reenter := depth < 3 && rng.Intn(3) == 0
					if rng.Intn(4) == 0 {
						// Typed path: a recorder through one of the three
						// posting calls.
						r := &recorder{log: &log, id: id}
						reg.Register(r)
						kind, a, b := uint8(rng.Intn(8)), rng.Uint32()&0xff, rng.Uint32()&0xff
						switch rng.Intn(3) {
						case 0:
							q.PostC(when, Completion{H: r, Kind: kind, A: a, B: b})
						case 1:
							q.Post(when, r, kind, a, b)
						default:
							q.PostAfter(when-q.Now(), r, kind, a, b)
						}
						if reenter {
							// Pair the completion with an adapter that re-enters,
							// so re-entry also happens near typed firings.
							c := completion(func() { schedule(depth + 1) })
							reg.Register(c.H)
							q.PostC(when, c)
						}
					} else {
						c := completion(func() {
							log = append(log, fmt.Sprintf("f%d", id))
							if reenter {
								schedule(depth + 1)
								schedule(depth + 1)
							}
						})
						reg.Register(c.H)
						q.PostC(when, c)
					}
				}
				next := func() {
					c, ok := q.NextCycle()
					log = append(log, fmt.Sprintf("next %d %v @%d", c, ok, q.Now()))
					if ok {
						q.AdvanceTo(c)
					}
				}
				// An abandoned run: a queue left with pending events is
				// Reset and reused.
				for i := 0; i < 40; i++ {
					schedule(0)
				}
				q.AdvanceTo(rng.Int63n(6000))
				q.Reset()
				log = append(log, fmt.Sprintf("reset %d %d", q.Now(), q.Pending()))
				for i := 0; i < 300; i++ {
					schedule(0)
					switch i % 10 {
					case 4: // idle skip: jump to the next due event
						next()
					case 9:
						q.AdvanceTo(q.Now() + rng.Int63n(6000))
					}
					if i == 150 || i == 229 {
						// Fork: capture, restore into a fresh queue, go on there.
						now, seq, recs, err := q.CaptureEvents(reg)
						if err != nil {
							t.Fatal(err)
						}
						log = append(log, fmt.Sprint("capture", now, seq, recs))
						q = mk()
						if err := q.RestoreEvents(now, seq, recs, reg); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Drain everything left.
				for q.Pending() > 0 {
					next()
				}
				if _, ok := q.NextCycle(); ok {
					t.Fatalf("drained queue still reports a next cycle")
				}
				return log
			}
			wheel := run(newWheelQueue)
			heap := run(newHeapQueue)
			if !reflect.DeepEqual(wheel, heap) {
				min := len(wheel)
				if len(heap) < min {
					min = len(heap)
				}
				for i := 0; i < min; i++ {
					if wheel[i] != heap[i] {
						t.Fatalf("seed %d: order diverges at entry %d: wheel=%q heap=%q (lens %d/%d)",
							seed, i, wheel[i], heap[i], len(wheel), len(heap))
					}
				}
				t.Fatalf("seed %d: lengths diverge: wheel=%d heap=%d", seed, len(wheel), len(heap))
			}
			if len(wheel) < 100 {
				t.Fatalf("seed %d: property run fired only %d entries", seed, len(wheel))
			}
		})
	}
}

// TestWheelResetReuse exercises the cross-run pooling contract: Reset
// must drop leftover events, rewind the clock, and leave the wheel
// producing the same execution order as a freshly built queue.
func TestWheelResetReuse(t *testing.T) {
	q := NewQueue()
	// Dirty the queue: near events, overflow events, partial drain.
	for i := 0; i < 100; i++ {
		at(q, int64(i*37), func() {})
		at(q, int64(10000+i*513), func() {})
	}
	q.AdvanceTo(1234)
	if q.Pending() == 0 {
		t.Fatal("setup failed to leave events pending")
	}
	q.Reset()
	if _, ok := q.NextCycle(); ok || q.Pending() != 0 || q.Now() != 0 {
		t.Fatalf("Reset left pending=%d now=%d nonEmpty=%v", q.Pending(), q.Now(), ok)
	}
	var got, want []int
	fill := func(qq *Queue, out *[]int) {
		for i := 0; i < 50; i++ {
			i := i
			at(qq, int64((i*7919)%200), func() { *out = append(*out, i) })
		}
		qq.AdvanceTo(9000)
	}
	fill(q, &got)
	fill(NewQueue(), &want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused queue order %v differs from fresh queue %v", got, want)
	}
}
