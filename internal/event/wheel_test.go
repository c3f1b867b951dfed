package event

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestPastClampDuringDrain pins the documented Post contract for the case
// the doc comment calls out explicitly: scheduling at a past (or current)
// cycle from INSIDE an event that is firing during an AdvanceTo drain.
// The clamped event must run later in the very same drain — after every
// event already queued for the current cycle — and the behavior must be
// identical for the wheel and the reference heap.
func TestPastClampDuringDrain(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *Queue
	}{
		{"wheel", NewQueue}, {"heap", NewHeapQueue},
	} {
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
	for _, tc := range []struct {
		name string
		mk   func() *Queue
	}{
		{"wheel", NewQueue}, {"heap", NewHeapQueue},
	} {
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
// requires the exact same execution order. The generator is built to hit
// the wheel's hard cases:
//   - same-cycle bursts (FIFO tie-break on seq),
//   - re-entrant scheduling from inside firing events, including clamped
//     past-cycle posts,
//   - far-future events beyond the 4096-bucket window (overflow heap),
//     whose later migration back into buckets must preserve seq order
//     across bucket-wrap boundaries,
//   - interleaved recorder completions and closure adapters.
func TestWheelMatchesHeapProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run := func(q *Queue) []string {
				rng := rand.New(rand.NewSource(seed))
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
						// Typed completion path.
						q.PostC(when, Completion{
							H:    &recorder{log: &log, id: id},
							Kind: uint8(rng.Intn(8)),
							A:    rng.Uint32() & 0xff,
							B:    rng.Uint32() & 0xff,
						})
						if reenter {
							// Pair the completion with an adapter that re-enters,
							// so re-entry also happens near typed firings.
							at(q, when, func() { schedule(depth + 1) })
						}
					} else {
						at(q, when, func() {
							log = append(log, fmt.Sprintf("f%d", id))
							if reenter {
								schedule(depth + 1)
								schedule(depth + 1)
							}
						})
					}
				}
				for i := 0; i < 300; i++ {
					schedule(0)
					if i%10 == 9 {
						q.AdvanceTo(q.Now() + rng.Int63n(6000))
					}
				}
				// Drain everything left.
				for q.Pending() > 0 {
					next, ok := q.NextCycle()
					if !ok {
						t.Fatalf("pending=%d but NextCycle reports empty", q.Pending())
					}
					q.AdvanceTo(next)
				}
				return log
			}
			wheel := run(NewQueue())
			heap := run(NewHeapQueue())
			if !reflect.DeepEqual(wheel, heap) {
				min := len(wheel)
				if len(heap) < min {
					min = len(heap)
				}
				for i := 0; i < min; i++ {
					if wheel[i] != heap[i] {
						t.Fatalf("seed %d: order diverges at event %d: wheel=%q heap=%q (lens %d/%d)",
							seed, i, wheel[i], heap[i], len(wheel), len(heap))
					}
				}
				t.Fatalf("seed %d: lengths diverge: wheel=%d heap=%d", seed, len(wheel), len(heap))
			}
			if len(wheel) == 0 {
				t.Fatalf("seed %d: property run fired no events", seed)
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
