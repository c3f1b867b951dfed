package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// closure is a Handler that runs a function: the engine posts typed
// completions, tests post closures.
type closure struct{ fn func() }

func (c *closure) HandleEvent(uint8, uint32, uint32) { c.fn() }

// completion wraps fn as a Completion, one adapter per call.
func completion(fn func()) Completion { return Completion{H: &closure{fn}} }

// at schedules fn at cycle as a typed event.
func at(q queue, cycle int64, fn func()) { q.PostC(cycle, completion(fn)) }

func TestOrdering(t *testing.T) {
	q := NewQueue()
	var got []int
	at(q, 5, func() { got = append(got, 5) })
	at(q, 2, func() { got = append(got, 2) })
	at(q, 9, func() { got = append(got, 9) })
	at(q, 2, func() { got = append(got, 20) }) // same cycle, later scheduling
	q.AdvanceTo(10)
	want := []int{2, 20, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestAdvancePartial(t *testing.T) {
	q := NewQueue()
	ran := 0
	at(q, 3, func() { ran++ })
	at(q, 7, func() { ran++ })
	q.AdvanceTo(5)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if q.Now() != 5 {
		t.Fatalf("Now = %d, want 5", q.Now())
	}
	if n, ok := q.NextCycle(); !ok || n != 7 {
		t.Fatalf("NextCycle = %d,%v", n, ok)
	}
	q.AdvanceTo(7)
	if ran != 2 || q.Pending() != 0 {
		t.Fatalf("ran=%d pending=%d", ran, q.Pending())
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	q := NewQueue()
	q.AdvanceTo(10)
	ran := false
	at(q, 3, func() { ran = true })
	q.AdvanceTo(10) // re-drain current cycle
	if !ran {
		t.Fatal("past event must run at current cycle")
	}
}

func TestEventsSchedulingEvents(t *testing.T) {
	q := NewQueue()
	var got []int64
	at(q, 1, func() {
		got = append(got, q.Now())
		at(q, q.Now(), func() { got = append(got, q.Now()) }) // same cycle
		at(q, q.Now()+4, func() { got = append(got, q.Now()) })
	})
	q.AdvanceTo(1)
	if len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Fatalf("same-cycle chaining: got %v", got)
	}
	q.AdvanceTo(5)
	if len(got) != 3 || got[2] != 5 {
		t.Fatalf("future chaining: got %v", got)
	}
}

func TestNextCycleEmpty(t *testing.T) {
	q := NewQueue()
	if _, ok := q.NextCycle(); ok {
		t.Fatal("empty queue must report no next cycle")
	}
}

// Property: events always fire in non-decreasing cycle order, and at
// exactly the clamped cycle they were scheduled for.
func TestFiringOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue()
		var fired []int64
		n := 1 + rng.Intn(100)
		cycles := make([]int64, n)
		for i := 0; i < n; i++ {
			c := int64(rng.Intn(50))
			cycles[i] = c
			at(q, c, func() { fired = append(fired, q.Now()) })
		}
		q.AdvanceTo(100)
		if len(fired) != n {
			return false
		}
		sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
		for i := range fired {
			if fired[i] != cycles[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAfter(t *testing.T) {
	q := NewQueue()
	q.AdvanceTo(10)
	var fired int64 = -1
	c := completion(func() { fired = q.Now() })
	q.PostAfter(5, c.H, c.Kind, c.A, c.B)
	q.AdvanceTo(20)
	if fired != 15 {
		t.Fatalf("PostAfter fired at %d, want 15", fired)
	}
}

func TestEventSeesOwnCycle(t *testing.T) {
	// Even when the caller jumps far ahead, each event observes its own
	// scheduled cycle as Now() — the property the memory system's latency
	// arithmetic depends on.
	q := NewQueue()
	var seen []int64
	for _, c := range []int64{3, 17, 100} {
		c := c
		at(q, c, func() {
			if q.Now() != c {
				t.Errorf("event scheduled for %d ran at %d", c, q.Now())
			}
			seen = append(seen, q.Now())
		})
	}
	q.AdvanceTo(1000)
	if len(seen) != 3 {
		t.Fatalf("ran %d events", len(seen))
	}
}
