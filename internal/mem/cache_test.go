package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/event"
)

// closure is an event.Handler that runs a function: the engine passes
// typed completions, tests pass closures.
type closure struct{ fn func() }

func (c *closure) HandleEvent(uint8, uint32, uint32) { c.fn() }

// completion wraps fn as an event.Completion, one adapter per call.
func completion(fn func()) event.Completion { return event.Completion{H: &closure{fn}} }

// validLines counts the tag array's valid lines.
func validLines(t *TagArray) int {
	n := 0
	for _, v := range t.valid {
		if v {
			n++
		}
	}
	return n
}

func TestTagArrayBasics(t *testing.T) {
	ta := NewTagArray(2, 2, 128) // 4 lines total
	if ta.Probe(0) {
		t.Fatal("empty cache must miss")
	}
	ta.Fill(0)
	if !ta.Probe(0) {
		t.Fatal("filled line must hit")
	}
	if validLines(ta) != 1 {
		t.Fatalf("occupancy = %d", validLines(ta))
	}
}

func TestTagArrayLRUEviction(t *testing.T) {
	ta := NewTagArray(1, 2, 128) // one set, 2 ways
	ta.Fill(0 * 128)
	ta.Fill(1 * 128)
	ta.Probe(0 * 128) // touch line 0: line 1 is now LRU
	ev, ok := ta.Fill(2 * 128)
	if !ok || ev != 1*128 {
		t.Fatalf("evicted %d (ok=%v), want line 1*128", ev, ok)
	}
	if !ta.Probe(0*128) || ta.Probe(1*128) || !ta.Probe(2*128) {
		t.Fatal("LRU state wrong after eviction")
	}
}

func TestTagArrayFillPresentIsNoop(t *testing.T) {
	ta := NewTagArray(1, 2, 128)
	ta.Fill(0)
	if _, ok := ta.Fill(0); ok {
		t.Fatal("refilling a present line must not evict")
	}
	if validLines(ta) != 1 {
		t.Fatalf("occupancy = %d, want 1", validLines(ta))
	}
}

func TestTagArraySetMapping(t *testing.T) {
	ta := NewTagArray(4, 1, 128)
	// Lines 0 and 4 map to set 0; lines 1..3 to other sets.
	ta.Fill(0 * 128)
	ta.Fill(1 * 128)
	ta.Fill(4 * 128) // evicts line 0, not line 1
	if ta.Probe(0 * 128) {
		t.Fatal("line 0 should have been evicted by its set conflict")
	}
	if !ta.Probe(1 * 128) {
		t.Fatal("line 1 in a different set must survive")
	}
}

func TestTagArrayInvalidate(t *testing.T) {
	ta := NewTagArray(2, 2, 128)
	ta.Fill(256)
	if !ta.Invalidate(256) {
		t.Fatal("invalidate of present line must report true")
	}
	if ta.Probe(256) {
		t.Fatal("invalidated line must miss")
	}
	if ta.Invalidate(256) {
		t.Fatal("invalidate of absent line must report false")
	}
}

func TestMSHRMergeAndLimit(t *testing.T) {
	m := newMSHRTable(2)
	ran := 0
	p, full := m.add(0x100, completion(func() { ran++ }))
	if !p || full {
		t.Fatal("first miss must be primary")
	}
	p, full = m.add(0x100, completion(func() { ran++ }))
	if p || full {
		t.Fatal("second miss to same line must merge")
	}
	p, full = m.add(0x200, completion(func() { ran++ }))
	if !p || full {
		t.Fatal("different line must get a new entry")
	}
	_, full = m.add(0x300, completion(func() { ran++ }))
	if !full {
		t.Fatal("third distinct line must be rejected at capacity 2")
	}
	m.fireCompleted(0x100)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if len(m.pending) != 1 {
		t.Fatalf("size = %d, want 1", len(m.pending))
	}
	// Freed capacity admits a new line.
	if p, full := m.add(0x300, completion(func() {})); !p || full {
		t.Fatal("freed MSHR must admit a new line")
	}
}

func TestMSHRUnbounded(t *testing.T) {
	m := newMSHRTable(0)
	for i := 0; i < 1000; i++ {
		if _, full := m.add(uint32(i*128), completion(func() {})); full {
			t.Fatal("unbounded table must never be full")
		}
	}
}

// Property: a tag array never exceeds its capacity, and a line just filled
// always probes as a hit.
func TestTagArrayProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sets := 1 << rng.Intn(4)
		ways := 1 + rng.Intn(4)
		ta := NewTagArray(sets, ways, 128)
		for i := 0; i < 200; i++ {
			line := uint32(rng.Intn(64)) * 128
			if rng.Intn(2) == 0 {
				ta.Fill(line)
				if !ta.Probe(line) {
					return false
				}
			} else {
				ta.Probe(line)
			}
			if validLines(ta) > sets*ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
