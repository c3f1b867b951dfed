package mem

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/event"
	"repro/internal/simt"
	"repro/internal/testsupport"
)

func testConfig() config.GPUConfig {
	c := testsupport.Small()
	return c
}

func TestBackingDeterministicSynthesis(t *testing.T) {
	b1, b2 := NewBacking(), NewBacking()
	if b1.LoadWord(0x1234) != b2.LoadWord(0x1234) {
		t.Fatal("synthesized words must be deterministic")
	}
	if b1.LoadWord(0x1000) == b1.LoadWord(0x1004) {
		t.Fatal("adjacent words should differ (hash quality)")
	}
}

func TestBackingStoreLoad(t *testing.T) {
	b := NewBacking()
	b.StoreWord(100, 42)
	if got := b.LoadWord(100); got != 42 {
		t.Fatalf("LoadWord = %d, want 42", got)
	}
	// Sub-word addresses alias the containing word.
	if got := b.LoadWord(102); got != 42 {
		t.Fatalf("unaligned LoadWord = %d, want 42", got)
	}
	b.WriteWords(0x200, []uint32{1, 2, 3})
	if b.LoadWord(0x208) != 3 {
		t.Fatal("WriteWords layout wrong")
	}
	b.WriteWords(0x300, []uint32{math.Float32bits(1.5)})
	if math.Float32frombits(b.LoadWord(0x300)) != 1.5 {
		t.Fatal("float round trip failed")
	}
	if b.TouchedWords() != 5 {
		t.Fatalf("TouchedWords = %d, want 5", b.TouchedWords())
	}
}

func TestCoalesceFullyCoalesced(t *testing.T) {
	addrs := make([]uint32, 32)
	for i := range addrs {
		addrs[i] = uint32(0x1000 + 4*i) // 32 lanes x 4B = one 128B line
	}
	lines := CoalesceLinesInto(nil, addrs, simt.FullMask(32), 128)
	if len(lines) != 1 || lines[0] != 0x1000 {
		t.Fatalf("lines = %v, want [0x1000]", lines)
	}
}

func TestCoalesceStrided(t *testing.T) {
	addrs := make([]uint32, 32)
	for i := range addrs {
		addrs[i] = uint32(128 * i) // one line per lane
	}
	lines := CoalesceLinesInto(nil, addrs, simt.FullMask(32), 128)
	if len(lines) != 32 {
		t.Fatalf("strided access lines = %d, want 32", len(lines))
	}
}

func TestCoalesceRespectsMask(t *testing.T) {
	addrs := []uint32{0, 128, 256, 384}
	lines := CoalesceLinesInto(nil, addrs, 0b0101, 128)
	if len(lines) != 2 || lines[0] != 0 || lines[1] != 256 {
		t.Fatalf("masked lines = %v", lines)
	}
	if got := CoalesceLinesInto(nil, addrs, 0, 128); len(got) != 0 {
		t.Fatalf("empty mask must produce no lines, got %v", got)
	}
}

func TestBankConflicts(t *testing.T) {
	// 32 lanes, 32 banks, consecutive words: conflict-free.
	addrs := make([]uint32, 32)
	for i := range addrs {
		addrs[i] = uint32(4 * i)
	}
	if f := BankConflictFactor(addrs, simt.FullMask(32), 32); f != 1 {
		t.Fatalf("consecutive words factor = %d, want 1", f)
	}
	// Stride of 32 words: all lanes hit bank 0 -> 32-way conflict.
	for i := range addrs {
		addrs[i] = uint32(4 * 32 * i)
	}
	if f := BankConflictFactor(addrs, simt.FullMask(32), 32); f != 32 {
		t.Fatalf("stride-32 factor = %d, want 32", f)
	}
	// Broadcast: all lanes read the same word -> free.
	for i := range addrs {
		addrs[i] = 0x40
	}
	if f := BankConflictFactor(addrs, simt.FullMask(32), 32); f != 1 {
		t.Fatalf("broadcast factor = %d, want 1", f)
	}
	if f := BankConflictFactor(addrs, 0, 32); f != 0 {
		t.Fatalf("no active lanes factor = %d, want 0", f)
	}
}

func TestL1HitTiming(t *testing.T) {
	cfg := testConfig()
	ev := event.NewQueue()
	sys := NewSystem(&cfg, ev)

	var first, second int64 = -1, -1
	if !sys.AccessGlobal(0, 0x1000, false, completion(func() { first = ev.Now() })) {
		t.Fatal("access rejected")
	}
	// Drain until the miss completes.
	for i := int64(1); first < 0 && i < 10000; i++ {
		ev.AdvanceTo(i)
	}
	if first < 0 {
		t.Fatal("miss never completed")
	}
	missLatency := first
	minMiss := int64(2*cfg.InterconnectDelay + cfg.L2.Latency + cfg.DRAMLatency)
	if missLatency < minMiss {
		t.Fatalf("miss latency %d below physical minimum %d", missLatency, minMiss)
	}

	start := ev.Now()
	if !sys.AccessGlobal(0, 0x1000, false, completion(func() { second = ev.Now() })) {
		t.Fatal("access rejected")
	}
	for i := start + 1; second < 0 && i < start+10000; i++ {
		ev.AdvanceTo(i)
	}
	hitLatency := second - start
	if hitLatency != int64(cfg.L1D.Latency) {
		t.Fatalf("hit latency = %d, want %d", hitLatency, cfg.L1D.Latency)
	}
	if sys.Stats().L1Hits != 1 || sys.Stats().L1Accesses != 2 {
		t.Fatalf("stats: hits=%d accesses=%d", sys.Stats().L1Hits, sys.Stats().L1Accesses)
	}
}

func TestMSHRMergingAtL1(t *testing.T) {
	cfg := testConfig()
	ev := event.NewQueue()
	sys := NewSystem(&cfg, ev)

	done := 0
	sys.AccessGlobal(0, 0x2000, false, completion(func() { done++ }))
	sys.AccessGlobal(0, 0x2000, false, completion(func() { done++ })) // merges
	if sys.Stats().L1MSHRMerges != 1 {
		t.Fatalf("merges = %d, want 1", sys.Stats().L1MSHRMerges)
	}
	for i := int64(1); done < 2 && i < 10000; i++ {
		ev.AdvanceTo(i)
	}
	if done != 2 {
		t.Fatalf("done = %d, want 2 (merged miss must wake both)", done)
	}
	// Only one request reached DRAM.
	if sys.Stats().DRAMReads != 1 {
		t.Fatalf("DRAM reads = %d, want 1", sys.Stats().DRAMReads)
	}
}

func TestMSHRBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.L1D.MSHRs = 2
	ev := event.NewQueue()
	sys := NewSystem(&cfg, ev)

	if !sys.AccessGlobal(0, 0x0000, false, completion(func() {})) {
		t.Fatal("first access rejected")
	}
	if !sys.AccessGlobal(0, 0x1000, false, completion(func() {})) {
		t.Fatal("second access rejected")
	}
	if sys.AccessGlobal(0, 0x3000, false, completion(func() {})) {
		t.Fatal("third distinct miss must be rejected with 2 MSHRs")
	}
	if sys.Stats().L1Rejects != 1 {
		t.Fatalf("rejects = %d, want 1", sys.Stats().L1Rejects)
	}
	if len(sys.l1s[0].mshr.pending) != 2 {
		t.Fatalf("outstanding = %d, want 2", len(sys.l1s[0].mshr.pending))
	}
}

func TestWriteInvalidatesL1(t *testing.T) {
	cfg := testConfig()
	ev := event.NewQueue()
	sys := NewSystem(&cfg, ev)

	got := false
	sys.AccessGlobal(0, 0x4000, false, completion(func() { got = true }))
	for i := int64(1); !got && i < 10000; i++ {
		ev.AdvanceTo(i)
	}
	// Write to the same line evicts it.
	sys.AccessGlobal(0, 0x4000, true, event.Completion{})
	hitsBefore := sys.Stats().L1Hits
	done := false
	sys.AccessGlobal(0, 0x4000, false, completion(func() { done = true }))
	if sys.Stats().L1Hits != hitsBefore {
		t.Fatal("read after write-evict must miss in L1")
	}
	for i := ev.Now() + 1; !done && i < ev.Now()+10000; i++ {
		ev.AdvanceTo(i)
	}
	if !done {
		t.Fatal("post-write read never completed")
	}
	if sys.Stats().DRAMWrites != 1 {
		t.Fatalf("DRAM writes = %d, want 1", sys.Stats().DRAMWrites)
	}
}

func TestL2SharedAcrossSMs(t *testing.T) {
	cfg := testConfig()
	ev := event.NewQueue()
	sys := NewSystem(&cfg, ev)

	done := false
	sys.AccessGlobal(0, 0x8000, false, completion(func() { done = true }))
	for i := int64(1); !done && i < 10000; i++ {
		ev.AdvanceTo(i)
	}
	// A different SM missing L1 should hit in L2.
	reads := sys.Stats().DRAMReads
	done2 := false
	start := ev.Now()
	sys.AccessGlobal(1, 0x8000, false, completion(func() { done2 = true }))
	for i := start + 1; !done2 && i < start+10000; i++ {
		ev.AdvanceTo(i)
	}
	if sys.Stats().DRAMReads != reads {
		t.Fatal("second SM's miss must be served by L2, not DRAM")
	}
	if sys.Stats().L2Hits != 1 {
		t.Fatalf("L2 hits = %d, want 1", sys.Stats().L2Hits)
	}
}

func TestDRAMBandwidthSerializes(t *testing.T) {
	cfg := testConfig()
	cfg.NumMemPartitions = 1
	ev := event.NewQueue()
	sys := NewSystem(&cfg, ev)

	const n = 16
	var times []int64
	for i := 0; i < n; i++ {
		if !sys.AccessGlobal(0, uint32(i*0x1000), false, completion(func() { times = append(times, ev.Now()) })) {
			t.Fatal("rejected")
		}
	}
	for i := int64(1); len(times) < n && i < 100000; i++ {
		ev.AdvanceTo(i)
	}
	if len(times) != n {
		t.Fatalf("completed %d of %d", len(times), n)
	}
	// Completion times must be spaced by at least the service rate.
	for i := 1; i < n; i++ {
		if times[i]-times[i-1] < int64(cfg.DRAMServiceCycles) {
			t.Fatalf("responses %d and %d spaced %d < service %d",
				i-1, i, times[i]-times[i-1], cfg.DRAMServiceCycles)
		}
	}
	span := times[n-1] - times[0]
	if span < int64((n-1)*cfg.DRAMServiceCycles) {
		t.Fatalf("span %d too small for bandwidth model", span)
	}
}

func TestHitRateHelpers(t *testing.T) {
	var s Stats
	if s.L1HitRate() != 0 || s.L2HitRate() != 0 {
		t.Fatal("idle hit rates must be 0")
	}
	s.L1Accesses, s.L1Hits = 10, 5
	s.L2Accesses, s.L2Hits = 4, 1
	if s.L1HitRate() != 0.5 || s.L2HitRate() != 0.25 {
		t.Fatal("hit rate math wrong")
	}
}

func TestDRAMRowBufferModel(t *testing.T) {
	cfg := testConfig()
	cfg.NumMemPartitions = 1
	cfg.DRAMBanks = 4
	cfg.DRAMRowBytes = 2048
	cfg.DRAMRowPenalty = 50
	ev := event.NewQueue()
	sys := NewSystem(&cfg, ev)

	var first, second, third int64 = -1, -1, -1
	// Two accesses in the same row: second is a row hit.
	sys.AccessGlobal(0, 0x0000, false, completion(func() { first = ev.Now() }))
	sys.AccessGlobal(0, 0x0080, false, completion(func() { second = ev.Now() }))
	// Different row, same bank: pays the penalty again.
	rowStride := uint32(cfg.DRAMRowBytes * cfg.DRAMBanks)
	sys.AccessGlobal(0, rowStride, false, completion(func() { third = ev.Now() }))
	for i := int64(1); third < 0 && i < 100000; i++ {
		ev.AdvanceTo(i)
	}
	if first < 0 || second < 0 || third < 0 {
		t.Fatal("accesses never completed")
	}
	if sys.Stats().DRAMRowHits != 1 {
		t.Fatalf("row hits = %d, want 1", sys.Stats().DRAMRowHits)
	}
	if sys.Stats().DRAMRowMisses != 2 {
		t.Fatalf("row misses = %d, want 2", sys.Stats().DRAMRowMisses)
	}
	// The row hit's extra delay over the first access must be less than
	// a row miss's (the penalty shows up in the response time).
	if !(second-first < third-second) {
		t.Fatalf("timing: first=%d second=%d third=%d (row hit should be cheaper)",
			first, second, third)
	}
	st := sys.Stats()
	if rate := float64(st.DRAMRowHits) / float64(st.DRAMRowHits+st.DRAMRowMisses); rate != 1.0/3.0 {
		t.Fatalf("row hit rate = %v", rate)
	}
}

func TestDRAMBanksOverlapRowMisses(t *testing.T) {
	// Two row misses to different banks overlap their activate latency;
	// two to the same bank serialize.
	mk := func(banks int, a1, a2 uint32) int64 {
		cfg := testConfig()
		cfg.NumMemPartitions = 1
		cfg.DRAMBanks = banks
		cfg.DRAMRowBytes = 2048
		cfg.DRAMRowPenalty = 100
		ev := event.NewQueue()
		sys := NewSystem(&cfg, ev)
		var done int64 = -1
		n := 0
		cb := func() {
			n++
			if n == 2 {
				done = ev.Now()
			}
		}
		sys.AccessGlobal(0, a1, false, completion(cb))
		sys.AccessGlobal(0, a2, false, completion(cb))
		for i := int64(1); done < 0 && i < 100000; i++ {
			ev.AdvanceTo(i)
		}
		return done
	}
	sameBank := mk(4, 0, 4*2048) // same bank, different rows
	diffBank := mk(4, 0, 1*2048) // adjacent rows -> different banks
	if diffBank >= sameBank {
		t.Fatalf("bank parallelism: diff-bank %d should finish before same-bank %d",
			diffBank, sameBank)
	}
}

func TestFlatModelWhenBanksDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMBanks = 0
	ev := event.NewQueue()
	sys := NewSystem(&cfg, ev)
	done := false
	sys.AccessGlobal(0, 0x100, false, completion(func() { done = true }))
	for i := int64(1); !done && i < 100000; i++ {
		ev.AdvanceTo(i)
	}
	if !done {
		t.Fatal("flat model failed to complete")
	}
	if sys.Stats().DRAMRowHits+sys.Stats().DRAMRowMisses != 0 {
		t.Fatal("flat model must not count row buffer events")
	}
}

func TestPartitionInterleaving(t *testing.T) {
	// Consecutive lines must spread across partitions so streaming
	// bandwidth scales with the partition count.
	one := func(parts int) int64 {
		cfg := testConfig()
		cfg.NumMemPartitions = parts
		ev := event.NewQueue()
		sys := NewSystem(&cfg, ev)
		const n = 64
		done := 0
		for i := 0; i < n; i++ {
			sys.AccessGlobal(0, uint32(i*128), false, completion(func() { done++ }))
		}
		for i := int64(1); done < n && i < 1_000_000; i++ {
			ev.AdvanceTo(i)
		}
		if done != n {
			t.Fatalf("only %d of %d completed", done, n)
		}
		return ev.Now()
	}
	t1 := one(1)
	t4 := one(4)
	if t4 >= t1 {
		t.Fatalf("4 partitions (%d cyc) must beat 1 partition (%d cyc)", t4, t1)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	cfg := testConfig()
	cfg.NumMemPartitions = 1
	cfg.DRAMBanks = 1 // force all traffic into one bank
	cfg.DRAMRowBytes = 2048
	cfg.DRAMRowPenalty = 100
	ev := event.NewQueue()
	sys := NewSystem(&cfg, ev)

	// Enqueue: [row0, row1, row0]. In order this costs 3 activations;
	// FR-FCFS serves the second row0 request before row1, costing 2.
	var order []int
	mk := func(id int) func() { return func() { order = append(order, id) } }
	sys.AccessGlobal(0, 0, false, completion(mk(0)))
	sys.AccessGlobal(0, 2048, false, completion(mk(1)))
	sys.AccessGlobal(0, 128, false, completion(mk(2)))
	for i := int64(1); len(order) < 3 && i < 100000; i++ {
		ev.AdvanceTo(i)
	}
	if len(order) != 3 {
		t.Fatalf("completed %d", len(order))
	}
	if !(order[0] == 0 && order[1] == 2 && order[2] == 1) {
		t.Fatalf("service order %v, want [0 2 1] (row hit first)", order)
	}
	if sys.Stats().DRAMRowHits != 1 || sys.Stats().DRAMRowMisses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2",
			sys.Stats().DRAMRowHits, sys.Stats().DRAMRowMisses)
	}
}

// TestSetStateRefusesMissingTags: both cache levels always have tags, so a
// state that carries none for an L1 or an L2 slice is refused on restore,
// not restored as an empty cache.
func TestSetStateRefusesMissingTags(t *testing.T) {
	cfg := testConfig()
	restore := func(edit func(*SystemState)) error {
		src := NewSystem(&cfg, event.NewQueue())
		st, err := src.State(event.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		edit(st)
		return NewSystem(&cfg, event.NewQueue()).SetState(st, event.NewRegistry())
	}
	if err := restore(func(*SystemState) {}); err != nil {
		t.Fatalf("a captured state must restore: %v", err)
	}
	if err := restore(func(st *SystemState) { st.L1s[1].Tags = TagState{} }); err == nil {
		t.Fatal("an L1 state without tags was restored")
	}
	if err := restore(func(st *SystemState) { st.Parts[0].Tags = TagState{} }); err == nil {
		t.Fatal("an L2 slice state without tags was restored")
	}
}
