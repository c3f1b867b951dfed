package mem

import (
	"repro/internal/config"
	"repro/internal/event"
)

// Stats aggregates memory-system counters for one simulation.
type Stats struct {
	L1Accesses    int64 // coalesced transactions presented to an L1
	L1Hits        int64
	L1MSHRMerges  int64 // secondary misses merged into an in-flight line
	L1Rejects     int64 // transactions rejected because L1 MSHRs were full
	L2Accesses    int64
	L2Hits        int64
	DRAMReads     int64 // line fills from DRAM
	DRAMWrites    int64 // line writes to DRAM
	DRAMBusy      int64 // cycles any partition's DRAM data bus was busy
	DRAMRowHits   int64 // accesses hitting an open row (bank model only)
	DRAMRowMisses int64 // accesses paying precharge+activate (bank model only)
}

// L1HitRate returns hits / accesses, or 0 when idle.
func (s *Stats) L1HitRate() float64 {
	if s.L1Accesses == 0 {
		return 0
	}
	return float64(s.L1Hits) / float64(s.L1Accesses)
}

// L2HitRate returns hits / accesses, or 0 when idle.
func (s *Stats) L2HitRate() float64 {
	if s.L2Accesses == 0 {
		return 0
	}
	return float64(s.L2Hits) / float64(s.L2Accesses)
}

// System is the timing model of the global-memory path: per-SM L1 caches in
// front of address-interleaved memory partitions, each with an L2 slice and
// a DRAM channel. All latencies are in core cycles. Loads call done when
// their line arrives at the SM; stores are fire-and-forget but consume
// bandwidth.
type System struct {
	cfg      *config.GPUConfig
	ev       *event.Queue
	l1s      []*l1Cache
	parts    []*partition
	lineBits uint // log2 of the partition interleave granularity

	// stats holds the partitions' counters (L2 and DRAM) and the totals a
	// restored snapshot carried; every L1 counts its own traffic.
	stats Stats
}

// NewSystem builds the memory system for the configuration.
func NewSystem(cfg *config.GPUConfig, ev *event.Queue) *System {
	s := &System{cfg: cfg, ev: ev}
	for 1<<s.lineBits < cfg.L2.LineSize {
		s.lineBits++
	}
	for i := 0; i < cfg.NumSMs; i++ {
		s.l1s = append(s.l1s, newL1(cfg, s))
	}
	for i := 0; i < cfg.NumMemPartitions; i++ {
		s.parts = append(s.parts, newPartition(cfg, s))
	}
	return s
}

// Stats returns the counter totals: the system's own counters plus every
// L1's. A pure read, so a live observer may call it mid-run.
func (s *System) Stats() Stats {
	st := s.stats
	for _, c := range s.l1s {
		st.L1Accesses += c.stats.L1Accesses
		st.L1Hits += c.stats.L1Hits
		st.L1MSHRMerges += c.stats.L1MSHRMerges
		st.L1Rejects += c.stats.L1Rejects
	}
	return st
}

// L1Stats returns the counters of SM sm's L1 (only its L1 fields are
// set): what per-SM L1 hit rates are read from. A pure read.
func (s *System) L1Stats(sm int) Stats { return s.l1s[sm].stats }

// AccessGlobal presents one coalesced line transaction from an SM. done
// must be a valid Completion for reads (fired when the line arrives at
// the SM) and the zero Completion for writes. It reports false when the
// transaction was rejected (L1 MSHRs full) and must be retried.
func (s *System) AccessGlobal(sm int, lineAddr uint32, write bool, done event.Completion) bool {
	return s.l1s[sm].access(lineAddr, write, done)
}

func (s *System) partitionOf(lineAddr uint32) *partition {
	idx := (lineAddr >> s.lineBits) % uint32(len(s.parts)) // line-interleaved
	return s.parts[idx]
}

// l1Cache is one SM's private L1 data cache: write-through, write-evict
// (no write-allocate), with MSHR merging, as in Fermi. It counts its own
// traffic in stats (the L1 fields only).
type l1Cache struct {
	sys   *System
	cfg   config.CacheConfig
	tags  *TagArray
	mshr  *mshrTable
	stats Stats
}

func newL1(cfg *config.GPUConfig, sys *System) *l1Cache {
	return &l1Cache{sys: sys, cfg: cfg.L1D, mshr: newMSHRTable(cfg.L1D.MSHRs),
		tags: NewTagArray(cfg.L1D.Sets, cfg.L1D.Ways, cfg.L1D.LineSize)}
}

// l1Cache event kinds (operand a = line address throughout).
const (
	evL1FwdRead  uint8 = iota // interconnect delay elapsed: forward a read miss to its partition
	evL1FwdWrite              // interconnect delay elapsed: forward a write-through
	evL1Resp                  // line available at the partition port: start the return trip
	evL1Fill                  // line arrived back at the SM: fill tags, fire MSHR completions
)

// HandleEvent dispatches the L1's typed events.
func (c *l1Cache) HandleEvent(kind uint8, a, b uint32) {
	sys := c.sys
	switch kind {
	case evL1FwdRead:
		sys.partitionOf(a).access(a, false, event.Completion{H: c, Kind: evL1Resp, A: a})
	case evL1FwdWrite:
		sys.partitionOf(a).access(a, true, event.Completion{})
	case evL1Resp:
		sys.ev.PostAfter(int64(sys.cfg.InterconnectDelay), c, evL1Fill, a, 0)
	case evL1Fill:
		c.tags.Fill(a)
		c.mshr.fireCompleted(a)
	}
}

func (c *l1Cache) access(lineAddr uint32, write bool, done event.Completion) bool {
	sys := c.sys
	if write {
		c.stats.L1Accesses++
		c.tags.Invalidate(lineAddr) // write-evict
		// Write-through: consume the downstream path; nothing waits.
		sys.ev.PostAfter(int64(sys.cfg.InterconnectDelay), c, evL1FwdWrite, lineAddr, 0)
		return true
	}

	c.stats.L1Accesses++
	if c.tags.Probe(lineAddr) {
		c.stats.L1Hits++
		sys.ev.PostAfter(int64(c.cfg.Latency), done.H, done.Kind, done.A, done.B)
		return true
	}
	primary, full := c.mshr.add(lineAddr, done)
	if full {
		c.stats.L1Rejects++
		c.stats.L1Accesses-- // rejected transactions retry; count once
		return false
	}
	if !primary {
		c.stats.L1MSHRMerges++
		return true
	}
	sys.ev.PostAfter(int64(sys.cfg.InterconnectDelay), c, evL1FwdRead, lineAddr, 0)
	return true
}

// dramReq is one line transaction queued at a partition's DRAM controller.
type dramReq struct {
	line   uint32
	write  bool
	onDone event.Completion // fired when the data is available; zero for writes
}

// partition is one memory partition: an L2 slice with MSHR merging in
// front of an FR-FCFS DRAM controller. The controller queues transactions
// and each bus slot serves, among requests whose bank is free, the oldest
// row-buffer hit — falling back to the oldest request — which is what lets
// high thread-level parallelism coexist with row locality on real GPUs.
type partition struct {
	sys      *System
	cfg      *config.GPUConfig
	tags     *TagArray
	mshr     *mshrTable
	l2Free   int64 // next cycle the L2 port is free
	dramFree int64 // next cycle the DRAM data bus is free

	queue    []dramReq
	bankFree []int64  // next cycle each bank can start a new access
	openRow  []uint32 // currently open row per bank (+1; 0 = none)
	rowBits  uint     // log2(DRAMRowBytes)
	pumpAt   int64    // cycle of the furthest scheduled pump, -1 if none
}

func newPartition(cfg *config.GPUConfig, sys *System) *partition {
	p := &partition{sys: sys, cfg: cfg, pumpAt: -1,
		tags: NewTagArray(cfg.L2.Sets, cfg.L2.Ways, cfg.L2.LineSize),
		mshr: newMSHRTable(0), // partition MSHRs: merged, unbounded (see DESIGN)
	}
	banks := cfg.DRAMBanks
	if banks <= 0 {
		banks = 1 // flat model: one bank, no row penalty
	}
	p.bankFree = make([]int64, banks)
	p.openRow = make([]uint32, banks)
	// With banks DRAMRowBytes is a power of two (config.Validate); the
	// flat model's single bank never reads rowBits.
	for 1<<p.rowBits < cfg.DRAMRowBytes {
		p.rowBits++
	}
	return p
}

// partition event kinds (operand a = line address; unused for pump).
const (
	evPartEnqRead  uint8 = iota // L2 latency elapsed on a read miss: queue the DRAM fill
	evPartEnqWrite              // L2 latency elapsed on a write: queue the DRAM write
	evPartFill                  // DRAM data arrived: fill L2, fire MSHR completions
	evPartPump                  // scheduled controller re-arbitration
)

// HandleEvent dispatches the partition's typed events. Partitions are
// shared across SMs, so all their events ride the shared queue.
func (p *partition) HandleEvent(kind uint8, a, b uint32) {
	switch kind {
	case evPartEnqRead:
		p.enqueueDRAM(a, false, event.Completion{H: p, Kind: evPartFill, A: a})
	case evPartEnqWrite:
		p.enqueueDRAM(a, true, event.Completion{})
	case evPartFill:
		p.tags.Fill(a)
		p.mshr.fireCompleted(a)
	case evPartPump:
		if p.pumpAt == p.sys.ev.Now() {
			p.pumpAt = -1
		}
		p.pump()
	}
}

// access handles one transaction arriving at the partition. respond (reads
// only) is fired when the line is available at the partition's port.
func (p *partition) access(lineAddr uint32, write bool, respond event.Completion) {
	sys := p.sys
	now := sys.ev.Now()

	// One L2 port access per cycle.
	start := now
	if p.l2Free > start {
		start = p.l2Free
	}
	p.l2Free = start + 1

	if write {
		sys.stats.L2Accesses++
		// Write-through, no-allocate at L2 as well: the write occupies
		// the DRAM channel but nothing waits for it.
		sys.ev.Post(start+int64(p.cfg.L2.Latency), p, evPartEnqWrite, lineAddr, 0)
		return
	}

	sys.stats.L2Accesses++
	if p.tags.Probe(lineAddr) {
		sys.stats.L2Hits++
		sys.ev.PostC(start+int64(p.cfg.L2.Latency), respond)
		return
	}
	primary, _ := p.mshr.add(lineAddr, respond)
	if !primary {
		return
	}
	sys.ev.Post(start+int64(p.cfg.L2.Latency), p, evPartEnqRead, lineAddr, 0)
}

// enqueueDRAM adds a transaction to the FR-FCFS controller queue.
func (p *partition) enqueueDRAM(line uint32, write bool, onDone event.Completion) {
	if write {
		p.sys.stats.DRAMWrites++
	} else {
		p.sys.stats.DRAMReads++
	}
	p.queue = append(p.queue, dramReq{line: line, write: write, onDone: onDone})
	p.pump()
}

// schedulePump arranges for the controller to reconsider the queue at
// cycle t (deduplicating same-cycle schedules).
func (p *partition) schedulePump(t int64) {
	if t <= p.sys.ev.Now() || t == p.pumpAt {
		return
	}
	p.pumpAt = t
	p.sys.ev.Post(t, p, evPartPump, 0, 0)
}

// pump issues at most one transaction per data-bus slot using FR-FCFS
// arbitration: among requests whose bank is available, the oldest
// row-buffer hit wins, else the oldest request. A row miss occupies its
// bank for the precharge+activate penalty but releases the data bus after
// the burst, so activations in other banks overlap transfers.
func (p *partition) pump() {
	now := p.sys.ev.Now()
	if len(p.queue) == 0 {
		return
	}
	if now < p.dramFree {
		p.schedulePump(p.dramFree)
		return
	}

	best := -1
	bestHit := false
	var minBankFree int64 = -1
	for i, r := range p.queue {
		bank := int(r.line>>p.rowBits) % len(p.bankFree)
		if p.bankFree[bank] > now {
			if minBankFree < 0 || p.bankFree[bank] < minBankFree {
				minBankFree = p.bankFree[bank]
			}
			continue
		}
		hit := p.openRow[bank] == r.line>>p.rowBits+1
		if hit {
			best, bestHit = i, true
			break // oldest row hit wins
		}
		if best < 0 {
			best = i
		}
	}
	if best < 0 {
		if minBankFree > now {
			p.schedulePump(minBankFree)
		}
		return
	}

	r := p.queue[best]
	p.queue = append(p.queue[:best], p.queue[best+1:]...)
	st := &p.sys.stats
	bank := int(r.line>>p.rowBits) % len(p.bankFree)
	svc := int64(p.cfg.DRAMServiceCycles)
	if p.cfg.DRAMBanks > 0 {
		if bestHit {
			st.DRAMRowHits++
		} else {
			svc += int64(p.cfg.DRAMRowPenalty)
			p.openRow[bank] = r.line>>p.rowBits + 1
			st.DRAMRowMisses++
		}
	}
	p.bankFree[bank] = now + svc
	p.dramFree = now + int64(p.cfg.DRAMServiceCycles)
	st.DRAMBusy += int64(p.cfg.DRAMServiceCycles)
	if r.onDone.Valid() {
		p.sys.ev.PostC(now+svc+int64(p.cfg.DRAMLatency), r.onDone)
	}
	p.schedulePump(p.dramFree)
}
