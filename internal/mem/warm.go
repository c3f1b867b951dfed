package mem

// WarmGlobal models one coalesced line access functionally: it updates
// the L1/L2 tag arrays and hit/miss/DRAM counters exactly as the timing
// path would, but schedules no events and consumes no MSHRs — the line
// is filled instantly. The gpu sampling engine uses it during functional
// fast-forward spans so the caches the next detailed window sees reflect
// the traffic the span retired. MSHR state needs no warming: spans begin
// and end at functionally quiescent boundaries where every MSHR is empty.
//
// Counter routing matches the timing path: L1 counters go through the
// owning L1's stat pointer (a private shard with telemetry attached),
// L2/DRAM counters through the shared Stats.
func (s *System) WarmGlobal(sm int, lineAddr uint32, write bool) {
	c := s.l1s[sm]
	if write {
		// Write-through, write-evict at L1; write-through no-allocate at
		// L2; the line lands on the DRAM channel.
		c.stats.L1Accesses++
		if c.tags != nil {
			c.tags.Invalidate(lineAddr)
		}
		s.Stats.L2Accesses++
		s.Stats.DRAMWrites++
		return
	}

	c.stats.L1Accesses++
	if c.tags != nil && c.tags.Probe(lineAddr) {
		c.stats.L1Hits++
		return
	}
	s.Stats.L2Accesses++
	p := s.partitionOf(lineAddr)
	if p.tags != nil && p.tags.Probe(lineAddr) {
		s.Stats.L2Hits++
	} else {
		s.Stats.DRAMReads++
		if p.tags != nil {
			p.tags.Fill(lineAddr)
		}
	}
	if c.tags != nil {
		c.tags.Fill(lineAddr)
	}
}
