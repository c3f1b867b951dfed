// Package cta models the CTA-level view of a kernel launch: the static
// resource footprint a CTA occupies on an SM, the occupancy calculation
// that determines how many CTAs fit under each hardware constraint (and
// which constraint binds — the paper's motivating analysis), and the grid
// dispenser that hands out CTA instances to SMs in launch order.
package cta

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/warp"
)

// Footprint is the per-CTA resource demand on an SM, after allocation
// -granularity rounding.
type Footprint struct {
	Threads int // threads per CTA
	Warps   int // warp slots per CTA
	Regs    int // SM registers (granular)
	SMem    int // SM shared-memory bytes (granular)
}

// ComputeFootprint returns the rounded per-CTA resource demand of a launch
// on the configured hardware.
func ComputeFootprint(l *isa.Launch, cfg *config.GPUConfig) Footprint {
	threads := l.BlockDim.Size()
	warps := l.WarpsPerCTA(cfg.WarpSize)
	regsPerWarp := roundUp(l.Kernel.NumRegs*cfg.WarpSize, cfg.RegAllocUnit)
	smem := roundUp(l.Kernel.SMemBytes, cfg.SMemAllocUnit)
	return Footprint{
		Threads: threads,
		Warps:   warps,
		Regs:    warps * regsPerWarp,
		SMem:    smem,
	}
}

func roundUp(v, unit int) int {
	if unit <= 0 || v == 0 {
		return v
	}
	return (v + unit - 1) / unit * unit
}

// Limiter names the hardware constraint that binds a launch's occupancy.
type Limiter int

// Occupancy limiters, in the order they are checked.
const (
	LimitCTASlots  Limiter = iota // scheduling: CTA slots (PCs, barrier units)
	LimitWarpSlots                // scheduling: warp slots (SIMT stacks)
	LimitThreads                  // scheduling: thread slots
	LimitRegisters                // capacity: register file
	LimitSharedMem                // capacity: shared memory
	LimitGrid                     // grid smaller than hardware concurrency
)

// String names the limiter.
func (l Limiter) String() string {
	switch l {
	case LimitCTASlots:
		return "cta-slots"
	case LimitWarpSlots:
		return "warp-slots"
	case LimitThreads:
		return "threads"
	case LimitRegisters:
		return "registers"
	case LimitSharedMem:
		return "shared-mem"
	case LimitGrid:
		return "grid"
	default:
		return fmt.Sprintf("limiter(%d)", int(l))
	}
}

// IsScheduling reports whether the limiter is a scheduling structure (the
// kind Virtual Thread virtualizes) rather than a capacity resource.
func (l Limiter) IsScheduling() bool {
	return l == LimitCTASlots || l == LimitWarpSlots || l == LimitThreads
}

// Occupancy is the static concurrency analysis of a launch on an SM.
type Occupancy struct {
	Footprint Footprint

	// Maximum resident CTAs under each constraint in isolation.
	ByCTASlots int
	ByWarps    int
	ByThreads  int
	ByRegs     int
	BySMem     int

	// CTAs is the realized CTAs per SM (the minimum) and Limiter the
	// first constraint achieving it.
	CTAs    int
	Limiter Limiter

	// CapacityCTAs is the resident-CTA count when only capacity
	// (registers + shared memory) binds — what Virtual Thread can keep
	// resident per SM.
	CapacityCTAs int
}

// SchedulingLimited reports whether a scheduling structure binds before
// capacity, i.e. whether VT has headroom on this launch.
func (o Occupancy) SchedulingLimited() bool {
	return o.Limiter.IsScheduling() && o.CapacityCTAs > o.CTAs
}

// ComputeOccupancy performs the occupancy analysis of a launch against the
// configuration's *baseline* limits (policy-independent).
func ComputeOccupancy(l *isa.Launch, cfg *config.GPUConfig) Occupancy {
	fp := ComputeFootprint(l, cfg)
	o := Occupancy{Footprint: fp}
	o.ByCTASlots = cfg.MaxCTAsPerSM
	o.ByWarps = cfg.MaxWarpsPerSM / fp.Warps
	o.ByThreads = cfg.MaxThreadsPerSM / fp.Threads
	o.ByRegs = cfg.RegFileSize / max(fp.Regs, 1)
	if fp.SMem == 0 {
		o.BySMem = cfg.MaxCTAsPerSM * 1024 // effectively unlimited
	} else {
		o.BySMem = cfg.SharedMemPerSM / fp.SMem
	}

	o.CTAs = o.ByCTASlots
	o.Limiter = LimitCTASlots
	for _, c := range []struct {
		n   int
		lim Limiter
	}{
		{o.ByWarps, LimitWarpSlots},
		{o.ByThreads, LimitThreads},
		{o.ByRegs, LimitRegisters},
		{o.BySMem, LimitSharedMem},
	} {
		if c.n < o.CTAs {
			o.CTAs = c.n
			o.Limiter = c.lim
		}
	}

	o.CapacityCTAs = min(o.ByRegs, o.BySMem)

	// A grid smaller than the hardware's aggregate concurrency is its
	// own limiter.
	perSM := (l.GridDim.Size() + cfg.NumSMs - 1) / cfg.NumSMs
	if perSM < o.CTAs {
		o.CTAs = perSM
		o.Limiter = LimitGrid
	}
	return o
}

// Source dispenses CTA instances to SMs. Next must only instantiate (and
// consume) a CTA whose footprint the fit callback accepts, so controllers
// can express their admission constraints without peeking at internals.
type Source interface {
	// Next returns the next CTA whose (regs, smem, warps, threads)
	// footprint satisfies fit, or nil if none is available right now.
	Next(fit func(regs, smem, warps, threads int) bool) *warp.CTA
}

// Grid dispenses CTA instances of one launch in flat-index order, stamping
// each with its resource footprint.
type Grid struct {
	launch   *isa.Launch
	warpSize int
	kernelID int
	fp       Footprint
	next     int
	total    int
}

// NewGrid returns a dispenser over all CTAs of the launch.
func NewGrid(l *isa.Launch, cfg *config.GPUConfig) *Grid {
	return &Grid{
		launch:   l,
		warpSize: cfg.WarpSize,
		fp:       ComputeFootprint(l, cfg),
		total:    l.GridDim.Size(),
	}
}

// SetKernelID tags dispensed CTAs with the launch's index in a
// multi-kernel run.
func (g *Grid) SetKernelID(id int) { g.kernelID = id }

// Remaining returns the number of CTAs not yet dispensed.
func (g *Grid) Remaining() int { return g.total - g.next }

// Total returns the grid size in CTAs.
func (g *Grid) Total() int { return g.total }

// Next instantiates and returns the next CTA if its footprint fits, or nil.
func (g *Grid) Next(fit func(regs, smem, warps, threads int) bool) *warp.CTA {
	if g.next >= g.total {
		return nil
	}
	if fit != nil && !fit(g.fp.Regs, g.fp.SMem, g.fp.Warps, g.fp.Threads) {
		return nil
	}
	c := warp.NewCTA(g.launch, g.next, g.warpSize)
	c.KernelID = g.kernelID
	c.RegsAlloc = g.fp.Regs
	c.SMemAlloc = g.fp.SMem
	c.Threads = g.fp.Threads
	g.next++
	return c
}

// Cursor returns the number of CTAs already dispensed, for snapshotting.
func (g *Grid) Cursor() int { return g.next }

// SetCursor restores the dispense position (the inverse of Cursor).
func (g *Grid) SetCursor(n int) { g.next = n }

// Materialize instantiates the flatID'th CTA of this grid with a fresh
// (pristine) runtime state and the grid's footprint stamps, without
// touching the dispense cursor. Checkpoint restore uses it to rebuild the
// deterministic structure of a resident CTA before overlaying dynamic
// state.
func (g *Grid) Materialize(flatID int) *warp.CTA {
	c := warp.NewCTA(g.launch, flatID, g.warpSize)
	c.KernelID = g.kernelID
	c.RegsAlloc = g.fp.Regs
	c.SMemAlloc = g.fp.SMem
	c.Threads = g.fp.Threads
	return c
}

var _ Source = (*Grid)(nil)

// MultiGrid interleaves several grids round-robin, the concurrent-kernel
// dispatcher: each call resumes after the grid that last dispensed, and a
// grid whose head CTA does not fit is skipped so smaller kernels can fill
// the gaps.
type MultiGrid struct {
	grids []*Grid
	rr    int
}

// NewMultiGrid builds a round-robin dispatcher over the launches, tagging
// each grid with its kernel index.
func NewMultiGrid(launches []*isa.Launch, cfg *config.GPUConfig) *MultiGrid {
	m := &MultiGrid{}
	for i, l := range launches {
		g := NewGrid(l, cfg)
		g.SetKernelID(i)
		m.grids = append(m.grids, g)
	}
	return m
}

// Next returns the next fitting CTA from the round-robin order, or nil.
func (m *MultiGrid) Next(fit func(regs, smem, warps, threads int) bool) *warp.CTA {
	n := len(m.grids)
	for i := 0; i < n; i++ {
		g := m.grids[(m.rr+i)%n]
		if c := g.Next(fit); c != nil {
			m.rr = (m.rr + i + 1) % n
			return c
		}
	}
	return nil
}

// Remaining sums the undispensed CTAs across all grids.
func (m *MultiGrid) Remaining() int {
	total := 0
	for _, g := range m.grids {
		total += g.Remaining()
	}
	return total
}

// Cursors returns each grid's dispense position plus the round-robin
// index — the dispatcher's complete serializable state.
func (m *MultiGrid) Cursors() (next []int, rr int) {
	next = make([]int, len(m.grids))
	for i, g := range m.grids {
		next[i] = g.Cursor()
	}
	return next, m.rr
}

// SetCursors restores the dispatcher state (the inverse of Cursors).
func (m *MultiGrid) SetCursors(next []int, rr int) error {
	if len(next) != len(m.grids) {
		return fmt.Errorf("cta: cursor count %d does not match %d grids", len(next), len(m.grids))
	}
	for i, g := range m.grids {
		if next[i] < 0 || next[i] > g.Total() {
			return fmt.Errorf("cta: grid %d cursor %d out of range [0,%d]", i, next[i], g.Total())
		}
		g.SetCursor(next[i])
	}
	m.rr = rr
	return nil
}

// Materialize rebuilds the flatID'th CTA of the kernelID'th grid; see
// Grid.Materialize.
func (m *MultiGrid) Materialize(kernelID, flatID int) (*warp.CTA, error) {
	if kernelID < 0 || kernelID >= len(m.grids) {
		return nil, fmt.Errorf("cta: kernel id %d out of range", kernelID)
	}
	return m.grids[kernelID].Materialize(flatID), nil
}

var _ Source = (*MultiGrid)(nil)
