// Package telemetry is the simulator's always-on (but zero-cost-when-off)
// observability layer: fixed-size per-SM metric rings sampled every W
// cycles, CTA/swap/sleep lifecycle spans, a swap-latency histogram, and
// GPU-wide memory-system windows. A Collector attaches to a run through
// gpu.Options.Telemetry; it observes the same state-transition hooks the
// issue fast path already maintains (sm.Probe, the VT trace stream, the
// engine's window pump) — no per-cycle rescans — and it is a pure
// observer: simulation results are bit-identical with and without one
// attached (gpu's telemetry equivalence test enforces this, the same
// contract CheckInvariants follows).
//
// Rings are bounded but cover the whole run: when a ring reaches its
// capacity, adjacent window pairs are merged and the window length
// doubles (adaptive compaction), so memory stays O(RingWindows) while
// resolution degrades gracefully on long runs. Everything is exported
// three ways: Dump (ring JSON, read back by ReadDump for cmd/vtreport
// and cmd/vtdiff), WritePerfetto (Chrome/Perfetto trace-event JSON), and
// Totals (window and span counts). See docs/OBSERVABILITY.md.
package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sm"
	"repro/internal/warp"
)

// SchemaVersion identifies the Dump JSON layout.
const SchemaVersion = 1

const (
	// DefaultWindow is the initial window length a zero Config.Window
	// selects.
	DefaultWindow = 256
	// RingWindows bounds every ring's length: reaching it merges adjacent
	// window pairs (halving the ring, doubling the window). It is even,
	// so pairs always merge cleanly.
	RingWindows = 256
	// SpansPerSM bounds the spans kept per SM; once full, further spans
	// are dropped and counted in Dump.SpansDropped.
	SpansPerSM = 16384
)

// Config sets up a Collector. The zero value selects the defaults.
type Config struct {
	// Window is the initial window length in cycles. It doubles every
	// time the rings fill and compact.
	Window int64
}

// SpanKind labels a Span.
type SpanKind string

// Span kinds.
const (
	// SpanCTA covers a CTA's residence in warp slots: from activation
	// (fresh or swap-in) to deactivation (swap-out or retirement).
	SpanCTA SpanKind = "cta"
	// SpanSwapOut covers the context-save latency of a VT swap-out.
	SpanSwapOut SpanKind = "swap-out"
	// SpanSwapIn covers the context-restore latency of a VT swap-in.
	SpanSwapIn SpanKind = "swap-in"
	// SpanSleep covers a per-SM fast-forward (idle-skip) span.
	SpanSleep SpanKind = "sleep"
)

// Span is one timeline interval on an SM.
type Span struct {
	Kind  SpanKind `json:"kind"`
	SM    int      `json:"sm"`
	CTA   int      `json:"cta"` // flat CTA id; -1 for sleep spans
	Track int      `json:"track"`
	Start int64    `json:"start"`
	End   int64    `json:"end"`
}

// Window is one ring entry: counter deltas over [Cycle-Cycles, Cycle)
// plus point-in-time gauges read at the window's end.
type Window struct {
	Cycle  int64 `json:"cycle"`  // window end (exclusive)
	Cycles int64 `json:"cycles"` // window length

	// Deltas over the window.
	Issued       int64 `json:"issued"`
	SlotIssued   int64 `json:"slotIssued"`
	SlotStallMem int64 `json:"slotStallMem"`
	SlotStallALU int64 `json:"slotStallAlu"`
	SlotStallBar int64 `json:"slotStallBar"`
	SlotStallStr int64 `json:"slotStallStr"`
	SlotIdle     int64 `json:"slotIdle"`
	SwapsOut     int64 `json:"swapsOut"`
	SwapsIn      int64 `json:"swapsIn"`
	Activations  int64 `json:"activations"`
	L1Accesses   int64 `json:"l1Accesses"`
	L1Hits       int64 `json:"l1Hits"`

	// Gauges at the window end.
	ActiveWarps   int `json:"activeWarps"`
	ResidentWarps int `json:"residentWarps"`
	ActiveCTAs    int `json:"activeCtas"`
	ResidentCTAs  int `json:"residentCtas"`
	LSUQueue      int `json:"lsuQueue"`
	WheelPending  int `json:"wheelPending"`
	CtxBytes      int `json:"ctxBytes"`
	SwapsInFlight int `json:"swapsInFlight"`
}

// IPC returns issued warp instructions per cycle over the window.
func (w *Window) IPC() float64 {
	if w.Cycles == 0 {
		return 0
	}
	return float64(w.Issued) / float64(w.Cycles)
}

// MemWindow is one GPU-wide memory-system ring entry (counter deltas).
type MemWindow struct {
	Cycle  int64 `json:"cycle"`
	Cycles int64 `json:"cycles"`

	L1Accesses int64 `json:"l1Accesses"`
	L1Hits     int64 `json:"l1Hits"`
	L2Accesses int64 `json:"l2Accesses"`
	L2Hits     int64 `json:"l2Hits"`
	DRAMReads  int64 `json:"dramReads"`
	DRAMWrites int64 `json:"dramWrites"`
}

// histBuckets is the swap-latency histogram size: bucket 0 holds zero
// latencies, bucket i >= 1 holds latencies in [2^(i-1), 2^i), and the
// last bucket is unbounded.
const histBuckets = 18

// HistBucket is one non-empty swap-latency histogram bucket.
type HistBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"` // inclusive; -1 = unbounded
	Count int64 `json:"count"`
}

// Dump is the ring-dump JSON document (vtsim -telemetry): the GPU-wide
// aggregate ring, the memory ring, spans, and the swap-latency histogram.
type Dump struct {
	SchemaVersion int    `json:"schemaVersion"`
	Kernel        string `json:"kernel"`
	Policy        string `json:"policy"`
	NumSMs        int    `json:"numSMs"`
	Cycles        int64  `json:"cycles"`
	// Window is the final window length after compaction; early windows
	// may be shorter (pre-compaction) and the last one partial — every
	// entry carries its own Cycles.
	Window int64 `json:"window"`

	GPU          []Window     `json:"gpu"`
	Mem          []MemWindow  `json:"mem"`
	PerSM        [][]Window   `json:"perSM,omitempty"`
	Spans        []Span       `json:"spans"`
	SpansDropped int          `json:"spansDropped,omitempty"`
	SwapLatency  []HistBucket `json:"swapLatency,omitempty"`
}

// openCTA tracks a CTA currently bound to warp slots.
type openCTA struct {
	start int64
	track int
}

// smRec is one SM's recorder.
type smRec struct {
	ring   []Window
	last   sm.Stats  // cumulative snapshot at the previous boundary
	lastL1 mem.Stats // the SM's L1 counters at the previous boundary

	// Cumulative hook/trace counters and their previous-boundary values.
	swapsOut, swapsIn, activations      int64
	lastSwapsOut, lastSwapsIn, lastActs int64

	spans   []Span
	dropped int
	open    map[*warp.CTA]openCTA
}

func (r *smRec) addSpan(sp Span) {
	if len(r.spans) >= SpansPerSM {
		r.dropped++
		return
	}
	r.spans = append(r.spans, sp)
}

// Collector gathers one run's telemetry. Create with NewCollector, pass
// through gpu.Options.Telemetry, and read Dump/WritePerfetto/Totals
// after the run. A Collector records a single run; gpu calls Begin to
// (re)initialize it.
type Collector struct {
	cfg Config

	window  int64 // current window length (doubles on compaction)
	nextEnd int64 // next window boundary
	numSMs  int
	kernel  string
	policy  string
	cycles  int64
	done    bool

	sms     []smRec
	mem     []MemWindow
	lastMem mem.Stats
	hist    [histBuckets]int64
}

// NewCollector returns a Collector set up by cfg (zero values select the
// defaults).
func NewCollector(cfg Config) *Collector {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	return &Collector{cfg: cfg}
}

// Begin (re)initializes the collector for a run. gpu.RunMulti calls it
// before the first cycle.
func (c *Collector) Begin(numSMs int, kernel, policy string) {
	c.numSMs = numSMs
	c.kernel, c.policy = kernel, policy
	c.window = c.cfg.Window
	c.nextEnd = c.window
	c.cycles = 0
	c.done = false
	c.sms = make([]smRec, numSMs)
	c.mem = nil
	c.lastMem = mem.Stats{}
	c.hist = [histBuckets]int64{}
}

// sm.Probe implementation.
var _ sm.Probe = (*Collector)(nil)

// CTAActivated opens the CTA's slot-residence span (sm.Probe).
func (c *Collector) CTAActivated(s *sm.SM, ct *warp.CTA) {
	r := &c.sms[s.ID]
	r.activations++
	if r.open == nil {
		r.open = make(map[*warp.CTA]openCTA)
	}
	track := 0
	if len(ct.Warps) > 0 {
		track = ct.Warps[0].Slot
	}
	r.open[ct] = openCTA{start: s.Ev.Now(), track: track}
}

// CTADeactivated closes the CTA's slot-residence span (sm.Probe).
func (c *Collector) CTADeactivated(s *sm.SM, ct *warp.CTA) {
	r := &c.sms[s.ID]
	o, ok := r.open[ct]
	if !ok {
		return
	}
	delete(r.open, ct)
	r.addSpan(Span{Kind: SpanCTA, SM: s.ID, CTA: ct.FlatID, Track: o.track,
		Start: o.start, End: s.Ev.Now()})
}

// SMWoke records a per-SM fast-forward span (sm.Probe).
func (c *Collector) SMWoke(s *sm.SM, from, to int64) {
	c.sms[s.ID].addSpan(Span{Kind: SpanSleep, SM: s.ID, CTA: -1,
		Start: from, End: to})
}

// VTTrace consumes the VT controller's CTA-transition stream: swap
// counters, swap spans (with their latency), and the latency histogram.
// gpu tees the stream here alongside any user Options.Trace. Always runs
// on the coordinator (controller phase or event drain).
func (c *Collector) VTTrace(e core.TraceEvent) {
	r := &c.sms[e.SM]
	switch {
	case e.To == warp.CTARestoring:
		r.swapsIn++
		c.histAdd(e.Latency)
		r.addSpan(Span{Kind: SpanSwapIn, SM: e.SM, CTA: e.CTA,
			Start: e.Cycle, End: e.Cycle + e.Latency})
	case e.From == warp.CTAActive &&
		(e.To == warp.CTAInactiveWaiting || e.To == warp.CTAInactiveReady):
		r.swapsOut++
		c.histAdd(e.Latency)
		r.addSpan(Span{Kind: SpanSwapOut, SM: e.SM, CTA: e.CTA,
			Start: e.Cycle, End: e.Cycle + e.Latency})
	}
}

func (c *Collector) histAdd(lat int64) {
	i := 0
	for lat > 0 && i < histBuckets-1 {
		lat >>= 1
		i++
	}
	c.hist[i]++
}

// NextBoundary returns the cycle of the next window boundary; the gpu
// run loop samples while NextBoundary() <= the cycle it advances to.
func (c *Collector) NextBoundary() int64 { return c.nextEnd }

// Sample closes the window ending at NextBoundary(): one Window per SM
// (cumulative-stat deltas plus end-of-window gauges), one GPU-wide
// MemWindow, then the boundary advances and full rings compact.
// pendingFrom >= 0 marks an in-progress whole-GPU idle skip starting at
// that cycle whose AccountSkipped the engine applies after sampling (see
// sm.StatsAt); -1 otherwise. vt is nil under non-VT policies. Pure
// observer; runs between engine cycles on the coordinator.
func (c *Collector) Sample(sms []*sm.SM, msys *mem.System, vt *core.Controller, pendingFrom int64) {
	b := c.nextEnd
	for i, s := range sms {
		r := &c.sms[i]
		cur := s.StatsAt(b, pendingFrom)
		w := Window{
			Cycle:  b,
			Cycles: c.window,

			Issued:       cur.Issued - r.last.Issued,
			SlotIssued:   cur.SlotIssued - r.last.SlotIssued,
			SlotStallMem: cur.SlotStallMem - r.last.SlotStallMem,
			SlotStallALU: cur.SlotStallALU - r.last.SlotStallALU,
			SlotStallBar: cur.SlotStallBar - r.last.SlotStallBar,
			SlotStallStr: cur.SlotStallStr - r.last.SlotStallStr,
			SlotIdle:     cur.SlotIdle - r.last.SlotIdle,
			SwapsOut:     r.swapsOut - r.lastSwapsOut,
			SwapsIn:      r.swapsIn - r.lastSwapsIn,
			Activations:  r.activations - r.lastActs,

			ActiveWarps:   s.WarpsUsed,
			ResidentWarps: s.ResidentWarps(),
			ActiveCTAs:    s.ActiveCTAs,
			ResidentCTAs:  len(s.Resident),
			LSUQueue:      s.LSUQueueLen(),
			WheelPending:  s.WheelPending(),
		}
		l1 := msys.L1Stats(i)
		w.L1Accesses = l1.L1Accesses - r.lastL1.L1Accesses
		w.L1Hits = l1.L1Hits - r.lastL1.L1Hits
		r.lastL1 = l1
		if vt != nil {
			w.CtxBytes = vt.CtxBytesUsed(i)
			w.SwapsInFlight = vt.SwapsInFlight(i, b)
		}
		r.last = cur
		r.lastSwapsOut, r.lastSwapsIn, r.lastActs = r.swapsOut, r.swapsIn, r.activations
		r.ring = append(r.ring, w)
	}

	ms := msys.Stats()
	c.mem = append(c.mem, MemWindow{
		Cycle:      b,
		Cycles:     c.window,
		L1Accesses: ms.L1Accesses - c.lastMem.L1Accesses,
		L1Hits:     ms.L1Hits - c.lastMem.L1Hits,
		L2Accesses: ms.L2Accesses - c.lastMem.L2Accesses,
		L2Hits:     ms.L2Hits - c.lastMem.L2Hits,
		DRAMReads:  ms.DRAMReads - c.lastMem.DRAMReads,
		DRAMWrites: ms.DRAMWrites - c.lastMem.DRAMWrites,
	})
	c.lastMem = ms

	if len(c.mem) >= RingWindows {
		c.compact() // doubles c.window
	}
	// After compaction the next window must span the *new* length, so the
	// boundary is computed from b only here.
	c.nextEnd = b + c.window
}

// compact merges adjacent window pairs in every ring and doubles the
// window length: memory stays bounded at RingWindows entries per ring
// while the rings always cover the whole run. All rings append in
// lockstep, so they compact in lockstep and stay aligned.
func (c *Collector) compact() {
	for i := range c.sms {
		r := &c.sms[i]
		out := r.ring[:0]
		for j := 0; j+1 < len(r.ring); j += 2 {
			out = append(out, MergeWindows(r.ring[j], r.ring[j+1]))
		}
		if len(r.ring)%2 == 1 {
			out = append(out, r.ring[len(r.ring)-1])
		}
		r.ring = out
	}
	out := c.mem[:0]
	for j := 0; j+1 < len(c.mem); j += 2 {
		out = append(out, mergeMemWindows(c.mem[j], c.mem[j+1]))
	}
	if len(c.mem)%2 == 1 {
		out = append(out, c.mem[len(c.mem)-1])
	}
	c.mem = out
	c.window *= 2
}

// MergeWindows folds two adjacent windows: deltas sum, gauges and the
// end cycle come from the later window. Compaction and the rebucketing
// consumers (cmd/vtreport, cmd/vtdiff) both build on it.
func MergeWindows(a, b Window) Window {
	out := b
	out.Cycles = a.Cycles + b.Cycles
	out.Issued += a.Issued
	out.SlotIssued += a.SlotIssued
	out.SlotStallMem += a.SlotStallMem
	out.SlotStallALU += a.SlotStallALU
	out.SlotStallBar += a.SlotStallBar
	out.SlotStallStr += a.SlotStallStr
	out.SlotIdle += a.SlotIdle
	out.SwapsOut += a.SwapsOut
	out.SwapsIn += a.SwapsIn
	out.Activations += a.Activations
	out.L1Accesses += a.L1Accesses
	out.L1Hits += a.L1Hits
	return out
}

func mergeMemWindows(a, b MemWindow) MemWindow {
	out := b
	out.Cycles = a.Cycles + b.Cycles
	out.L1Accesses += a.L1Accesses
	out.L1Hits += a.L1Hits
	out.L2Accesses += a.L2Accesses
	out.L2Hits += a.L2Hits
	out.DRAMReads += a.DRAMReads
	out.DRAMWrites += a.DRAMWrites
	return out
}

// Rebucket folds a contiguous ring into at most n windows, merging
// adjacent entries that fall into the same n-th of the covered span.
// Comparing two dumps bucket-by-bucket (cmd/vtdiff -rings) needs both
// rings on a common, coarse grid; so does rendering a bounded timeline
// table (cmd/vtreport -rings).
func Rebucket(ws []Window, n int) []Window {
	if n < 1 || len(ws) <= n {
		return ws
	}
	start := ws[0].Cycle - ws[0].Cycles
	total := ws[len(ws)-1].Cycle - start
	if total <= 0 {
		return ws
	}
	out := make([]Window, 0, n)
	cur := -1
	for _, w := range ws {
		b := int((w.Cycle - start - 1) * int64(n) / total)
		if b >= n {
			b = n - 1
		}
		if b == cur {
			out[len(out)-1] = MergeWindows(out[len(out)-1], w)
		} else {
			out = append(out, w)
			cur = b
		}
	}
	return out
}

// Finish closes the run at the final cycle: it records the last partial
// window and ends every still-open CTA span. gpu calls it after waking
// all SMs (so every fast-forward span has been charged and recorded).
func (c *Collector) Finish(cycle int64, sms []*sm.SM, msys *mem.System, vt *core.Controller) {
	if c.done {
		return
	}
	c.cycles = cycle
	if last := c.nextEnd - c.window; cycle > last {
		// Final partial window [last, cycle).
		save := c.window
		c.window = cycle - last
		c.nextEnd = cycle
		c.Sample(sms, msys, vt, -1)
		c.window = save
	}
	for i := range c.sms {
		r := &c.sms[i]
		// Map order is nondeterministic; sort by CTA id so dumps of
		// identical runs are byte-identical.
		rest := make([]*warp.CTA, 0, len(r.open))
		for ct := range r.open {
			rest = append(rest, ct)
		}
		sort.Slice(rest, func(a, b int) bool { return rest[a].FlatID < rest[b].FlatID })
		for _, ct := range rest {
			o := r.open[ct]
			r.addSpan(Span{Kind: SpanCTA, SM: i, CTA: ct.FlatID, Track: o.track,
				Start: o.start, End: cycle})
		}
		r.open = nil
	}
	c.done = true
}

// Totals returns the recorded window count (ring length — every ring has
// the same) and the span count across all SMs.
func (c *Collector) Totals() (windows, spans int) {
	windows = len(c.mem)
	for i := range c.sms {
		spans += len(c.sms[i].spans)
	}
	return windows, spans
}

// gpuWindows sums the per-SM rings index-wise into the GPU-wide ring
// (gauges sum too: GPU-total warps, CTAs, context bytes).
func (c *Collector) gpuWindows() []Window {
	if len(c.sms) == 0 {
		return nil
	}
	out := make([]Window, len(c.sms[0].ring))
	for i := range out {
		w := c.sms[0].ring[i]
		for k := 1; k < len(c.sms); k++ {
			v := c.sms[k].ring[i]
			m := MergeWindows(v, w) // sums deltas; keeps w's Cycle
			m.Cycles = w.Cycles
			m.ActiveWarps = w.ActiveWarps + v.ActiveWarps
			m.ResidentWarps = w.ResidentWarps + v.ResidentWarps
			m.ActiveCTAs = w.ActiveCTAs + v.ActiveCTAs
			m.ResidentCTAs = w.ResidentCTAs + v.ResidentCTAs
			m.LSUQueue = w.LSUQueue + v.LSUQueue
			m.WheelPending = w.WheelPending + v.WheelPending
			m.CtxBytes = w.CtxBytes + v.CtxBytes
			m.SwapsInFlight = w.SwapsInFlight + v.SwapsInFlight
			w = m
		}
		out[i] = w
	}
	return out
}

// Dump assembles the ring-dump document. Call after the run (gpu has
// called Finish). Output is deterministic: identical runs produce
// byte-identical dumps.
func (c *Collector) Dump() *Dump {
	d := &Dump{
		SchemaVersion: SchemaVersion,
		Kernel:        c.kernel,
		Policy:        c.policy,
		NumSMs:        c.numSMs,
		Cycles:        c.cycles,
		Window:        c.window,
		GPU:           c.gpuWindows(),
		Mem:           c.mem,
	}
	d.PerSM = make([][]Window, len(c.sms))
	for i := range c.sms {
		d.PerSM[i] = c.sms[i].ring
		d.Spans = append(d.Spans, c.sms[i].spans...)
		d.SpansDropped += c.sms[i].dropped
	}
	sort.SliceStable(d.Spans, func(a, b int) bool {
		x, y := d.Spans[a], d.Spans[b]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.SM != y.SM {
			return x.SM < y.SM
		}
		if x.CTA != y.CTA {
			return x.CTA < y.CTA
		}
		return x.Kind < y.Kind
	})
	for i, n := range c.hist {
		if n == 0 {
			continue
		}
		b := HistBucket{Count: n}
		switch {
		case i == 0:
			b.Lo, b.Hi = 0, 0
		case i == histBuckets-1:
			b.Lo, b.Hi = 1<<uint(i-1), -1
		default:
			b.Lo, b.Hi = 1<<uint(i-1), 1<<uint(i)-1
		}
		d.SwapLatency = append(d.SwapLatency, b)
	}
	return d
}

// ReadDump loads a ring dump written by vtsim -telemetry. It refuses a
// dump of another schema version or one with no windows.
func ReadDump(path string) (*Dump, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Dump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%s: telemetry dump schema %d (want %d)", path, d.SchemaVersion, SchemaVersion)
	}
	if len(d.GPU) == 0 {
		return nil, fmt.Errorf("%s: dump has no windows", path)
	}
	return &d, nil
}
