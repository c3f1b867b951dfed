package gpu

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// TestTelemetryWindowExactness pins the ring semantics: windows tile the
// run exactly (contiguous, covering [0, Cycles)) and their deltas sum to
// the run totals — including across whole-GPU idle skips, per-SM
// fast-forward, and sampled fast-forward spans, whose boundary samples
// are charged virtually (sm.StatsAt / AccountSampled) — and every
// window's warp gauges satisfy 0 <= active <= resident.
func TestTelemetryWindowExactness(t *testing.T) {
	for _, samp := range []SamplingOptions{
		{},
		{DetailedCycles: 200, FastForwardCycles: 1500, WarmupCycles: 50},
	} {
		cfg := config.Small().WithPolicy(config.PolicyVT)
		const ctas, block = 16, 64
		col := telemetry.NewCollector(telemetry.Config{Window: 64, PerSM: true})
		res, err := Run(mixedLaunch(t, ctas, block), cfg, Options{
			InitMemory: initVec(ctas * block),
			Telemetry:  col,
			Sampling:   samp,
		})
		if err != nil {
			t.Fatal(err)
		}
		if samp.Enabled() && res.Sampling == nil {
			t.Fatal("sampled run reported no sampling stats")
		}
		d := col.Dump()
		if d.Cycles != res.Cycles {
			t.Fatalf("dump cycles = %d, want %d", d.Cycles, res.Cycles)
		}

		check := func(name string, ws []telemetry.Window) {
			if len(ws) == 0 {
				t.Fatalf("%s: empty ring", name)
			}
			if start := ws[0].Cycle - ws[0].Cycles; start != 0 {
				t.Errorf("%s: first window starts at %d, want 0", name, start)
			}
			for i := 1; i < len(ws); i++ {
				if ws[i].Cycle-ws[i].Cycles != ws[i-1].Cycle {
					t.Errorf("%s: window %d not contiguous: [%d) after [%d)",
						name, i, ws[i].Cycle-ws[i].Cycles, ws[i-1].Cycle)
				}
			}
			for _, w := range ws {
				if w.ActiveWarps < 0 || w.ResidentWarps < w.ActiveWarps {
					t.Errorf("%s: window ending %d: %d active of %d resident warps",
						name, w.Cycle, w.ActiveWarps, w.ResidentWarps)
				}
			}
			if end := ws[len(ws)-1].Cycle; end != res.Cycles {
				t.Errorf("%s: last window ends at %d, want %d", name, end, res.Cycles)
			}
		}
		check("gpu", d.GPU)
		for i, ring := range d.PerSM {
			check("sm", ring)
			var issued, slots int64
			for _, w := range ring {
				issued += w.Issued
				slots += w.SlotIssued + w.SlotStallMem + w.SlotStallALU +
					w.SlotStallBar + w.SlotStallStr + w.SlotIdle
			}
			// Issue-slot conservation per SM: every window's slots sum to
			// schedulers × window length, so the ring total must equal
			// schedulers × run length.
			if want := int64(res.Schedulers) * res.Cycles; slots != want {
				t.Errorf("sm %d: slot sum = %d, want %d", i, slots, want)
			}
			_ = issued
		}
		var issued int64
		for _, w := range d.GPU {
			issued += w.Issued
		}
		if issued != res.SM.Issued {
			t.Errorf("gpu window Issued sum = %d, want %d", issued, res.SM.Issued)
		}
		var l2 int64
		for _, w := range d.Mem {
			l2 += w.L2Accesses
		}
		if l2 != res.Mem.L2Accesses {
			t.Errorf("mem window L2Accesses sum = %d, want %d", l2, res.Mem.L2Accesses)
		}
	}
}

// TestTelemetryCompaction forces ring compaction with a one-cycle window
// and checks the invariants survive: bounded length, contiguous
// coverage, totals preserved.
func TestTelemetryCompaction(t *testing.T) {
	cfg := config.Small().WithPolicy(config.PolicyBaseline)
	const ctas, block = 16, 64
	col := telemetry.NewCollector(telemetry.Config{Window: 1})
	res, err := Run(mixedLaunch(t, ctas, block), cfg, Options{
		InitMemory: initVec(ctas * block),
		Telemetry:  col,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := col.Dump()
	if len(d.GPU) > telemetry.RingWindows {
		t.Fatalf("ring grew past RingWindows: %d entries", len(d.GPU))
	}
	if d.Window <= 1 {
		t.Fatalf("window never doubled: %d (run is %d cycles)", d.Window, res.Cycles)
	}
	var issued int64
	for i, w := range d.GPU {
		issued += w.Issued
		if i > 0 && w.Cycle-w.Cycles != d.GPU[i-1].Cycle {
			t.Fatalf("compacted ring not contiguous at %d", i)
		}
	}
	if issued != res.SM.Issued {
		t.Fatalf("compaction lost issues: %d != %d", issued, res.SM.Issued)
	}
}

// TestTelemetryPerfetto decodes the Perfetto export (trace-event JSON)
// of a swap-heavy VT run and requires the span kinds the ISSUE promises:
// CTA lifecycle, swap, and SM sleep/fast-forward spans, plus counter
// tracks — all with explicit pid/ts fields (no omitempty holes).
func TestTelemetryPerfetto(t *testing.T) {
	cfg := config.Small().WithPolicy(config.PolicyVT)
	l := &isa.Launch{
		Kernel:   memLoopKernel(t, 8),
		GridDim:  isa.Dim1(24),
		BlockDim: isa.Dim1(64),
		Params:   []uint32{aBase},
	}
	col := telemetry.NewCollector(telemetry.Config{})
	res, err := Run(l, cfg, Options{Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	if res.VT.SwapsOut == 0 {
		t.Fatal("no swaps; perfetto test is vacuous")
	}
	var buf bytes.Buffer
	if err := col.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   *int64          `json:"ts"`
			Pid  *int            `json:"pid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	kinds := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ts == nil || e.Pid == nil {
			t.Fatalf("event %q missing ts or pid", e.Name)
		}
		switch e.Ph {
		case "X":
			switch {
			case len(e.Name) >= 4 && e.Name[:4] == "swap":
				kinds["swap"]++
			case e.Name == "fast-forward":
				kinds["sleep"]++
			case len(e.Name) >= 3 && e.Name[:3] == "cta":
				kinds["cta"]++
			}
		case "C":
			kinds["counter"]++
		}
	}
	for _, k := range []string{"swap", "cta", "counter"} {
		if kinds[k] == 0 {
			t.Errorf("perfetto trace has no %s events (got %v)", k, kinds)
		}
	}
}
