package config

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestGTX480Valid(t *testing.T) {
	c := GTX480()
	if err := c.Validate(); err != nil {
		t.Fatalf("GTX480 preset invalid: %v", err)
	}
	if got := c.L1D.SizeBytes(); got != 16*1024 {
		t.Errorf("L1D size = %d, want 16384", got)
	}
	if got := c.L2.SizeBytes(); got != 128*1024 {
		t.Errorf("L2 slice size = %d, want 131072", got)
	}
	if c.RegFileSize*4 != 128*1024 {
		t.Errorf("register file = %d bytes, want 128 KB", c.RegFileSize*4)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*GPUConfig)
	}{
		{"zero SMs", func(c *GPUConfig) { c.NumSMs = 0 }},
		{"warp too wide", func(c *GPUConfig) { c.WarpSize = 128 }},
		{"zero warp", func(c *GPUConfig) { c.WarpSize = 0 }},
		{"zero CTA slots", func(c *GPUConfig) { c.MaxCTAsPerSM = 0 }},
		{"zero warp slots", func(c *GPUConfig) { c.MaxWarpsPerSM = 0 }},
		{"threads below warp", func(c *GPUConfig) { c.MaxThreadsPerSM = 16 }},
		{"zero schedulers", func(c *GPUConfig) { c.NumSchedulers = 0 }},
		{"zero regfile", func(c *GPUConfig) { c.RegFileSize = 0 }},
		{"zero reg alloc unit", func(c *GPUConfig) { c.RegAllocUnit = 0 }},
		{"zero ALU latency", func(c *GPUConfig) { c.ALULatency = 0 }},
		{"zero partitions", func(c *GPUConfig) { c.NumMemPartitions = 0 }},
		{"zero dram service", func(c *GPUConfig) { c.DRAMServiceCycles = 0 }},
		{"zero lsu queue", func(c *GPUConfig) { c.LSUQueueDepth = 0 }},
		{"bad L1 line", func(c *GPUConfig) { c.L1D.LineSize = 100 }},
		{"zero L1 sets", func(c *GPUConfig) { c.L1D.Sets = 0 }},
		{"zero L2 mshrs", func(c *GPUConfig) { c.L2.MSHRs = 0 }},
		{"zero DRAM row", func(c *GPUConfig) { c.DRAMRowBytes = 0 }},
		{"odd DRAM row", func(c *GPUConfig) { c.DRAMRowBytes = 3000 }},
		{"vt no buffer", func(c *GPUConfig) {
			c.Policy = PolicyVT
			c.VT.ContextBufferBytes = 0
		}},
		{"vt negative swap", func(c *GPUConfig) {
			c.Policy = PolicyFullSwap
			c.VT.SwapOutLatency = -1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := GTX480()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatalf("expected validation error for %q", tc.name)
			}
		})
	}
}

// TestFlatDRAMSkipsRowCheck: with no banks there is no open row, so the
// flat channel model accepts any DRAMRowBytes.
func TestFlatDRAMSkipsRowCheck(t *testing.T) {
	c := GTX480()
	c.DRAMBanks = 0
	for _, row := range []int{0, 3000} {
		c.DRAMRowBytes = row
		if err := c.Validate(); err != nil {
			t.Fatalf("flat DRAM with DRAMRowBytes %d: %v", row, err)
		}
	}
}

func TestEffectiveSchedulingLimits(t *testing.T) {
	c := GTX480()
	ctas, warps, threads := c.EffectiveSchedulingLimits()
	if ctas != 8 || warps != 48 || threads != 1536 {
		t.Fatalf("baseline limits = (%d,%d,%d), want (8,48,1536)", ctas, warps, threads)
	}

	ideal := c.WithPolicy(PolicyIdeal)
	ic, iw, it := ideal.EffectiveSchedulingLimits()
	if ic < ctas || iw < warps || it < threads {
		t.Fatalf("ideal limits (%d,%d,%d) must dominate baseline (%d,%d,%d)",
			ic, iw, it, ctas, warps, threads)
	}
	if it < c.RegFileSize {
		t.Errorf("ideal thread limit %d should cover register file bound %d", it, c.RegFileSize)
	}
}

func TestWithPolicyDoesNotMutateReceiver(t *testing.T) {
	c := GTX480()
	_ = c.WithPolicy(PolicyVT)
	if c.Policy != PolicyBaseline {
		t.Fatal("WithPolicy mutated its receiver")
	}
}

func TestPolicyAndSchedulerStrings(t *testing.T) {
	if PolicyBaseline.String() != "baseline" || PolicyVT.String() != "vt" ||
		PolicyIdeal.String() != "ideal" || PolicyFullSwap.String() != "fullswap" {
		t.Error("unexpected policy names")
	}
	if SchedGTO.String() != "gto" || SchedLRR.String() != "lrr" {
		t.Error("unexpected scheduler names")
	}
	if Policy(99).String() == "" || SchedulerKind(99).String() == "" {
		t.Error("unknown enum values must still render")
	}
}

// Property: the ideal policy's scheduling limits always dominate the
// baseline limits, for arbitrary (positive) hardware shapes.
func TestIdealDominatesProperty(t *testing.T) {
	f := func(regKB uint16, warpsLim uint8, ctasLim uint8) bool {
		c := GTX480()
		c.RegFileSize = int(regKB%512+1) * 256
		c.MaxWarpsPerSM = int(warpsLim%64) + 1
		c.MaxCTAsPerSM = int(ctasLim%32) + 1
		c.MaxThreadsPerSM = c.MaxWarpsPerSM * c.WarpSize
		bc, bw, bt := c.EffectiveSchedulingLimits()
		ideal := c.WithPolicy(PolicyIdeal)
		ic, iw, it := ideal.EffectiveSchedulingLimits()
		return ic >= bc && iw >= bw && it >= bt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeplerLikeValid(t *testing.T) {
	c := KeplerLike()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	base := GTX480()
	if c.MaxCTAsPerSM <= base.MaxCTAsPerSM || c.MaxWarpsPerSM <= base.MaxWarpsPerSM ||
		c.RegFileSize <= base.RegFileSize {
		t.Fatal("Kepler must loosen Fermi's limits")
	}
	if c.L2.SizeBytes()*c.NumMemPartitions != 1536*1024 {
		t.Fatalf("Kepler L2 = %d", c.L2.SizeBytes()*c.NumMemPartitions)
	}
}

func TestPolicyJSONRoundTrip(t *testing.T) {
	for _, p := range []Policy{PolicyBaseline, PolicyVT, PolicyIdeal, PolicyFullSwap} {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + p.String() + `"`; string(data) != want {
			t.Fatalf("%v marshals to %s, want %s", p, data, want)
		}
		var back Policy
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != p {
			t.Fatalf("round trip %v -> %s -> %v", p, data, back)
		}
	}
	var p Policy
	if err := json.Unmarshal([]byte(`"nonsense"`), &p); err == nil {
		t.Fatal("bad policy must error")
	}
	if err := json.Unmarshal([]byte(`1`), &p); err == nil {
		t.Fatal("a numeric policy must be refused: every writer emits names")
	}
}

func TestSchedulerJSONRoundTrip(t *testing.T) {
	for _, k := range []SchedulerKind{SchedGTO, SchedLRR, SchedTwoLevel} {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + k.String() + `"`; string(data) != want {
			t.Fatalf("%v marshals to %s, want %s", k, data, want)
		}
		var back SchedulerKind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("round trip %v", k)
		}
	}
	var k SchedulerKind
	for _, bad := range []string{`"nonsense"`, `1`} {
		if err := json.Unmarshal([]byte(bad), &k); err == nil {
			t.Fatalf("scheduler %s must be refused", bad)
		}
	}
}

// TestValidateCollectsAllViolations: Validate must report every problem
// in one pass (errors.Join), not just the first.
func TestValidateCollectsAllViolations(t *testing.T) {
	c := GTX480()
	c.NumSMs = 0
	c.NumSchedulers = -1
	c.MaxCycles = -5
	err := c.Validate()
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	for _, want := range []string{"NumSMs", "NumSchedulers", "MaxCycles"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing the %s violation: %v", want, err)
		}
	}
}

func TestValidateRejectsNegativeMaxCycles(t *testing.T) {
	c := GTX480()
	c.MaxCycles = -1
	if err := c.Validate(); err == nil {
		t.Fatal("negative MaxCycles accepted")
	}
	c.MaxCycles = 0 // engine default: valid
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
