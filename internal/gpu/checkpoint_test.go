package gpu

// Checkpoint/restore contract: resuming from a checkpoint captured at any
// quiescent cycle boundary must produce a Result bit-identical
// (reflect.DeepEqual) to the uninterrupted run, and capturing must be a
// pure observer. The engine oracle's fork row (TestCheckpointForkEquivalence)
// checks both on every input; the tests here cover random fork cycles,
// cross-config forks, serialization, reuse, validation and compatibility
// with checkpoints older builds wrote.

import (
	"compress/gzip"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/telemetry"
)

// buildLaunch builds a fresh small-grid launch plus its memory image.
func buildLaunch(t *testing.T, workload string) (*isa.Launch, Options) {
	t.Helper()
	w, err := kernels.Build(workload, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch.GridDim = isa.Dim1(24)
	return w.Launch, Options{InitMemory: w.Init}
}

// runPlain runs the workload without any checkpointing.
func runPlain(t *testing.T, workload string, cfg config.GPUConfig) *Result {
	t.Helper()
	l, base := buildLaunch(t, workload)
	res, err := Run(l, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runCapturing runs the workload capturing at the first cycle at or past
// at, returning the run's result and that first checkpoint (nil if the
// run finished first); the guard latches once it is taken.
func runCapturing(t *testing.T, workload string, cfg config.GPUConfig, at int64) (*Result, *Checkpoint) {
	t.Helper()
	l, base := buildLaunch(t, workload)
	var ck *Checkpoint
	base.CheckpointEvery = at
	base.CheckpointGuard = func(int64, core.Stats) bool { return ck == nil }
	base.OnCheckpoint = func(c *Checkpoint) { ck = c }
	res, err := Run(l, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	return res, ck
}

// resume rebuilds fresh launches and resumes the checkpoint under cfg.
func resume(t *testing.T, workload string, ck *Checkpoint, cfg config.GPUConfig, opts Options) *Result {
	t.Helper()
	l, _ := buildLaunch(t, workload)
	res, err := Resume(ck, []*isa.Launch{l}, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCheckpointRandomCycles is the property test: forking at arbitrary
// (pseudo-random) cycles must always reproduce the uninterrupted run.
// The first capture rounds up to the next simulated cycle, so any target in
// [1, Cycles) names a valid quiescent boundary.
func TestCheckpointRandomCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, policy := range []config.Policy{config.PolicyVT, config.PolicyFullSwap} {
		cfg := config.Small().WithPolicy(policy)
		ref := runPlain(t, "nw", cfg)
		for i := 0; i < 5; i++ {
			at := 1 + rng.Int63n(ref.Cycles-1)
			_, ck := runCapturing(t, "nw", cfg, at)
			if ck == nil {
				t.Fatalf("policy %v: no checkpoint at cycle %d of %d", policy, at, ref.Cycles)
			}
			forked := resume(t, "nw", ck, cfg, Options{})
			if !reflect.DeepEqual(ref, forked) {
				t.Fatalf("policy %v: fork at cycle %d (target %d) diverged", policy, ck.Cycle, at)
			}
		}
	}
}

// TestCheckpointCrossConfigFork is the prefix-fork use case: a checkpoint
// captured before any swap activity under one swap-latency configuration
// seeds runs under different swap latencies, each bit-identical to its
// own uninterrupted run.
func TestCheckpointCrossConfigFork(t *testing.T) {
	base := config.Small().WithPolicy(config.PolicyVT)
	donorCfg := base
	donorCfg.VT.SwapOutLatency = 8
	donorCfg.VT.SwapInLatency = 8

	l, opts := buildLaunch(t, "pathfinder")
	var ck *Checkpoint
	opts.CheckpointEvery = 16
	opts.CheckpointGuard = func(cycle int64, vt core.Stats) bool {
		return vt.SwapsOut == 0 && vt.SwapsIn == 0
	}
	opts.OnCheckpoint = func(c *Checkpoint) { ck = c }
	if _, err := Run(l, donorCfg, opts); err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("guard blocked every capture (first swap before cycle 16?)")
	}

	for _, lat := range []int{0, 64, 256} {
		cfg := base
		cfg.VT.SwapOutLatency = lat
		cfg.VT.SwapInLatency = lat
		ref := runPlain(t, "pathfinder", cfg)
		forked := resume(t, "pathfinder", ck, cfg, Options{})
		if !reflect.DeepEqual(ref, forked) {
			t.Fatalf("swap latency %d: fork from cross-config checkpoint (cycle %d) diverged: ref cycles=%d forked cycles=%d",
				lat, ck.Cycle, ref.Cycles, forked.Cycles)
		}
	}
}

// TestCheckpointStaleSchedulerRef pins a capture-time bug: a GTO
// scheduler's greedy pointer can outlive its warp's CTA — the CTA
// completes and departs the SM while the pointer lingers (inert, since a
// Finished warp never passes an issue check). Serializing that dangling
// ref verbatim made restore fail with "warp ref not resident". The exact
// combo that first hit it: bfs on GTX480 with MinResidencyCycles 3072,
// donor swap latency 64, forked to 512 — by cycle ~2656 SM 12's greedy
// still named a departed CTA. Capture must encode such refs as nil, and
// the fork must stay bit-identical to the uninterrupted run.
func TestCheckpointStaleSchedulerRef(t *testing.T) {
	mk := func(lat int) config.GPUConfig {
		cfg := config.GTX480().WithPolicy(config.PolicyVT)
		cfg.VT.MinResidencyCycles = 3072
		cfg.VT.SwapOutLatency = lat
		cfg.VT.SwapInLatency = lat
		return cfg
	}
	l, opts := buildLaunch(t, "bfs")
	var ck *Checkpoint
	opts.CheckpointEvery = 64
	opts.CheckpointGuard = func(cycle int64, vt core.Stats) bool {
		return vt.SwapsOut == 0 && vt.SwapsIn == 0
	}
	opts.OnCheckpoint = func(c *Checkpoint) { ck = c }
	if _, err := Run(l, mk(64), opts); err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("guard blocked every capture")
	}
	ref := runPlain(t, "bfs", mk(512))
	forked := resume(t, "bfs", ck, mk(512), Options{})
	if !reflect.DeepEqual(ref, forked) {
		t.Fatalf("fork across a departed-CTA scheduler ref diverged: ref cycles=%d forked cycles=%d",
			ref.Cycles, forked.Cycles)
	}
}

// TestCheckpointJSONRoundTrip proves a checkpoint survives serialization:
// resuming from a decoded copy matches resuming from the original.
func TestCheckpointJSONRoundTrip(t *testing.T) {
	cfg := config.Small().WithPolicy(config.PolicyVT)
	ref := runPlain(t, "bfs", cfg)
	_, ck := runCapturing(t, "bfs", cfg, ref.Cycles/2)
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}
	blob, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Checkpoint
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	forked := resume(t, "bfs", &decoded, cfg, Options{})
	if !reflect.DeepEqual(ref, forked) {
		t.Fatalf("fork from JSON-round-tripped checkpoint diverged")
	}
}

// TestCheckpointReuse forks the same checkpoint twice; the second fork
// must not see any state the first one mutated.
func TestCheckpointReuse(t *testing.T) {
	cfg := config.Small().WithPolicy(config.PolicyFullSwap)
	ref := runPlain(t, "pathfinder", cfg)
	_, ck := runCapturing(t, "pathfinder", cfg, ref.Cycles/2)
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}
	first := resume(t, "pathfinder", ck, cfg, Options{})
	second := resume(t, "pathfinder", ck, cfg, Options{})
	if !reflect.DeepEqual(ref, first) || !reflect.DeepEqual(ref, second) {
		t.Fatalf("checkpoint reuse diverged (first ok=%v, second ok=%v)",
			reflect.DeepEqual(ref, first), reflect.DeepEqual(ref, second))
	}
}

// TestResumeRejects covers the structural validation.
func TestResumeRejects(t *testing.T) {
	cfg := config.Small().WithPolicy(config.PolicyVT)
	ref := runPlain(t, "bfs", cfg)
	_, ck := runCapturing(t, "bfs", cfg, ref.Cycles/2)
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}
	l, _ := buildLaunch(t, "bfs")

	structural := cfg
	structural.NumSMs++
	if _, err := Resume(ck, []*isa.Launch{l}, structural, Options{}); err == nil {
		t.Error("structural config change accepted")
	}
	if _, err := Resume(ck, []*isa.Launch{l}, cfg.WithPolicy(config.PolicyBaseline), Options{}); err == nil {
		t.Error("policy change accepted")
	}
	bad := *ck
	bad.Version = CheckpointVersion + 1
	if _, err := Resume(&bad, []*isa.Launch{l}, cfg, Options{}); err == nil {
		t.Error("future checkpoint version accepted")
	}
	if _, err := Resume(nil, []*isa.Launch{l}, cfg, Options{}); err == nil {
		t.Error("nil checkpoint accepted")
	}
	// A checkpoint carries no collector state: a collector attached to the
	// resumed run would start its rings at cycle 0 and fold the whole
	// prefix into its first window.
	col := telemetry.NewCollector(telemetry.Config{Window: 64})
	if _, err := Resume(ck, []*isa.Launch{l}, cfg, Options{Telemetry: col}); err == nil ||
		!strings.Contains(err.Error(), "telemetry") {
		t.Errorf("telemetry collector accepted on resume (err %v)", err)
	}

	// Swap latencies are the neutralized parameters: changing them must
	// be accepted.
	lat := cfg
	lat.VT.SwapOutLatency = 999
	if _, err := Resume(ck, []*isa.Launch{l}, lat, Options{}); err != nil {
		t.Errorf("swap-latency change rejected: %v", err)
	}
}

// TestResumeParentBuildCheckpoint resumes a checkpoint captured by the
// build before the derived issue/controller state existed (nw
// under VT on config.Small, 24 CTAs, cycle 4722 of 9440, swaps and a
// min-residency wakeup in flight) and requires the Result that build's
// uninterrupted run produced: the envelope format is unchanged and every
// new field is rebuilt from it. testdata/parent_nw_vt.ck.json.gz holds
// {"checkpoint": ..., "result": ...} as that build marshalled them.
func TestResumeParentBuildCheckpoint(t *testing.T) {
	f, err := os.Open("testdata/parent_nw_vt.ck.json.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var fixture struct {
		Checkpoint *Checkpoint `json:"checkpoint"`
		Result     *Result     `json:"result"`
	}
	if err := json.NewDecoder(zr).Decode(&fixture); err != nil {
		t.Fatal(err)
	}
	cfg := config.Small().WithPolicy(config.PolicyVT)
	for _, slow := range []bool{false, true} {
		got := resume(t, "nw", fixture.Checkpoint, cfg, Options{
			DisableIssueFastPath: slow,
			CheckInvariants:      true, InvariantInterval: 64,
		})
		if !reflect.DeepEqual(fixture.Result, got) {
			t.Fatalf("slow=%v: resuming the parent build's checkpoint diverged from its run:\nwant: %+v\ngot:  %+v",
				slow, fixture.Result, got)
		}
	}
	if plain := runPlain(t, "nw", cfg); !reflect.DeepEqual(fixture.Result, plain) {
		t.Fatalf("this build's uninterrupted run differs from the parent build's:\nwant: %+v\ngot:  %+v",
			fixture.Result, plain)
	}
}
