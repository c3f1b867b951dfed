package gpu

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
)

// sampledOpts is the sampling configuration the accuracy tests use:
// windows long enough to measure IPC past the post-span transient, spans
// long enough that most of the run is extrapolated.
func sampledOpts() SamplingOptions {
	return SamplingOptions{DetailedCycles: 12000, FastForwardCycles: 40000, WarmupCycles: 6000}
}

// longMemLaunch is a long-running memory-bound launch: the kind of run
// sampling exists to accelerate.
func longMemLaunch(t testing.TB, iters, ctas int) *isa.Launch {
	return &isa.Launch{
		Kernel:   memLoopKernel(t, iters),
		GridDim:  isa.Dim1(ctas),
		BlockDim: isa.Dim1(64),
		Params:   []uint32{aBase},
	}
}

// memStoreLoopKernel is memLoopKernel plus a final store of the loop's
// accumulator, so sampled runs can be checked for exact memory outputs.
func memStoreLoopKernel(t testing.TB, iters int) *isa.Kernel {
	b := isa.NewBuilder("memstoreloop_test")
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(1, isa.SrNTidX)
	b.IMul(2, 0, 1)
	b.S2R(3, isa.SrTidX)
	b.IAdd(2, 2, 3)
	b.ShlImm(4, 2, 2)
	b.LdParam(5, 0)
	b.IAdd(5, 5, 4)
	b.MovImm(8, 0)
	b.MovImm(9, 0)
	b.Label("loop")
	b.LdG(6, 5, 0)
	b.IAdd(8, 8, 6)
	b.IAddImm(5, 5, 4096+128)
	b.AndImm(5, 5, 0x3FFFF)
	b.LdParam(7, 0)
	b.IAdd(5, 5, 7)
	b.IAddImm(9, 9, 1)
	b.SetpImm(10, isa.CmpILT, 9, int32(iters))
	b.Bra(10, "loop", "done")
	b.Label("done")
	b.LdParam(11, 1)
	b.IAdd(11, 11, 4)
	b.StG(11, 0, 8)
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// chaseBase sits above outBase so the chase's load region never overlaps
// the output stores: a load observing another CTA's store at a
// schedule-dependent time would make architectural state depend on
// interleaving, which sampled runs do not preserve.
const chaseBase = 0x0100_0000

// chaseKernel is a dependent-load latency chain: each iteration folds
// the previous load's destination register into the next address, so the
// scoreboard serializes iterations on the load round trip and the
// machine spends most cycles waiting on memory. Lanes within a warp
// share the address (one coalesced line per load) and each warp chases
// its own 16 MiB region at an 8 KiB stride, so every load misses but the
// DRAM system stays lightly loaded: the round trip is latency, not
// queueing, which makes the workload's IPC stationary. This is the
// regime sampling exists for: detailed cycles per instruction is high,
// so skipping the timing model (but not the execution) wins big.
func chaseKernel(t testing.TB, iters int) *isa.Kernel {
	b := isa.NewBuilder("chase_test")
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(1, isa.SrNTidX)
	b.IMul(2, 0, 1)
	b.S2R(3, isa.SrTidX)
	b.IAdd(2, 2, 3)            // gid
	b.AndImm(4, 2, 0xFFFFFFE0) // warp-uniform: global warp id * 32
	b.ShlImm(4, 4, 19)         // * 16 MiB region per warp
	b.LdParam(5, 0)
	b.IAdd(5, 5, 4) // warp's chase cursor
	b.MovImm(6, 0)  // chase register
	b.MovImm(9, 0)  // counter
	b.Label("loop")
	b.IAdd(8, 5, 6) // next address needs the last loaded value
	b.LdG(6, 8, 0)
	b.IAddImm(5, 5, 8192)
	b.IAddImm(9, 9, 1)
	b.SetpImm(10, isa.CmpILT, 9, int32(iters))
	b.Bra(10, "loop", "done")
	b.Label("done")
	b.LdParam(11, 1)
	b.ShlImm(12, 2, 2)
	b.IAdd(11, 11, 12)
	b.StG(11, 0, 6)
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func chaseLaunch(t testing.TB, iters, ctas int) *isa.Launch {
	return &isa.Launch{
		Kernel:   chaseKernel(t, iters),
		GridDim:  isa.Dim1(ctas),
		BlockDim: isa.Dim1(64),
		Params:   []uint32{chaseBase, outBase},
	}
}

// chaseScatterKernel is chaseKernel with per-lane addresses one cache
// line apart: every load touches 32 distinct lines, so on top of the
// per-warp latency chain the DRAM system runs saturated and the machine
// has in-flight traffic every cycle.
func chaseScatterKernel(t testing.TB, iters int) *isa.Kernel {
	b := isa.NewBuilder("chase_scatter_test")
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(1, isa.SrNTidX)
	b.IMul(2, 0, 1)
	b.S2R(3, isa.SrTidX)
	b.IAdd(2, 2, 3)   // gid
	b.ShlImm(4, 2, 7) // gid*128: one cache line per lane
	b.LdParam(5, 0)
	b.IAdd(5, 5, 4) // lane's chase cursor
	b.MovImm(6, 0)  // chase register
	b.MovImm(9, 0)  // counter
	b.Label("loop")
	b.IAdd(8, 5, 6) // next address needs the last loaded value
	b.LdG(6, 8, 0)
	b.IAddImm(5, 5, 8192)
	b.IAddImm(9, 9, 1)
	b.SetpImm(10, isa.CmpILT, 9, int32(iters))
	b.Bra(10, "loop", "done")
	b.Label("done")
	b.LdParam(11, 1)
	b.ShlImm(12, 2, 2)
	b.IAdd(11, 11, 12)
	b.StG(11, 0, 6)
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func chaseScatterLaunch(t testing.TB, iters, ctas int) *isa.Launch {
	return &isa.Launch{
		Kernel:   chaseScatterKernel(t, iters),
		GridDim:  isa.Dim1(ctas),
		BlockDim: isa.Dim1(64),
		Params:   []uint32{chaseBase, outBase},
	}
}

func memStoreLaunch(t testing.TB, iters, ctas int) *isa.Launch {
	return &isa.Launch{
		Kernel:   memStoreLoopKernel(t, iters),
		GridDim:  isa.Dim1(ctas),
		BlockDim: isa.Dim1(64),
		Params:   []uint32{aBase, outBase},
	}
}

// TestSamplingAccuracyMeasured runs the same launch exact and sampled and
// measures the cycle error directly: it must fall within the run's
// reported error bound and within the 2% target, while every piece of
// architectural state the run exposes — instructions issued, thread
// instructions, memory contents — matches the exact run exactly.
func TestSamplingAccuracyMeasured(t *testing.T) {
	for _, p := range []config.Policy{config.PolicyBaseline, config.PolicyVT} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := config.Small().WithPolicy(p)
			const iters, ctas = 300, 24
			var exactMem, sampMem *mem.Backing
			exact, err := Run(memStoreLaunch(t, iters, ctas), cfg, Options{
				KeepBacking: func(bk *mem.Backing) { exactMem = bk },
			})
			if err != nil {
				t.Fatal(err)
			}
			sampled, err := Run(memStoreLaunch(t, iters, ctas), cfg, Options{
				Sampling:    sampledOpts(),
				KeepBacking: func(bk *mem.Backing) { sampMem = bk },
			})
			if err != nil {
				t.Fatal(err)
			}
			if sampled.Sampling == nil || sampled.Sampling.Spans == 0 {
				t.Fatalf("sampled run executed no spans: %+v", sampled.Sampling)
			}
			relErr := absF(float64(sampled.Cycles-exact.Cycles)) / float64(exact.Cycles)
			t.Logf("exact %d cycles, sampled %d cycles (err %.3f%%, bound %.3f%%, %d spans, %d extrapolated)",
				exact.Cycles, sampled.Cycles, 100*relErr, 100*sampled.Sampling.ErrorBound,
				sampled.Sampling.Spans, sampled.Sampling.ExtrapolatedCycles)
			if relErr > sampled.Sampling.ErrorBound {
				t.Errorf("measured error %.4f exceeds reported bound %.4f",
					relErr, sampled.Sampling.ErrorBound)
			}
			if relErr > 0.02 {
				t.Errorf("measured error %.4f exceeds the 2%% target", relErr)
			}
			// Architectural state is exact, not extrapolated.
			if sampled.SM.Issued != exact.SM.Issued {
				t.Errorf("issued instructions diverge: sampled %d, exact %d",
					sampled.SM.Issued, exact.SM.Issued)
			}
			if sampled.SM.ThreadInstrs != exact.SM.ThreadInstrs {
				t.Errorf("thread instructions diverge: sampled %d, exact %d",
					sampled.SM.ThreadInstrs, exact.SM.ThreadInstrs)
			}
			for i := 0; i < ctas*64; i++ {
				a := outBase + uint32(4*i)
				if e, s := exactMem.LoadWord(a), sampMem.LoadWord(a); e != s {
					t.Fatalf("out[%d] diverges: exact %d, sampled %d", i, e, s)
				}
			}
		})
	}
}

// TestSamplingSpeedup pins the headline performance claim: on a
// latency-bound run — where detailed simulation spends several machine
// cycles per retired instruction — sampling must simulate at least 10x
// fewer cycles in detail than the exact run does, while the measured
// cycle error stays within the run's reported bound and within the 2%
// target. The scatter chase keeps the DRAM system saturated (no idle
// spans for the exact run's event jumps to skip), so the saving here is
// sampling's, not the fast-forwarder's. The gate is the deterministic
// cost, cycles simulated in detail; the wall-clock rate ratio it buys
// (about 6x alone, under 4x beside other test packages) is logged, not
// asserted.
func TestSamplingSpeedup(t *testing.T) {
	t.Parallel() // its wall-clock rates are logged, not asserted
	cfg := config.Small().WithPolicy(config.PolicyVT)
	cfg.MaxCycles = 20_000_000
	so := SamplingOptions{DetailedCycles: 25000, FastForwardCycles: 500000, WarmupCycles: 12000}
	const iters, ctas = 2000, 8

	t0 := time.Now()
	exact, err := Run(chaseScatterLaunch(t, iters, ctas), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dtExact := time.Since(t0)
	t1 := time.Now()
	sampled, err := Run(chaseScatterLaunch(t, iters, ctas), cfg, Options{Sampling: so})
	if err != nil {
		t.Fatal(err)
	}
	dtSampled := time.Since(t1)

	if sampled.Sampling == nil || sampled.Sampling.Spans == 0 {
		t.Fatalf("sampled run executed no spans: %+v", sampled.Sampling)
	}
	relErr := absF(float64(sampled.Cycles-exact.Cycles)) / float64(exact.Cycles)
	rateExact := float64(exact.Cycles) / dtExact.Seconds()
	rateSampled := float64(sampled.Cycles) / dtSampled.Seconds()
	detailRatio := float64(exact.Cycles) / float64(sampled.Sampling.DetailedCycles)
	t.Logf("exact %d cycles in %v (%.0f cyc/s); sampled %d cycles, %d in detail, in %v (%.0f cyc/s): %.1fx fewer detailed cycles, %.2fx wall rate, err %.2f%%, bound %.2f%%",
		exact.Cycles, dtExact.Round(time.Millisecond), rateExact,
		sampled.Cycles, sampled.Sampling.DetailedCycles, dtSampled.Round(time.Millisecond), rateSampled,
		detailRatio, rateSampled/rateExact, 100*relErr, 100*sampled.Sampling.ErrorBound)

	if relErr > sampled.Sampling.ErrorBound {
		t.Errorf("measured error %.4f exceeds reported bound %.4f", relErr, sampled.Sampling.ErrorBound)
	}
	if relErr > 0.02 {
		t.Errorf("measured error %.4f exceeds the 2%% target", relErr)
	}
	if sampled.SM.Issued != exact.SM.Issued {
		t.Errorf("issued instructions diverge: sampled %d, exact %d", sampled.SM.Issued, exact.SM.Issued)
	}
	if detailRatio < 10 {
		t.Errorf("sampling simulated %d of the exact run's %d cycles in detail (%.1fx fewer), want >= 10x fewer",
			sampled.Sampling.DetailedCycles, exact.Cycles, detailRatio)
	}
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestSamplingArmedButIdleIsPure proves the span machinery is a pure
// observer while no span triggers: with DetailedCycles beyond the run
// length, every cycle simulates in detail and the Result must be
// DeepEqual to a fully exact run (modulo the Sampling report itself),
// across every policy x scheduler combination.
func TestSamplingArmedButIdleIsPure(t *testing.T) {
	policies := []config.Policy{
		config.PolicyBaseline, config.PolicyVT,
		config.PolicyIdeal, config.PolicyFullSwap,
	}
	schedulers := []config.SchedulerKind{
		config.SchedGTO, config.SchedLRR, config.SchedTwoLevel,
	}
	for _, p := range policies {
		for _, sched := range schedulers {
			t.Run(p.String()+"/"+sched.String()+"/par1", func(t *testing.T) {
				cfg := config.Small().WithPolicy(p)
				cfg.Scheduler = sched
				run := func(s SamplingOptions) *Result {
					res, err := Run(mixedLaunch(t, 16, 64), cfg, Options{
						InitMemory: initVec(16 * 64),
						Sampling:   s,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				exact := run(SamplingOptions{})
				armed := run(SamplingOptions{DetailedCycles: 1 << 40, FastForwardCycles: 1})
				if exact.Sampling != nil {
					t.Fatal("exact run reported sampling stats")
				}
				if armed.Sampling == nil || armed.Sampling.Spans != 0 {
					t.Fatalf("armed-idle run should report zero spans: %+v", armed.Sampling)
				}
				armed.Sampling = nil
				if !reflect.DeepEqual(exact, armed) {
					t.Fatalf("armed-but-idle sampling perturbs the run:\nexact: %+v\narmed: %+v", exact, armed)
				}
			})
		}
	}
}

// TestSamplingSlotConservation checks the issue-slot conservation
// invariant across sampled spans: AccountSampled must keep slot samples
// equal to cycles x schedulers on every SM.
func TestSamplingSlotConservation(t *testing.T) {
	cfg := config.Small().WithPolicy(config.PolicyVT)
	res, err := Run(longMemLaunch(t, 200, 24), cfg, Options{Sampling: sampledOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling == nil || res.Sampling.Spans == 0 {
		t.Fatal("no spans executed; conservation check is vacuous")
	}
	slots := res.SM.SlotIssued + res.SM.SlotStallMem + res.SM.SlotStallALU +
		res.SM.SlotStallBar + res.SM.SlotStallStr + res.SM.SlotIdle
	want := res.Cycles * int64(res.Schedulers) * int64(res.NumSMs)
	if slots != want {
		t.Fatalf("slot conservation violated across sampled spans: %d slot samples, want %d", slots, want)
	}
}

// TestSamplingOptionsValidation exercises the joined-error validation of
// the sampling knobs: every violation is reported, none panics.
func TestSamplingOptionsValidation(t *testing.T) {
	l := vecAddLaunch(t, 2, 32)
	cfg := config.Small()

	cases := []struct {
		name string
		opts Options
		want []string
	}{
		{
			name: "negative windows",
			opts: Options{Sampling: SamplingOptions{DetailedCycles: -5, FastForwardCycles: -1, WarmupCycles: -2}},
			want: []string{"DetailedCycles", "FastForwardCycles", "WarmupCycles"},
		},
		{
			name: "warmup swallows window",
			opts: Options{Sampling: SamplingOptions{DetailedCycles: 100, FastForwardCycles: 1000, WarmupCycles: 100}},
			want: []string{"WarmupCycles"},
		},
		{
			name: "invariants mid-span",
			opts: Options{
				Sampling:        SamplingOptions{DetailedCycles: 100, FastForwardCycles: 1000},
				CheckInvariants: true,
			},
			want: []string{"CheckInvariants"},
		},
		{
			name: "checkpoint mid-span",
			opts: Options{
				Sampling:        SamplingOptions{DetailedCycles: 100, FastForwardCycles: 1000},
				CheckpointEvery: 64,
				OnCheckpoint:    func(*Checkpoint) {},
			},
			want: []string{"CheckpointEvery"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(l, cfg, tc.opts)
			if err == nil {
				t.Fatal("invalid options accepted")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %s", err, w)
				}
			}
		})
	}

	// A valid sampled configuration must still run.
	res, err := Run(vecAddLaunch(t, 2, 32), cfg, Options{
		InitMemory: initVec(64),
		Sampling:   SamplingOptions{DetailedCycles: 100, FastForwardCycles: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling == nil {
		t.Fatal("sampled run reported no sampling stats")
	}
}

// TestParseSampling pins the -sample flag syntax and its round-trip
// through SamplingOptions.String.
func TestParseSampling(t *testing.T) {
	good := map[string]SamplingOptions{
		"":                   {},
		"100:1000":           {DetailedCycles: 100, FastForwardCycles: 1000},
		"100:1000:25":        {DetailedCycles: 100, FastForwardCycles: 1000, WarmupCycles: 25},
		"25000:500000:12000": {DetailedCycles: 25000, FastForwardCycles: 500000, WarmupCycles: 12000},
	}
	for in, want := range good {
		got, err := ParseSampling(in)
		if err != nil {
			t.Errorf("ParseSampling(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSampling(%q) = %+v, want %+v", in, got, want)
		}
		if got.Enabled() {
			rt, err := ParseSampling(got.String())
			if err != nil || rt != got {
				t.Errorf("round-trip of %q via %q failed: %+v, %v", in, got.String(), rt, err)
			}
		} else if got.String() != "" {
			t.Errorf("disabled options render %q, want empty", got.String())
		}
	}
	for _, bad := range []string{"100", "100:1000:25:7", "a:b", "100:", ":100", "100:1000:x"} {
		if _, err := ParseSampling(bad); err == nil {
			t.Errorf("ParseSampling(%q) accepted a bad spec", bad)
		}
	}
}
