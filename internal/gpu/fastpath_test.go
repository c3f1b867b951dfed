package gpu

import (
	"compress/gzip"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
)

// mixedKernel exercises every readiness-flipping path the issue fast path
// caches: global loads (long-latency scoreboard), shared memory with a
// barrier, SFU instructions (structural hazards), plain ALU chains, and an
// atomic. out[gid] = f(a[gid]) staged through a shared tile.
func mixedKernel(t testing.TB) *isa.Kernel {
	b := isa.NewBuilder("mixed_test").SharedMem(256)
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(1, isa.SrNTidX)
	b.IMul(2, 0, 1)
	b.S2R(3, isa.SrTidX)
	b.IAdd(2, 2, 3)   // gid
	b.ShlImm(4, 2, 2) // gid byte offset
	b.LdParam(5, 0)
	b.IAdd(5, 5, 4)
	b.LdG(6, 5, 0)    // a[gid]
	b.ShlImm(7, 3, 2) // tid byte offset into the shared tile
	b.StS(7, 0, 6)
	b.Bar()
	b.LdS(8, 7, 0)
	b.FSin(9, 8)
	b.FRcp(10, 9)
	b.FMul(11, 10, 8)
	b.LdParam(12, 1)
	b.IAdd(12, 12, 4)
	b.StG(12, 0, 11)
	b.LdParam(13, 2)
	b.AtomAdd(14, 13, 0, 3)
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func mixedLaunch(t testing.TB, ctas, block int) *isa.Launch {
	const accumBase = 0x0040_0000
	return &isa.Launch{
		Kernel:   mixedKernel(t),
		GridDim:  isa.Dim1(ctas),
		BlockDim: isa.Dim1(block),
		Params:   []uint32{aBase, outBase, accumBase},
	}
}

// TestIssueFastPathEquivalence proves the O(1) issue fast path — ready
// bitsets, next-instruction records, row kernels, the event-maintained VT
// controller — is observation-equivalent to the original full scans and
// per-lane execution: for every policy and scheduler the complete
// Result struct — cycles, every stat counter, the stall breakdown — is
// identical with the fast path on and off. Both runs recount the derived
// state every 64 cycles (CheckInvariants).
func TestIssueFastPathEquivalence(t *testing.T) {
	policies := []config.Policy{
		config.PolicyBaseline, config.PolicyVT,
		config.PolicyIdeal, config.PolicyFullSwap,
	}
	schedulers := []config.SchedulerKind{
		config.SchedGTO, config.SchedLRR, config.SchedTwoLevel,
	}
	for _, p := range policies {
		for _, sched := range schedulers {
			t.Run(p.String()+"/"+sched.String(), func(t *testing.T) {
				// The "par1" leaf (here and in the other matrices) keeps the
				// subtest names test ledgers already track.
				t.Run("par1", func(t *testing.T) {
					cfg := config.Small().WithPolicy(p)
					cfg.Scheduler = sched
					const ctas, block = 16, 64
					run := func(disable bool) *Result {
						res, err := Run(mixedLaunch(t, ctas, block), cfg, Options{
							InitMemory:           initVec(ctas * block),
							DisableIssueFastPath: disable,
							CheckInvariants:      true,
							InvariantInterval:    64,
						})
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					fast, slow := run(false), run(true)
					if !reflect.DeepEqual(fast, slow) {
						t.Fatalf("fast path diverges:\nfast: %+v\nslow: %+v", fast, slow)
					}
				})
			})
		}
	}
}

// memLoopKernel strides loads across 4 KiB so every iteration misses:
// warps spend most cycles memory-blocked, which drives the VT controller
// through its full swap-out/swap-in cycle.
func memLoopKernel(t testing.TB, iters int) *isa.Kernel {
	b := isa.NewBuilder("memloop_test")
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
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestIssueFastPathEquivalenceSwaps drives the VT policies through real
// swap-out/swap-in traffic (restore latency, restoreReady tracking,
// context-port wakeups, the ready-CTA set, the cached swap trigger and
// residency-expiry scan) and requires identical Results fast on/off: the
// synthetic always-missing loop and the suite's swap-heavy kernels, under
// each activation policy, a partial trigger fraction, two swap ports and
// no anti-thrash residency, with the derived state recounted every 64
// cycles.
func TestIssueFastPathEquivalenceSwaps(t *testing.T) {
	tunes := []struct {
		name string
		tune func(*config.GPUConfig)
	}{
		{"default", func(*config.GPUConfig) {}},
		{"newest", func(c *config.GPUConfig) { c.VT.Activation = config.ActNewest }},
		{"trigger0.5", func(c *config.GPUConfig) { c.VT.TriggerFraction = 0.5 }},
		{"ports2-nominres", func(c *config.GPUConfig) { c.VT.SwapPorts = 2; c.VT.MinResidencyCycles = 0 }},
	}
	for _, p := range []config.Policy{config.PolicyVT, config.PolicyFullSwap} {
		t.Run(p.String(), func(t *testing.T) {
			for _, workload := range []string{"memloop", "nw", "bfs", "lud"} {
				for _, tn := range tunes {
					t.Run(workload+"/"+tn.name+"/par1", func(t *testing.T) {
						cfg := config.Small().WithPolicy(p)
						tn.tune(&cfg)
						run := func(disable bool) *Result {
							l := &isa.Launch{
								Kernel:   memLoopKernel(t, 8),
								GridDim:  isa.Dim1(24),
								BlockDim: isa.Dim1(64),
								Params:   []uint32{aBase},
							}
							opts := Options{}
							if workload != "memloop" {
								l, opts = buildLaunch(t, workload)
							}
							opts.DisableIssueFastPath = disable
							opts.CheckInvariants = true
							opts.InvariantInterval = 64
							res, err := Run(l, cfg, opts)
							if err != nil {
								t.Fatal(err)
							}
							return res
						}
						fast, slow := run(false), run(true)
						if fast.VT.SwapsOut == 0 {
							t.Fatalf("%s: workload produced no swaps; equivalence check is vacuous", p)
						}
						if !reflect.DeepEqual(fast, slow) {
							t.Fatalf("fast path diverges on swap-heavy run:\nfast: %+v\nslow: %+v", fast, slow)
						}
					})
				}
			}
		})
	}
}

// TestIssueFastPathEquivalenceSampled runs the sampling engine — detailed
// windows alternating with functional spans, which execute unbound warps
// and retire CTAs while swapped out — fast on/off.
func TestIssueFastPathEquivalenceSampled(t *testing.T) {
	for _, workload := range []string{"pathfinder", "bfs"} {
		for _, p := range []config.Policy{config.PolicyBaseline, config.PolicyVT} {
			t.Run(workload+"/"+p.String(), func(t *testing.T) {
				cfg := config.Small().WithPolicy(p)
				run := func(disable bool) *Result {
					l, opts := buildLaunch(t, workload)
					l.GridDim = isa.Dim1(96)
					opts.DisableIssueFastPath = disable
					opts.Sampling = SamplingOptions{DetailedCycles: 400, FastForwardCycles: 800, WarmupCycles: 100}
					res, err := Run(l, cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				fast, slow := run(false), run(true)
				if fast.Sampling == nil || fast.Sampling.Spans == 0 {
					t.Fatalf("no functional span ran; equivalence check is vacuous: %+v", fast.Sampling)
				}
				if !reflect.DeepEqual(fast, slow) {
					t.Fatalf("fast path diverges under sampling:\nfast: %+v\nslow: %+v", fast, slow)
				}
			})
		}
	}
}

// TestIssueFastPathEquivalenceFork crosses the fast path with
// checkpointing: every derived field is rebuilt on Resume, so a
// checkpoint captured with the fast path on resumes identically with it
// off and vice versa, and both match the uninterrupted run.
func TestIssueFastPathEquivalenceFork(t *testing.T) {
	for _, p := range []config.Policy{config.PolicyVT, config.PolicyFullSwap} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := config.Small().WithPolicy(p)
			ref := runPlain(t, "nw", cfg, Options{})
			for _, captureSlow := range []bool{false, true} {
				_, ck := runCapturing(t, "nw", cfg,
					Options{DisableIssueFastPath: captureSlow}, ref.Cycles/2)
				if ck == nil {
					t.Fatal("no checkpoint captured")
				}
				forked := resume(t, "nw", ck, cfg, Options{
					DisableIssueFastPath: !captureSlow,
					CheckInvariants:      true, InvariantInterval: 64,
				})
				if !reflect.DeepEqual(ref, forked) {
					t.Fatalf("capture slow=%v, resume slow=%v: fork at cycle %d diverged from the uninterrupted run",
						captureSlow, !captureSlow, ck.Cycle)
				}
			}
		})
	}
}

// TestResumeParentBuildCheckpoint resumes a checkpoint captured by the
// build before the derived issue/controller state existed (PR 14; nw
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
	if plain := runPlain(t, "nw", cfg, Options{}); !reflect.DeepEqual(fixture.Result, plain) {
		t.Fatalf("this build's uninterrupted run differs from the parent build's:\nwant: %+v\ngot:  %+v",
			fixture.Result, plain)
	}
}

// TestIssueFastPathEquivalenceRFBanks covers the banked-register-file
// scheduler stall (busyUntil), whose duplicate-source bank counting must
// not be changed by the pre-decoded operand masks.
func TestIssueFastPathEquivalenceRFBanks(t *testing.T) {
	cfg := config.Small()
	cfg.RegFileBanks = 16
	run := func(disable bool) *Result {
		res, err := Run(mixedLaunch(t, 12, 64), cfg, Options{
			InitMemory:           initVec(12 * 64),
			DisableIssueFastPath: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if fast, slow := run(false), run(true); !reflect.DeepEqual(fast, slow) {
		t.Fatalf("fast path diverges with banked register file:\nfast: %+v\nslow: %+v", fast, slow)
	}
}
