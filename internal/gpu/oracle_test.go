package gpu

// The engine oracle. Every engine shortcut — the issue fast path, idle
// skip, telemetry, checkpoint fork, sampled simulation — must leave a
// run's Result unchanged, and what a kernel computes must not depend on
// the CTA scheduling policy. Each relation is one row, a top-level test
// over one input set: every registered workload under every policy, the
// VT, register-file and scheduler-count tunings the presets leave
// untried, and seeded generated kernels, alone and in pairs. Every row
// compares Results with assertEquivalent, which also holds each Result to
// issue-slot conservation. A row keeps the name of the hand-picked test
// it replaced.
//
// Rows:
//   - TestIssueFastPathEquivalence: the fast path against the reference
//     issue path (invariants recounted every 64 cycles) under all three
//     schedulers. Telemetry collectors ride the LRR fast run and the
//     two-level reference run.
//   - TestStallAccountingInvariant: issue-slot conservation of those runs
//     and of the idle-skip-off runs, by policy and scheduler.
//   - TestCheckpointForkEquivalence: fork at ½ and ¾ — capture fast /
//     resume fast (seq); capture fast / resume reference and capture
//     reference / resume fast (slowpath); idle skip off (noidleskip).
//   - TestIssueFastPathEquivalenceSampled: sampled fast path against
//     sampled reference path (with a collector attached).
//   - TestIdleSkipEquivalence: idle skip off; the Results that change are
//     pinned in knownSkipDivergence.
//   - TestOracleFunctional, TestDifferentialPolicyFuzz and
//     TestDifferentialMultiKernelFuzz: every CTA completes and the final
//     memory image is the same under every policy and tuning, for the
//     workloads, the generated kernels and the generated pairs.
//
// A run that more than one row needs is simulated once per test binary
// and shared (oracleInput.memo).

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/telemetry"
	"repro/internal/testsupport"
)

// knownSkipDivergence pins the inputs whose Result changes when idle skip
// is turned off, all under VT or FullSwap. The GPU-wide skip tests only
// SM.Quiescent, not the VT controller's CanSleep veto nor a scheduler
// busyUntil past the next cycle, so it can jump over a cycle in which VT
// activates or swaps a CTA (ROADMAP item 1). The row requires every
// listed input to diverge and every other input to match; the fix
// empties the table.
var knownSkipDivergence = map[string]bool{
	"bfs/fullswap": true, "bfs/fullswap/rf16": true, "bitonic/fullswap": true,
	"bitonic/vt": true, "dwt2d/fullswap": true, "gaussian/fullswap": true,
	"heartwall/fullswap": true, "histogram/fullswap": true,
	"kmeans/fullswap": true, "lud/fullswap": true, "lud/vt": true,
	"nw/fullswap": true, "nw/fullswap/newest": true,
	"nw/fullswap/trigger0.5": true, "nw/vt": true, "nw/vt/newest": true,
	"nw/vt/ports2-nominres": true, "nw/vt/trigger0.5": true,
	"particlefilter/fullswap": true, "pathfinder/fullswap": true,
	"spmv/fullswap": true, "spmv/fullswap/rf2": true,

	"seed4/fullswap": true, "seed7/fullswap": true, "seed8/fullswap": true,
	"seed10/fullswap": true, "seed12/fullswap": true, "seed13/fullswap": true,
	"seed19/fullswap": true, "seed20/fullswap": true, "seed22/fullswap": true,
	"seed22/vt": true, "seed25/fullswap": true,

	"seed100/fullswap": true, "seed102/fullswap": true, "seed103/fullswap": true,
	"seed104/fullswap": true, "seed106/fullswap": true, "seed107/fullswap": true,
	"seed108/fullswap": true, "seed109/fullswap": true, "seed109/vt": true,
}

// interleavingDependent names the workloads whose final memory depends on
// the order in which warps interleave, by construction. The functional row
// requires their memory to differ somewhere across policies and tunings,
// and every other group's to match everywhere.
var interleavingDependent = map[string]string{
	"histogram":  "warps of a CTA update shared bins with plain loads and stores",
	"lud":        "neighbouring CTAs store overlapping output windows; the last writer wins",
	"scatteradd": "each atomic's returned count picks the next counter (only the total is fixed)",
}

// oracleReference is the reference issue path with the full invariant
// recount every 64 cycles.
var oracleReference = Options{DisableIssueFastPath: true, CheckInvariants: true, InvariantInterval: 64}

// oracleSampling is short enough that grid-24 runs take fast-forward spans.
var oracleSampling = SamplingOptions{DetailedCycles: 200, FastForwardCycles: 1500, WarmupCycles: 50}

// oracleInput is one simulation the rows compare variants of. Launches are
// shared by every run of the input; the engine only reads them.
type oracleInput struct {
	name      string // "<group>/<policy>[/<tune>]"
	leaf      string // "<group>[/<tune>]", the name under a policy
	group     string // the workload or generated seed; policies and tunes vary within it
	generated bool
	launches  []*isa.Launch
	init      func(*mem.Backing)
	cfg       config.GPUConfig

	mu   sync.Mutex
	runs map[string]*oracleRun
}

// oracleRun is one memoised run of an input.
type oracleRun struct {
	once  sync.Once
	res   *Result
	ck    *Checkpoint          // captured at the cycle the run was asked for
	col   *telemetry.Collector // attached to the run, if any
	image [sha256.Size]byte    // final memory digest (the baseline only)
	err   error
}

// simulate runs the input from the start, or from ck when non-nil. With
// at > 0 it also returns the first checkpoint captured at or past cycle at.
func (in *oracleInput) simulate(ck *Checkpoint, cfg config.GPUConfig, opts Options, at int64) (*Result, *Checkpoint, error) {
	var got *Checkpoint
	if at > 0 {
		opts.CheckpointEvery = at
		opts.CheckpointGuard = func(int64, core.Stats) bool { return got == nil }
		opts.OnCheckpoint = func(c *Checkpoint) { got = c }
	}
	var res *Result
	var err error
	if ck == nil {
		opts.InitMemory = in.init
		res, err = RunMulti(in.launches, cfg, opts)
	} else {
		res, err = Resume(ck, in.launches, cfg, opts)
	}
	if err == nil && at > 0 && got == nil {
		err = fmt.Errorf("no checkpoint at or past cycle %d of %d", at, res.Cycles)
	}
	return res, got, err
}

// exec is simulate for a run only the calling row needs.
func (in *oracleInput) exec(t *testing.T, ck *Checkpoint, cfg config.GPUConfig, opts Options, at int64) (*Result, *Checkpoint) {
	t.Helper()
	res, got, err := in.simulate(ck, cfg, opts, at)
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	return res, got
}

// memo returns the input's run named key, made by sim once per test
// binary and shared by every row that asks for it.
func (in *oracleInput) memo(t *testing.T, key string, sim func(r *oracleRun) error) *oracleRun {
	t.Helper()
	in.mu.Lock()
	if in.runs == nil {
		in.runs = map[string]*oracleRun{}
	}
	r := in.runs[key]
	if r == nil {
		r = &oracleRun{}
		in.runs[key] = r
	}
	in.mu.Unlock()
	r.once.Do(func() { r.err = sim(r) })
	if r.err != nil {
		t.Fatalf("%s (%s run): %v", in.name, key, r.err)
	}
	return r
}

// baseline is the input's plain run (fast path, GTO, idle skip on) and
// the digest of its final memory.
func (in *oracleInput) baseline(t *testing.T) *oracleRun {
	t.Helper()
	return in.memo(t, "baseline", func(r *oracleRun) (err error) {
		keep := Options{KeepBacking: func(bk *mem.Backing) { r.image = memoryDigest(bk) }}
		r.res, _, err = in.simulate(nil, in.cfg, keep, 0)
		return err
	})
}

// pathRun is the input's run under sched on the fast or the reference
// issue path; the fast run under the input's own scheduler is the
// baseline. A collector rides the LRR fast run and the two-level
// reference run, so it is held to be a pure observer on both paths.
func (in *oracleInput) pathRun(t *testing.T, sched config.SchedulerKind, reference bool) *oracleRun {
	t.Helper()
	if sched == in.cfg.Scheduler && !reference {
		return in.baseline(t)
	}
	return in.memo(t, fmt.Sprintf("%s/reference=%t", sched, reference), func(r *oracleRun) (err error) {
		cfg := in.cfg
		cfg.Scheduler = sched
		var opts Options
		if reference {
			opts = oracleReference
		}
		if (sched == config.SchedLRR && !reference) || (sched == config.SchedTwoLevel && reference) {
			r.col = telemetry.NewCollector(telemetry.Config{Window: 64})
			opts.Telemetry = r.col
		}
		r.res, _, err = in.simulate(nil, cfg, opts, 0)
		return err
	})
}

// skipOffRun is the input's run with idle skip off, and the checkpoint it
// captured at half the baseline's cycles.
func (in *oracleInput) skipOffRun(t *testing.T) *oracleRun {
	t.Helper()
	at := in.baseline(t).res.Cycles / 2
	return in.memo(t, "skipoff", func(r *oracleRun) (err error) {
		r.res, r.ck, err = in.simulate(nil, in.cfg, Options{DisableIdleSkip: true}, at)
		return err
	})
}

func memoryDigest(bk *mem.Backing) [sha256.Size]byte {
	h := sha256.New()
	for _, p := range bk.State().Pages {
		binary.Write(h, binary.LittleEndian, p.Idx)
		binary.Write(h, binary.LittleEndian, p.Words)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// assertEquivalent fails the test unless a and b are the same Result and
// both conserve issue slots.
func assertEquivalent(t *testing.T, in *oracleInput, a, b *Result) {
	t.Helper()
	assertConserved(t, in, a)
	assertConserved(t, in, b)
	if d := resultDiff(a, b); d != "" {
		t.Fatalf("%s: results differ: %s", in.name, d)
	}
}

// assertConserved checks that every scheduler contributed exactly one
// issue-slot sample per cycle, simulated, skipped or extrapolated.
func assertConserved(t *testing.T, in *oracleInput, r *Result) {
	t.Helper()
	s := r.SM
	slots := s.SlotIssued + s.SlotStallMem + s.SlotStallALU + s.SlotStallBar + s.SlotStallStr + s.SlotIdle
	if want := r.Cycles * int64(r.Schedulers) * int64(r.NumSMs); slots != want {
		t.Fatalf("%s: %d slot samples, want %d cycles x %d schedulers x %d SMs = %d",
			in.name, slots, r.Cycles, r.Schedulers, r.NumSMs, want)
	}
}

// resultDiff names the Result fields that differ, or returns "".
func resultDiff(a, b *Result) string {
	if reflect.DeepEqual(a, b) {
		return ""
	}
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	var d []string
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i).Interface(), vb.Field(i).Interface()
		if !reflect.DeepEqual(fa, fb) {
			d = append(d, fmt.Sprintf("%s: %+v != %+v", va.Type().Field(i).Name, fa, fb))
		}
	}
	return strings.Join(d, "; ")
}

var oraclePolicies = []config.Policy{
	config.PolicyBaseline, config.PolicyVT, config.PolicyIdeal, config.PolicyFullSwap,
}

var oracleSchedulers = []config.SchedulerKind{config.SchedGTO, config.SchedLRR, config.SchedTwoLevel}

var swapPolicies = []config.Policy{config.PolicyVT, config.PolicyFullSwap}

// oracleTunes are configurations the presets never select: the VT
// controller's alternatives on a swap-heavy workload, banked register
// files (two banks stall a scheduler past the next cycle often enough to
// veto an SM's sleep), and a scheduler count that is not a power of two.
var oracleTunes = []struct {
	name, workload string
	policies       []config.Policy
	tune           func(*config.GPUConfig)
}{
	{"newest", "nw", swapPolicies, func(c *config.GPUConfig) { c.VT.Activation = config.ActNewest }},
	{"trigger0.5", "nw", swapPolicies, func(c *config.GPUConfig) { c.VT.TriggerFraction = 0.5 }},
	{"ports2-nominres", "nw", swapPolicies, func(c *config.GPUConfig) { c.VT.SwapPorts = 2; c.VT.MinResidencyCycles = 0 }},
	{"rf16", "bfs", oraclePolicies, func(c *config.GPUConfig) { c.RegFileBanks = 16 }},
	{"rf2", "spmv", oraclePolicies, func(c *config.GPUConfig) { c.RegFileBanks = 2 }},
	{"sched3", "hotspot", oraclePolicies, func(c *config.GPUConfig) { c.NumSchedulers = 3 }},
}

// Generated inputs: single kernels seed1..seed25 and kernel pairs
// seed100..seed111.
const (
	generatedSeeds = 25
	pairSeed0      = 100
	pairSeeds      = 12
)

var oracleSet struct {
	once   sync.Once
	inputs []*oracleInput
	err    error
}

// oracleInputs builds the input set once per test binary.
func oracleInputs(t *testing.T) []*oracleInput {
	t.Helper()
	oracleSet.once.Do(func() { oracleSet.inputs, oracleSet.err = buildOracleInputs() })
	if oracleSet.err != nil {
		t.Fatal(oracleSet.err)
	}
	return oracleSet.inputs
}

func buildOracleInputs() ([]*oracleInput, error) {
	var ins []*oracleInput
	add := func(tune, group string, launches []*isa.Launch, init func(*mem.Backing), base config.GPUConfig, policies []config.Policy, generated bool) {
		for _, p := range policies {
			ins = append(ins, &oracleInput{
				name: group + "/" + p.String() + tune, leaf: group + tune, group: group,
				generated: generated, launches: launches, init: init, cfg: base.WithPolicy(p),
			})
		}
	}
	for _, w := range append(kernels.Names(kernels.Headline), kernels.Names(kernels.Extension)...) {
		wl, err := kernels.Build(w, 1)
		if err != nil {
			return nil, err
		}
		wl.Launch.GridDim = isa.Dim1(24)
		launches := []*isa.Launch{wl.Launch}
		add("", w, launches, wl.Init, testsupport.Small(), oraclePolicies, false)
		for _, tn := range oracleTunes {
			if tn.workload == w {
				cfg := testsupport.Small()
				tn.tune(&cfg)
				add("/"+tn.name, w, launches, wl.Init, cfg, tn.policies, false)
			}
		}
	}
	var seeds []int64
	for s := int64(1); s <= generatedSeeds; s++ {
		seeds = append(seeds, s)
	}
	for s := int64(pairSeed0); s < pairSeed0+pairSeeds; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		group := fmt.Sprintf("seed%d", seed)
		launches := []*isa.Launch{randomLaunch(rng, group, 0)}
		if seed >= pairSeed0 {
			launches = append(launches, randomLaunch(rng, group+"b", 1))
		}
		add("", group, launches, initGenerated(len(launches)), testsupport.Small(), oraclePolicies, true)
	}
	names := map[string]bool{}
	for _, in := range ins {
		names[in.name] = true
	}
	for name := range knownSkipDivergence {
		if !names[name] {
			return nil, fmt.Errorf("knownSkipDivergence names %q, which is not an oracle input", name)
		}
	}
	return ins, nil
}

// forEachInput runs f on every input as a parallel subtest. The rows run
// in parallel with each other too, sharing memoised runs.
func forEachInput(t *testing.T, f func(t *testing.T, in *oracleInput)) {
	t.Parallel()
	for _, in := range oracleInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			f(t, in)
		})
	}
}

// byPolicyScheduler runs f on every input under every scheduler, as
// parallel subtests "<policy>/<scheduler>[/<under>]/<leaf>".
func byPolicyScheduler(t *testing.T, under string, f func(t *testing.T, in *oracleInput, sched config.SchedulerKind)) {
	t.Parallel()
	ins := oracleInputs(t)
	for _, p := range oraclePolicies {
		for _, sched := range oracleSchedulers {
			leaves := func(t *testing.T) {
				t.Parallel()
				for _, in := range ins {
					if in.cfg.Policy == p {
						t.Run(in.leaf, func(t *testing.T) {
							t.Parallel()
							f(t, in, sched)
						})
					}
				}
			}
			t.Run(p.String()+"/"+sched.String(), func(t *testing.T) {
				if under == "" {
					leaves(t)
					return
				}
				t.Parallel()
				t.Run(under, leaves)
			})
		}
	}
}

// TestIssueFastPathEquivalence holds the fast path to the reference issue
// path under each scheduler, and each collector's windows to add up to
// the run's swaps. The "par1" level keeps the subtest names of the
// policy × scheduler matrix this row replaced.
func TestIssueFastPathEquivalence(t *testing.T) {
	byPolicyScheduler(t, "par1", func(t *testing.T, in *oracleInput, sched config.SchedulerKind) {
		fast, ref := in.pathRun(t, sched, false), in.pathRun(t, sched, true)
		assertEquivalent(t, in, fast.res, ref.res)
		for _, r := range []*oracleRun{fast, ref} {
			if r.col != nil {
				assertWindowsAddUp(t, in, r.col, r.res)
			}
		}
	})
}

// TestStallAccountingInvariant reports issue-slot conservation by policy
// and scheduler, on the fast and reference runs TestIssueFastPathEquivalence
// compares, and with idle skip off, where no cycle is skipped.
func TestStallAccountingInvariant(t *testing.T) {
	byPolicyScheduler(t, "", func(t *testing.T, in *oracleInput, sched config.SchedulerKind) {
		assertConserved(t, in, in.pathRun(t, sched, false).res)
		assertConserved(t, in, in.pathRun(t, sched, true).res)
	})
	t.Run("no-idle-skip", func(t *testing.T) {
		forEachInput(t, func(t *testing.T, in *oracleInput) {
			assertConserved(t, in, in.skipOffRun(t).res)
		})
	})
}

// assertWindowsAddUp checks a collector's record of run r: windows exist,
// their swap counts add up to the run's, and swaps left spans and a
// latency histogram.
func assertWindowsAddUp(t *testing.T, in *oracleInput, col *telemetry.Collector, r *Result) {
	t.Helper()
	d := col.Dump()
	if len(d.GPU) == 0 {
		t.Fatalf("%s: collector recorded no windows", in.name)
	}
	var out, swapsIn int64
	for _, w := range d.GPU {
		out += w.SwapsOut
		swapsIn += w.SwapsIn
	}
	if out != r.VT.SwapsOut || swapsIn != r.VT.SwapsIn {
		t.Fatalf("%s: windows sum to %d swaps out, %d in; the run made %d, %d",
			in.name, out, swapsIn, r.VT.SwapsOut, r.VT.SwapsIn)
	}
	if r.VT.SwapsOut == 0 {
		return
	}
	swapSpans := 0
	for _, sp := range d.Spans {
		if sp.Kind == telemetry.SpanSwapOut || sp.Kind == telemetry.SpanSwapIn {
			swapSpans++
		}
	}
	if swapSpans == 0 || len(d.SwapLatency) == 0 {
		t.Fatalf("%s: %d swaps but %d swap spans and %d latency buckets",
			in.name, r.VT.SwapsOut, swapSpans, len(d.SwapLatency))
	}
}

// TestCheckpointForkEquivalence forks every input at ½ and ¾ of its run:
// seq captures and resumes on the fast path, slowpath resumes on the
// reference path and forks its capture back onto the fast path, and
// noidleskip forks with idle skip off.
func TestCheckpointForkEquivalence(t *testing.T) {
	forEachInput(t, func(t *testing.T, in *oracleInput) {
		base := in.baseline(t).res
		donor, half := in.exec(t, nil, in.cfg, Options{}, base.Cycles/2)
		t.Run("seq", func(t *testing.T) {
			assertEquivalent(t, in, base, donor) // capturing is a pure observer
			forked, _ := in.exec(t, half, in.cfg, Options{}, 0)
			assertEquivalent(t, in, base, forked)
		})
		t.Run("slowpath", func(t *testing.T) {
			relay, threeQuarters := in.exec(t, half, in.cfg, oracleReference, base.Cycles*3/4)
			assertEquivalent(t, in, base, relay)
			forked, _ := in.exec(t, threeQuarters, in.cfg, Options{}, 0)
			assertEquivalent(t, in, base, forked)
		})
		t.Run("noidleskip", func(t *testing.T) {
			off := in.skipOffRun(t)
			forked, _ := in.exec(t, off.ck, in.cfg, Options{DisableIdleSkip: true}, 0)
			assertEquivalent(t, in, off.res, forked)
		})
	})
}

func TestIssueFastPathEquivalenceSampled(t *testing.T) {
	var spanned atomic.Int64
	t.Cleanup(func() {
		if spanned.Load() == 0 {
			t.Error("no sampled run took a fast-forward span; the row is vacuous")
		}
		t.Logf("%d inputs took fast-forward spans", spanned.Load())
	})
	forEachInput(t, func(t *testing.T, in *oracleInput) {
		fast, _ := in.exec(t, nil, in.cfg, Options{Sampling: oracleSampling}, 0)
		opts := Options{
			Sampling:             oracleSampling,
			DisableIssueFastPath: true,
			Telemetry:            telemetry.NewCollector(telemetry.Config{Window: 64}),
		}
		ref, _ := in.exec(t, nil, in.cfg, opts, 0)
		assertEquivalent(t, in, fast, ref)
		if fast.Sampling.Spans > 0 {
			spanned.Add(1)
		}
	})
}

func TestIdleSkipEquivalence(t *testing.T) {
	var mu sync.Mutex
	var diverged []string
	t.Cleanup(func() {
		sort.Strings(diverged)
		t.Logf("%d inputs diverge with idle skip off: %q", len(diverged), diverged)
	})
	forEachInput(t, func(t *testing.T, in *oracleInput) {
		base, off := in.baseline(t).res, in.skipOffRun(t).res
		assertConserved(t, in, off)
		d := resultDiff(base, off)
		if d != "" {
			mu.Lock()
			diverged = append(diverged, in.name)
			mu.Unlock()
		}
		switch known := knownSkipDivergence[in.name]; {
		case known && d == "":
			t.Errorf("%s: listed in knownSkipDivergence but idle skip no longer changes its result", in.name)
		case !known && d != "":
			t.Errorf("%s: idle skip changes the result: %s", in.name, d)
		}
	})
}

// The functional rows: every CTA completes, and every member of a group
// leaves the same final memory under every policy and tuning.
func TestOracleFunctional(t *testing.T) {
	functionalRow(t, func(in *oracleInput) bool { return !in.generated })
}

func TestDifferentialPolicyFuzz(t *testing.T) {
	functionalRow(t, func(in *oracleInput) bool { return in.generated && len(in.launches) == 1 })
}

func TestDifferentialMultiKernelFuzz(t *testing.T) {
	functionalRow(t, func(in *oracleInput) bool { return in.generated && len(in.launches) > 1 })
}

// functionalRow checks the groups of the inputs keep selects. Where they
// are generated, some VT run must swap, or the generator misses VT's swap
// paths.
func functionalRow(t *testing.T, keep func(*oracleInput) bool) {
	t.Parallel()
	var generatedVT, swapped atomic.Int64
	t.Cleanup(func() {
		if generatedVT.Load() > 0 && swapped.Load() == 0 {
			t.Error("no generated kernel swapped under VT; the generator misses VT's swap paths")
		}
		t.Logf("%d of %d generated VT runs swapped", swapped.Load(), generatedVT.Load())
	})
	groups := map[string][]*oracleInput{}
	var order []string
	for _, in := range oracleInputs(t) {
		if !keep(in) {
			continue
		}
		if groups[in.group] == nil {
			order = append(order, in.group)
		}
		groups[in.group] = append(groups[in.group], in)
	}
	for _, g := range order {
		members := groups[g]
		t.Run(g, func(t *testing.T) {
			t.Parallel()
			first := members[0].baseline(t).image
			same := true
			for _, in := range members {
				b := in.baseline(t)
				ctas := 0
				for _, l := range in.launches {
					ctas += l.GridDim.Size()
				}
				if b.res.SM.CTAsCompleted != int64(ctas) {
					t.Fatalf("%s: completed %d of %d CTAs", in.name, b.res.SM.CTAsCompleted, ctas)
				}
				if b.image != first {
					same = false
					if interleavingDependent[g] == "" {
						t.Fatalf("%s: final memory differs from %s's", in.name, members[0].name)
					}
				}
				if in.generated && in.cfg.Policy == config.PolicyVT {
					generatedVT.Add(1)
					if b.res.VT.SwapsOut > 0 {
						swapped.Add(1)
					}
				}
			}
			if same && interleavingDependent[g] != "" {
				t.Fatalf("%s: listed in interleavingDependent, but every policy leaves the same memory", g)
			}
		})
	}
}

// Generated kernels. The load region of launch k starts at genBase(k), its
// store regions follow; initGenerated fills the load regions so branches
// and loop trip counts depend on data.
func genBase(k int) uint32 { return 0x0400_0000 + uint32(k)*0x0400_0000 }

const genWords = 64 * 128 // covers the largest grid plus the widest load offset

func initGenerated(n int) func(*mem.Backing) {
	return func(bk *mem.Backing) {
		for k := 0; k < n; k++ {
			for i := uint32(0); i < genWords; i++ {
				bk.StoreWord(genBase(k)+4*i, i*2654435761>>7)
			}
		}
	}
}

// randomLaunch draws a CTA shape and a kernel. One-warp CTAs in numbers
// past the scheduling limit keep VT's inactive pool full, so VT swaps.
func randomLaunch(rng *rand.Rand, name string, k int) *isa.Launch {
	var ctas, block int
	switch rng.Intn(3) {
	case 0:
		ctas, block = 20+rng.Intn(9), 32
	case 1:
		ctas, block = 16+rng.Intn(9), 64
	default:
		ctas, block = 4+rng.Intn(20), 32*(1+rng.Intn(4))
	}
	b := genBase(k)
	return &isa.Launch{
		Kernel:   randomKernel(rng, name),
		GridDim:  isa.Dim1(ctas),
		BlockDim: isa.Dim1(block),
		Params:   []uint32{b, b + 0x0100_0000, b + 0x0200_0000},
	}
}

// randomKernel builds a random structurally valid kernel: a prologue
// computing gid, then 2-7 random blocks, then out[gid] = acc. Blocks are
// ALU bursts, global loads and stores, shared-memory exchanges between
// barriers, bounded loops, and the PDOM corner cases: divergent if/else
// (nested too), a divergent exit, a barrier right after reconvergence,
// and a long load in flight under short SFU stalls. Every result is a
// function of gid and the loaded data, so it cannot depend on scheduling.
func randomKernel(rng *rand.Rand, name string) *isa.Kernel {
	b := isa.NewBuilder(name)
	// 128 words cover the largest block size (128 threads), so per-tid
	// shared slots never collide.
	const smemWords = 128
	b.SharedMem(smemWords * 4)

	// r0 = gid, r1 = gid*4, r2 = tid, r3 = tid*4, r4 = acc
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(2, isa.SrNTidX)
	b.IMul(0, 0, 2)
	b.S2R(2, isa.SrTidX)
	b.IAdd(0, 0, 2)
	b.ShlImm(1, 0, 2)
	b.ShlImm(3, 2, 2)
	b.IAdd(4, 0, isa.RZ) // acc = gid

	// Scratch registers r5..r15.
	reg := func() isa.Reg { return isa.Reg(5 + rng.Intn(11)) }
	load := func(d isa.Reg, off int32) {
		b.LdParam(14, 0)
		b.IAdd(15, 14, 1)
		b.LdG(d, 15, off)
	}
	store := func() { // out[gid] = acc
		b.LdParam(14, 2)
		b.IAdd(15, 14, 1)
		b.StG(15, 0, 4)
	}
	// ifElse branches on acc & mask: taken lanes run then, the rest els.
	ifElse := func(label string, then, els func()) {
		thenL, joinL := "then"+label, "join"+label
		b.AndImm(10, 4, uint32(1+rng.Intn(7)))
		b.SetpImm(10, isa.CmpINE, 10, 0)
		b.Bra(10, thenL, joinL)
		els()
		b.Jmp(joinL)
		b.Label(thenL)
		then()
		b.Label(joinL)
	}
	exchange := func() { // shared slot of a rotated tid, read after a barrier
		rot := int32(rng.Intn(smemWords) * 4)
		b.IAddImm(12, 13, rot)
		b.AndImm(12, 12, uint32(smemWords*4-4))
		b.LdS(11, 12, 0)
		b.IAdd(4, 4, 11)
		b.Bar()
	}

	blocks := 2 + rng.Intn(6)
	for i := 0; i < blocks; i++ {
		label := fmt.Sprint(i)
		switch rng.Intn(10) {
		case 0: // ALU burst
			for j := 0; j < 1+rng.Intn(6); j++ {
				d, a := reg(), reg()
				switch rng.Intn(4) {
				case 0:
					b.IAdd(d, a, 4)
				case 1:
					b.IMulImm(d, a, int32(rng.Intn(7)+1))
				case 2:
					b.Xor(d, a, 4)
				default:
					b.IMax(d, a, 4)
				}
				b.IAdd(4, 4, d)
			}
		case 1: // global load + use
			d := reg()
			load(d, int32(rng.Intn(64)*4))
			b.IAdd(4, 4, d)
		case 2: // global store (scratch region, per-thread slot)
			b.LdParam(14, 1)
			b.IAdd(15, 14, 1)
			b.StG(15, 0, 4)
		case 3: // shared memory exchange between barriers
			b.AndImm(13, 3, uint32(smemWords*4-4))
			b.StS(13, 0, 4)
			b.Bar()
			exchange()
		case 4: // divergent if/else
			k := int32(rng.Intn(100))
			ifElse(label, func() { b.IMulImm(4, 4, 3) }, func() { b.IAddImm(4, 4, k) })
		case 5: // nested divergence: an inner if/else on each side
			k := int32(rng.Intn(100))
			ifElse(label,
				func() { ifElse(label+"t", func() { b.IMulImm(4, 4, 5) }, func() { b.IAddImm(4, 4, k) }) },
				func() { ifElse(label+"e", func() { b.Xor(4, 4, 0) }, func() { b.IAddImm(4, 4, 1) }) })
		case 6: // divergent exit: lanes with gid & mask == 0 store and leave
			exitL, contL := "exit"+label, "cont"+label
			b.AndImm(10, 0, uint32(1+rng.Intn(31)))
			b.SetpImm(10, isa.CmpIEQ, 10, 0)
			b.Bra(10, exitL, contL)
			b.Jmp(contL)
			b.Label(exitL)
			store()
			b.Exit()
			b.Label(contL)
		case 7: // barrier right after reconvergence: a divergent shared write, then read
			b.AndImm(13, 3, uint32(smemWords*4-4))
			k := int32(rng.Intn(100))
			ifElse(label, func() { b.StS(13, 0, 4) }, func() { b.IAddImm(4, 4, k) })
			b.Bar()
			exchange()
		case 8: // a long load in flight under short SFU stalls
			load(6, int32(rng.Intn(64)*4))
			b.FSin(7, 4)
			b.FRcp(7, 7)
			b.IAdd(4, 4, 7)
			b.IAdd(4, 4, 6)
		default: // bounded loop
			loopL, doneL := "loop"+label, "done"+label
			trips := int32(1 + rng.Intn(5))
			b.MovImm(9, 0)
			b.Label(loopL)
			b.IAddImm(4, 4, 7)
			if rng.Intn(2) == 0 {
				load(8, int32(rng.Intn(32)*4))
				b.IAdd(4, 4, 8)
			}
			b.IAddImm(9, 9, 1)
			b.SetpImm(10, isa.CmpILT, 9, trips)
			b.Bra(10, loopL, doneL)
			b.Label(doneL)
		}
	}
	store()
	b.Exit()
	return b.MustBuild()
}
