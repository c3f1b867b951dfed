package gpu

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/isa"
)

// TestEventWheelEquivalence proves the timing-wheel event queue is
// observation-equivalent to the reference binary heap: for every policy
// and scheduler the complete Result struct — cycles, every stat counter,
// the stall breakdown — is identical with the wheel on and off. The
// workload is the same mixed kernel the issue-fast-path suite uses, so it
// exercises every event source: L1/L2/DRAM round trips, MSHR merges,
// writeback-wheel spills, barrier releases, and (under VT) swap traffic.
func TestEventWheelEquivalence(t *testing.T) {
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
				cfg := config.Small().WithPolicy(p)
				cfg.Scheduler = sched
				const ctas, block = 16, 64
				run := func(disable bool) *Result {
					res, err := Run(mixedLaunch(t, ctas, block), cfg, Options{
						InitMemory:        initVec(ctas * block),
						DisableEventWheel: disable,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				wheel, heap := run(false), run(true)
				if !reflect.DeepEqual(wheel, heap) {
					t.Fatalf("event wheel diverges from reference heap:\nwheel: %+v\nheap: %+v", wheel, heap)
				}
			})
		}
	}
}

// TestEventWheelEquivalenceSwaps drives the VT policies through real
// swap-out/swap-in traffic so the typed restore-done, port-free, and
// min-residency events cross the wheel, and requires identical Results
// wheel vs heap. The swap-count assertion keeps the check non-vacuous.
func TestEventWheelEquivalenceSwaps(t *testing.T) {
	for _, p := range []config.Policy{config.PolicyVT, config.PolicyFullSwap} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := config.Small().WithPolicy(p)
			l := &isa.Launch{
				Kernel:   memLoopKernel(t, 8),
				GridDim:  isa.Dim1(24),
				BlockDim: isa.Dim1(64),
				Params:   []uint32{aBase},
			}
			run := func(disable bool) *Result {
				res, err := Run(l, cfg, Options{DisableEventWheel: disable})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			wheel, heap := run(false), run(true)
			if wheel.VT.SwapsOut == 0 {
				t.Fatalf("%s: workload produced no swaps; equivalence check is vacuous", p)
			}
			if !reflect.DeepEqual(wheel, heap) {
				t.Fatalf("event wheel diverges on swap-heavy run:\nwheel: %+v\nheap: %+v", wheel, heap)
			}
		})
	}
}

// TestEventWheelEquivalenceIdleSkip pins the composition of the wheel
// with idle fast-forward: the engine's next-event query now reads the
// wheel's cached next-due cycle instead of a heap peek, and skipping must
// neither change results nor be changed by the backend.
func TestEventWheelEquivalenceIdleSkip(t *testing.T) {
	cfg := config.Small().WithPolicy(config.PolicyVT)
	l := &isa.Launch{
		Kernel:   memLoopKernel(t, 8),
		GridDim:  isa.Dim1(24),
		BlockDim: isa.Dim1(64),
		Params:   []uint32{aBase},
	}
	run := func(wheelOff, skipOff bool) *Result {
		res, err := Run(l, cfg, Options{
			DisableEventWheel: wheelOff,
			DisableIdleSkip:   skipOff,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(false, false)
	for _, alt := range []*Result{run(false, true), run(true, false), run(true, true)} {
		if !reflect.DeepEqual(base, alt) {
			t.Fatalf("wheel × idle-skip combination diverges:\nbase: %+v\nalt: %+v", base, alt)
		}
	}
}

// TestDeadlineFiresAcrossIdleSkip proves Options.Ctx wall-clock deadlines
// still abort a run whose cycles are mostly fast-forwarded: idle skip
// jumps the cycle counter far past the 512-cycle poll boundary, and the
// poll must trigger on the first simulated cycle at or past it rather
// than requiring an exact hit. An already-expired context must abort both
// backends regardless of how the run's idle spans are skipped.
func TestDeadlineFiresAcrossIdleSkip(t *testing.T) {
	cfg := config.Small().WithPolicy(config.PolicyVT)
	l := &isa.Launch{
		Kernel:   memLoopKernel(t, 64), // long memory-bound run: heavy idle skip
		GridDim:  isa.Dim1(24),
		BlockDim: isa.Dim1(64),
		Params:   []uint32{aBase},
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, disable := range []bool{false, true} {
		_, err := Run(l, cfg, Options{DisableEventWheel: disable, Ctx: ctx})
		var abort *AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("DisableEventWheel=%v: want *AbortError, got %v", disable, err)
		}
		if abort.Diag.Reason != ReasonDeadline {
			t.Fatalf("DisableEventWheel=%v: abort reason = %q, want %q",
				disable, abort.Diag.Reason, ReasonDeadline)
		}
	}
	// Sanity: without a deadline the same run completes, and it is long
	// enough that idle skip must cross poll boundaries rather than land on
	// them (memLoopKernel stalls every warp on DRAM round trips, so the
	// engine fast-forwards spans far larger than the 512-cycle poll).
	res, err := Run(l, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 4*512 {
		t.Fatalf("run finished in %d cycles; too short to cross deadline-poll boundaries", res.Cycles)
	}
}
