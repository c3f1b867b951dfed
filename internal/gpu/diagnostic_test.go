package gpu

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/sm"
	"repro/internal/testsupport"
)

// barrierDeadlockLaunch builds a 2-warp CTA that genuinely deadlocks
// under the model's release-on-arrival barrier semantics: warp 0 executes
// two barriers while warp 1 executes one and then a long dependent ALU
// chain before exiting. Both warps meet at the first barrier; warp 0
// parks at its second barrier immediately after the release (Arrived=1)
// while warp 1 is still deep in the chain; when warp 1 finally exits, no
// arrival event re-checks the release condition, so warp 0 stays parked
// forever.
func barrierDeadlockLaunch(t testing.TB) *isa.Launch {
	b := isa.NewBuilder("bardead")
	b.S2R(1, isa.SrTidX)
	b.ShrImm(2, 1, 5)              // warp id (warp size 32)
	b.SetpImm(3, isa.CmpINE, 2, 0) // p3 = (wid != 0)
	b.Bra(3, "slow", "done")
	b.Bar() // warp 0: first barrier
	b.Bar() // warp 0: second barrier — parks forever
	b.Jmp("done")
	b.Label("slow")
	b.Bar() // warp 1: first barrier
	// Dependent ALU chain: keeps warp 1 busy long past warp 0's arrival
	// at the second barrier, whatever the schedulers interleave.
	b.MovImm(4, 0)
	for i := 0; i < 8; i++ {
		b.IAddImm(4, 4, 1)
	}
	b.Label("done")
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &isa.Launch{Kernel: k, GridDim: isa.Dim1(1), BlockDim: isa.Dim1(64)}
}

func TestBarrierDeadlockDiagnostic(t *testing.T) {
	cfg := testsupport.Small()
	res, err := Run(barrierDeadlockLaunch(t), cfg, Options{})
	if err == nil {
		t.Fatal("expected a deadlock, got a completed run")
	}
	if res != nil {
		t.Fatal("aborted run returned a result")
	}
	if !strings.Contains(err.Error(), "deadlocked") {
		t.Fatalf("legacy message text lost: %v", err)
	}

	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an *AbortError: %v", err)
	}
	d := DiagnosticOf(err)
	if d == nil || d != ae.Diag {
		t.Fatal("DiagnosticOf did not extract the attached diagnostic")
	}
	if d.Reason != ReasonDeadlock {
		t.Fatalf("Reason = %q, want %q", d.Reason, ReasonDeadlock)
	}
	if d.Cycle <= 0 {
		t.Fatalf("Cycle = %d, want > 0", d.Cycle)
	}
	if d.Kernel != "bardead" {
		t.Fatalf("Kernel = %q", d.Kernel)
	}
	if d.EventsPending != 0 {
		t.Fatalf("a deadlock must have no pending events, got %d", d.EventsPending)
	}
	if d.GridRemaining != 0 {
		t.Fatalf("GridRemaining = %d, want 0 (the single CTA dispatched)", d.GridRemaining)
	}
	if len(d.SMs) != cfg.NumSMs {
		t.Fatalf("got %d SM snapshots, want %d", len(d.SMs), cfg.NumSMs)
	}

	// Exactly one SM holds the stuck CTA: one warp barrier-parked, one
	// exited, barrier occupancy 1 of 2.
	var stuck *sm.Diag
	for i := range d.SMs {
		if d.SMs[i].ResidentCTAs > 0 {
			if stuck != nil {
				t.Fatal("CTA resident on more than one SM")
			}
			stuck = &d.SMs[i]
		}
	}
	if stuck == nil {
		t.Fatal("no SM snapshot holds the stuck CTA")
	}
	if stuck.BlockedBarrier != 1 || stuck.Ready != 0 || stuck.BlockedMem != 0 {
		t.Fatalf("issue classes = ready %d / mem %d / barrier %d, want 0/0/1",
			stuck.Ready, stuck.BlockedMem, stuck.BlockedBarrier)
	}
	want := []sm.BarrierDiag{{CTA: 0, Arrived: 1, Finished: 1, Warps: 2}}
	if !reflect.DeepEqual(stuck.Barriers, want) {
		t.Fatalf("Barriers = %+v, want %+v", stuck.Barriers, want)
	}
	if stuck.LSUOps != 0 || stuck.OutstandingLoads != 0 || stuck.WheelPending != 0 {
		t.Fatalf("deadlocked SM shows in-flight work: %+v", *stuck)
	}
	parked := 0
	for _, s := range d.SMs {
		parked += s.BlockedBarrier
	}
	if parked != 1 {
		t.Fatalf("%d barrier-parked warps across SMs, want 1", parked)
	}
}

func TestMaxCyclesDiagnostic(t *testing.T) {
	cfg := testsupport.Small()
	cfg.MaxCycles = 50
	n := 8 * 64
	_, err := Run(vecAddLaunch(t, 8, 64), cfg, Options{InitMemory: initVec(n)})
	if err == nil {
		t.Fatal("expected a max-cycles abort")
	}
	if !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("legacy message text lost: %v", err)
	}
	d := DiagnosticOf(err)
	if d == nil || d.Reason != ReasonMaxCycles {
		t.Fatalf("diagnostic = %+v, want reason %q", d, ReasonMaxCycles)
	}
	if len(d.SMs) != cfg.NumSMs {
		t.Fatalf("got %d SM snapshots, want %d", len(d.SMs), cfg.NumSMs)
	}
}

func TestDeadlineDiagnostic(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the run starts: first poll aborts
	n := 8 * 64
	_, err := Run(vecAddLaunch(t, 8, 64), testsupport.Small(), Options{
		InitMemory: initVec(n),
		Ctx:        ctx,
	})
	d := DiagnosticOf(err)
	if d == nil || d.Reason != ReasonDeadline {
		t.Fatalf("err = %v, want a deadline abort diagnostic", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause not preserved: %v", err)
	}
}

// TestCheckInvariantsClean proves the checker is a pure observer: a run
// with invariants on must pass and produce a bit-identical Result.
func TestCheckInvariantsClean(t *testing.T) {
	cfg := testsupport.Small()
	cfg.Policy = config.PolicyVT // exercise swap bookkeeping too
	n := 16 * 64
	launch := func() *isa.Launch { return vecAddLaunch(t, 16, 64) }
	plain, err := Run(launch(), cfg, Options{InitMemory: initVec(n)})
	if err != nil {
		t.Fatal(err)
	}
	checked, err := Run(launch(), cfg, Options{
		InitMemory:        initVec(n),
		CheckInvariants:   true,
		InvariantInterval: 64, // check often to catch transient breakage
	})
	if err != nil {
		t.Fatalf("invariant checker tripped on a healthy run: %v", err)
	}
	if !reflect.DeepEqual(plain, checked) {
		t.Fatal("CheckInvariants perturbed the simulation result")
	}
}

// TestCheckInvariantsCatchesCorruption corrupts SM bookkeeping mid-run
// through the fault hook and expects a cycle-stamped violation report.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	const at = 100
	n := 8 * 64
	fired := false
	_, err := Run(vecAddLaunch(t, 8, 64), testsupport.Small(), Options{
		InitMemory:        initVec(n),
		CheckInvariants:   true,
		InvariantInterval: 64,
		FaultHook: func(cycle int64, sms []*sm.SM) {
			if fired || cycle < at {
				return
			}
			fired = true
			sms[0].RegsUsed += 12345
		},
	})
	if err == nil {
		t.Fatal("expected an invariant violation")
	}
	d := DiagnosticOf(err)
	if d == nil || d.Reason != ReasonInvariant {
		t.Fatalf("err = %v, want an invariant abort", err)
	}
	if d.Cycle < at {
		t.Fatalf("violation stamped at cycle %d, before the corruption at %d", d.Cycle, at)
	}
	if !strings.Contains(d.Violation, "RegsUsed") {
		t.Fatalf("violation report does not name the corrupted counter: %q", d.Violation)
	}
	if !strings.Contains(d.Violation, "SM0") {
		t.Fatalf("violation report does not name the SM: %q", d.Violation)
	}
}

func TestRunRejectsNegativeMaxCycles(t *testing.T) {
	cfg := testsupport.Small()
	cfg.MaxCycles = -1
	_, err := Run(vecAddLaunch(t, 1, 32), cfg, Options{})
	if err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Fatalf("err = %v, want a MaxCycles validation error", err)
	}
}

// TestDeadlineFiresAcrossIdleSkip proves Options.Ctx wall-clock deadlines
// still abort a run whose cycles are mostly fast-forwarded: idle skip
// jumps the cycle counter far past the 512-cycle poll boundary, and the
// poll must trigger on the first simulated cycle at or past it rather
// than requiring an exact hit. An already-expired context must abort the
// run regardless of how its idle spans are skipped.
func TestDeadlineFiresAcrossIdleSkip(t *testing.T) {
	cfg := testsupport.Small().WithPolicy(config.PolicyVT)
	l := &isa.Launch{
		Kernel:   memLoopKernel(t, 64), // long memory-bound run: heavy idle skip
		GridDim:  isa.Dim1(24),
		BlockDim: isa.Dim1(64),
		Params:   []uint32{aBase},
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Run(l, cfg, Options{Ctx: ctx})
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("want *AbortError, got %v", err)
	}
	if abort.Diag.Reason != ReasonDeadline {
		t.Fatalf("abort reason = %q, want %q", abort.Diag.Reason, ReasonDeadline)
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
