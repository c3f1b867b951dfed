package faultinject

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sm"
)

// TestParse: every kind round-trips through String, with and without a
// variant, and malformed specs are rejected.
func TestParse(t *testing.T) {
	for _, sp := range []*Spec{
		{Workload: "bfs", Variant: "vt", Cycle: 5000, Kind: Panic},
		{Workload: "bfs", Cycle: 0, Kind: PanicOnce},
		{Workload: "nw+montecarlo", Variant: "lat=64", Cycle: 12, Kind: Corrupt},
		{Workload: "nw", Cycle: 1, Kind: Hang, HangFor: 200 * time.Millisecond},
	} {
		s := sp.String()
		got, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if !reflect.DeepEqual(got, sp) {
			t.Errorf("Parse(%q) = %+v, want %+v", s, got, sp)
		}
	}
	if s := (&Spec{Workload: "bfs", Variant: "vt", Cycle: 5000, Kind: Panic}).String(); s != "bfs/vt@5000:panic" {
		t.Errorf("String() = %q", s)
	}

	for _, bad := range []string{
		"", "bfs", "bfs:panic", // no @
		"@5:panic", "/vt@5:panic", // empty workload
		"bfs@-1:panic", "bfs@x:panic", // no non-negative cycle
		"bfs@5",                                              // missing :
		"bfs@5:hang=0", "bfs@5:hang=-1s", "bfs@5:hang=bogus", // no positive duration
		"bfs@5:explode", "bfs@5:Panic", "bfs@5:panic-twice", // unknown kind
	} {
		if sp, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec: %+v", bad, sp)
		}
	}
	if _, err := Parse("bfs@5:explode"); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("an unknown kind is not named as one: %v", err)
	}
}

// TestMatches: a spec without a variant matches every variant of its
// workload, one with a variant only that variant.
func TestMatches(t *testing.T) {
	all := &Spec{Workload: "bfs"}
	one := &Spec{Workload: "bfs", Variant: "vt"}
	for _, tc := range []struct {
		sp                *Spec
		workload, variant string
		want              bool
	}{
		{all, "bfs", "vt", true},
		{all, "bfs", "", true},
		{all, "nw", "vt", false},
		{all, "bfs+nw", "vt", false},
		{one, "bfs", "vt", true},
		{one, "bfs", "baseline", false},
		{one, "bfs", "", false},
		{one, "nw", "vt", false},
	} {
		if got := tc.sp.Matches(tc.workload, tc.variant); got != tc.want {
			t.Errorf("%s matches %s/%s = %v, want %v", tc.sp, tc.workload, tc.variant, got, tc.want)
		}
	}
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestHookFiresOnceAtOrPastCycle: idle-skip makes cycles jump, so a hook
// fires on the first cycle at or past its target — never before, never
// again — and corrupt adds 1<<20 to the first SM's RegsUsed.
func TestHookFiresOnceAtOrPastCycle(t *testing.T) {
	sms := []*sm.SM{{RegsUsed: 7}, {RegsUsed: 7}}
	hook := (&Spec{Workload: "bfs", Cycle: 100, Kind: Corrupt}).Hook(0)
	for _, c := range []int64{0, 50, 99} {
		hook(c, sms)
	}
	if sms[0].RegsUsed != 7 {
		t.Fatalf("fired before its cycle: RegsUsed = %d", sms[0].RegsUsed)
	}
	hook(130, sms) // skipped past 100
	if want := 7 + 1<<20; sms[0].RegsUsed != want || sms[1].RegsUsed != 7 {
		t.Fatalf("after the jump RegsUsed = %d, %d, want %d, 7", sms[0].RegsUsed, sms[1].RegsUsed, want)
	}
	hook(131, sms)
	hook(1000, sms)
	if want := 7 + 1<<20; sms[0].RegsUsed != want {
		t.Fatalf("fired again: RegsUsed = %d, want %d", sms[0].RegsUsed, want)
	}

	// Every Hook call is a fresh closure with its own fired flag.
	(&Spec{Workload: "bfs", Cycle: 100, Kind: Corrupt}).Hook(0)(100, sms)
	if want := 7 + 2<<20; sms[0].RegsUsed != want {
		t.Fatalf("a second hook did not fire: RegsUsed = %d, want %d", sms[0].RegsUsed, want)
	}
}

// TestHookPanicsByAttempt: panic fails both attempts, panic-once only the
// first (attempt 0), so the safe-mode retry succeeds.
func TestHookPanicsByAttempt(t *testing.T) {
	for _, tc := range []struct {
		kind  Kind
		first bool // attempt 0 panics
		retry bool // attempt 1 panics
	}{{Panic, true, true}, {PanicOnce, true, false}, {Corrupt, false, false}} {
		sp := &Spec{Workload: "bfs", Cycle: 10, Kind: tc.kind}
		sms := []*sm.SM{{}}
		for attempt, want := range []bool{tc.first, tc.retry} {
			hook := sp.Hook(attempt)
			if panics(func() { hook(9, sms) }) {
				t.Errorf("%s attempt %d panicked before its cycle", tc.kind, attempt)
			}
			if got := panics(func() { hook(10, sms) }); got != want {
				t.Errorf("%s attempt %d panicked = %v, want %v", tc.kind, attempt, got, want)
			}
		}
	}
}
