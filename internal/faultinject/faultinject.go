// Package faultinject provides deterministic fault injection for the run
// supervisor: a Spec names one simulation (workload/variant) and a cycle
// at which to misbehave, and Hook compiles it into a gpu.Options.FaultHook
// closure. Faults are deterministic by construction — a fresh closure per
// run with its own fired flag, no clocks, no randomness — so every
// supervisor path (panic recovery, invariant abort, wall-clock deadline)
// is exercised reproducibly, including under -race. The supervisor
// attempts a run once, so a fault fires at most once per run.
//
// The seam is wired only by tests, the CI supervisor drill, and the
// explicit vtbench -inject flag; normal sweeps never install a hook.
// Storage faults are not here: the result store declares its own seam
// (resultstore.Hook), and the hook that injects through it is test
// support (internal/testsupport), since no command injects one.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sm"
)

// Kind selects what the injected fault does when it fires.
type Kind int

const (
	// Panic panics in the run loop: the supervisor recovers it into a
	// RunFailure and a repro bundle.
	Panic Kind = iota
	// Corrupt damages an SM's residency bookkeeping so the invariant
	// checker (forced on for injected runs) trips with a violation
	// report.
	Corrupt
	// Hang blocks the run loop for HangFor of wall-clock time so a
	// context deadline expires mid-run.
	Hang
)

// String names the kind as the -inject flag spells it.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Corrupt:
		return "corrupt"
	case Hang:
		return "hang"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Spec is one deterministic fault: which run it targets and when/how it
// fires.
type Spec struct {
	// Workload names the targeted kernel (e.g. "bfs").
	Workload string
	// Variant narrows the target to one run variant (e.g. "vt"); empty
	// matches every variant of the workload.
	Variant string
	// Cycle is the trigger point. Idle-skip makes simulated cycles jump,
	// so the fault fires on the first cycle at or past Cycle.
	Cycle int64
	// Kind selects the failure mode.
	Kind Kind
	// HangFor is how long a Hang fault sleeps.
	HangFor time.Duration
}

// Matches reports whether the spec targets the given run.
func (sp *Spec) Matches(workload, variant string) bool {
	return sp.Workload == workload && (sp.Variant == "" || sp.Variant == variant)
}

// Hook compiles the spec into a fault hook for one run. Each call returns
// a fresh closure with its own fired flag, so the fault triggers exactly
// once per run.
func (sp *Spec) Hook() func(cycle int64, sms []*sm.SM) {
	fired := false
	return func(cycle int64, sms []*sm.SM) {
		if fired || cycle < sp.Cycle {
			return
		}
		fired = true
		switch sp.Kind {
		case Panic:
			panic(fmt.Sprintf("faultinject: injected panic in %s at cycle %d", sp.Workload, cycle))
		case Corrupt:
			// Breaks the residency-accounting invariant: RegsUsed no
			// longer matches the recount over resident CTAs.
			sms[0].RegsUsed += 1 << 20
		case Hang:
			time.Sleep(sp.HangFor)
		}
	}
}

// String renders the spec in Parse's syntax.
func (sp *Spec) String() string {
	target := sp.Workload
	if sp.Variant != "" {
		target += "/" + sp.Variant
	}
	kind := sp.Kind.String()
	if sp.Kind == Hang {
		kind += "=" + sp.HangFor.String()
	}
	return fmt.Sprintf("%s@%d:%s", target, sp.Cycle, kind)
}

// Parse reads a spec from the vtbench -inject syntax:
//
//	workload[/variant]@cycle:kind
//
// where kind is panic, corrupt, or hang=<duration>.
func Parse(s string) (*Spec, error) {
	fail := func() (*Spec, error) {
		return nil, fmt.Errorf("faultinject: bad spec %q (want workload[/variant]@cycle:kind)", s)
	}
	target, rest, ok := strings.Cut(s, "@")
	if !ok || target == "" {
		return fail()
	}
	cycleStr, kindStr, ok := strings.Cut(rest, ":")
	if !ok {
		return fail()
	}
	cycle, err := strconv.ParseInt(cycleStr, 10, 64)
	if err != nil || cycle < 0 {
		return fail()
	}
	sp := &Spec{Cycle: cycle}
	sp.Workload, sp.Variant, _ = strings.Cut(target, "/")
	if sp.Workload == "" {
		return fail()
	}
	switch {
	case kindStr == "panic":
		sp.Kind = Panic
	case kindStr == "corrupt":
		sp.Kind = Corrupt
	case strings.HasPrefix(kindStr, "hang="):
		d, err := time.ParseDuration(strings.TrimPrefix(kindStr, "hang="))
		if err != nil || d <= 0 {
			return fail()
		}
		sp.Kind = Hang
		sp.HangFor = d
	default:
		return nil, fmt.Errorf("faultinject: unknown kind %q (want panic, corrupt, or hang=<duration>)", kindStr)
	}
	return sp, nil
}
