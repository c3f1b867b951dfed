package harness

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
)

// eagerRun runs j the way a sweep did before it kept builds: a fresh
// kernels.BuildMix, its init run straight into the run's backing, the
// grids diluted in place.
func eagerRun(t *testing.T, p Params, j Job) *gpu.Result {
	t.Helper()
	launches, init, err := kernels.BuildMix(j.Workload, p.Scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range launches {
		l.GridDim = isa.Dim1(max(l.GridDim.Size()/p.Dilute, 8))
	}
	res, err := gpu.RunMulti(launches, j.ConfigFor(p), gpu.Options{InitMemory: init})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSweepBuildsEachWorkloadOnce: a sweep whose jobs repeat workloads —
// across policies, across batches, a mix among them — builds each
// distinct (workload, scale) once, and every run from the shared build
// equals a run built eagerly on its own.
func TestSweepBuildsEachWorkloadOnce(t *testing.T) {
	p := inSweep(t, Params{Scale: 1, Config: config.Small(), Dilute: 60, Workers: 2})
	names := []string{"bfs", "scatteradd", "nw+montecarlo"}
	first := policyJobs(names, []config.Policy{config.PolicyBaseline, config.PolicyVT})
	second := policyJobs(names, []config.Policy{config.PolicyIdeal})
	results := map[key]*gpu.Result{}
	for _, jobs := range [][]Job{first, second} {
		res, err := runMany(p, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for k, r := range res {
			results[k] = r
		}
	}
	if got := len(p.Sweep.builds); got != len(names) {
		t.Errorf("%d runs built %d workloads, want one build per distinct workload (%d)",
			p.Sweep.Metrics().Executed, got, len(names))
	}
	for _, j := range append(first, second...) {
		if !reflect.DeepEqual(results[key{j.Workload, j.Variant}], eagerRun(t, p, j)) {
			t.Errorf("%s/%s from the shared build differs from an eager build", j.Workload, j.Variant)
		}
	}
}

// TestSharedBuildConcurrentSlots: slots that run one workload at the same
// time share its kernel and image while each stores into its own copy —
// bfs writes the levels its init laid out, scatteradd the counters —
// race-free (run under -race), with the results of a run built alone.
func TestSharedBuildConcurrentSlots(t *testing.T) {
	policies := []config.Policy{config.PolicyBaseline, config.PolicyVT, config.PolicyIdeal, config.PolicyFullSwap}
	p := inSweep(t, Params{Scale: 1, Config: config.Small(), Dilute: 60, Workers: len(policies)})
	for _, w := range []string{"bfs", "scatteradd"} {
		jobs := policyJobs([]string{w}, policies)
		res, err := runMany(p, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if !reflect.DeepEqual(res[key{j.Workload, j.Variant}], eagerRun(t, p, j)) {
				t.Errorf("%s/%s run beside its siblings differs from a run built alone", j.Workload, j.Variant)
			}
		}
	}
}

// TestSharedBuildRetrySeesPristineImage: a run that stored into its memory
// and then failed leaves the sweep's image untouched. A panic-once
// safe-mode retry starts from the pristine image, and so does a later run
// of the same workload after an injected corruption failed twice: both
// equal a fresh sweep's results. scatteradd's counters change from its
// first cycles on, and each atomic's return value steers the next
// address, so an image that kept a failed run's stores would show.
func TestSharedBuildRetrySeesPristineImage(t *testing.T) {
	jobs := policyJobs([]string{"scatteradd"}, []config.Policy{config.PolicyBaseline, config.PolicyVT})
	base := Params{Scale: 1, Config: config.Small(), Dilute: 60, Workers: 1}
	clean, err := runMany(inSweep(t, base), jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Workers: 1 runs the jobs in order, so the faulted run goes first.
	for _, tc := range []struct {
		kind faultinject.Kind
		ok   int // jobs that succeed
	}{{faultinject.PanicOnce, 2}, {faultinject.Corrupt, 1}} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			p := inSweep(t, base)
			p.Inject = &faultinject.Spec{Workload: "scatteradd", Variant: "baseline", Cycle: 2000, Kind: tc.kind}
			got, err := runMany(p, jobs)
			var fe *FailedRunError
			if failed := errors.As(err, &fe); failed != (tc.ok < len(jobs)) || len(got) != tc.ok {
				t.Fatalf("%d results, err %v; want %d results", len(got), err, tc.ok)
			}
			if m := p.Sweep.Metrics(); m.Retries != 1 || len(p.Sweep.builds) != 1 {
				t.Fatalf("%d retries over %d builds, want one retry from one build", m.Retries, len(p.Sweep.builds))
			}
			for k, r := range got {
				if !reflect.DeepEqual(r, clean[k]) {
					t.Errorf("%s/%s after an injected %s differs from a fresh sweep's", k.Workload, k.Variant, tc.kind)
				}
			}
		})
	}
}

// TestConcurrentBuildsMatchSerial: a workload is a value. Every registered
// workload and every fig-multikernel job's mix, built from parallel
// goroutines (run under -race), launches and initialises exactly what a
// serial build does: no build reads another's arena or writes a kernel.
func TestConcurrentBuildsMatchSerial(t *testing.T) {
	mk, err := Get("fig-multikernel")
	if err != nil {
		t.Fatal(err)
	}
	names := append(kernels.Names(kernels.Headline), kernels.Names(kernels.Extension)...)
	for _, j := range mk.Jobs(Params{}) {
		names = append(names, j.Workload)
	}
	type build struct {
		launches []*isa.Launch
		image    mem.BackingState
		err      error
	}
	buildOne := func(name string) build {
		launches, init, err := kernels.BuildMix(name, 1)
		if err != nil {
			return build{err: err}
		}
		bk := mem.NewBacking()
		init(bk)
		return build{launches: launches, image: bk.State()}
	}
	serial := make([]build, len(names))
	for i, n := range names {
		if serial[i] = buildOne(n); serial[i].err != nil {
			t.Fatal(serial[i].err)
		}
	}
	parallel := make([]build, len(names))
	var wg sync.WaitGroup
	for i, n := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parallel[i] = buildOne(n)
		}()
	}
	wg.Wait()
	for i, n := range names {
		s, p := serial[i], parallel[i]
		switch {
		case p.err != nil:
			t.Errorf("%s: parallel build: %v", n, p.err)
		case !reflect.DeepEqual(p.launches, s.launches):
			t.Errorf("%s: parallel build's launches differ from the serial build's", n)
		case !reflect.DeepEqual(p.image, s.image):
			t.Errorf("%s: parallel build's initialised backing differs from the serial build's", n)
		}
	}
}
