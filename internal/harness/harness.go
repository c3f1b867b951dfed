// Package harness defines the reproduction experiments: one named entry
// per table and figure of the paper's evaluation, each a value that
// declares the simulations it needs (Jobs) and reduces their results to
// the rows/series the paper reports (Reduce). RunExperiments runs every
// selected experiment's jobs as one plan — each distinct point simulated
// once, in parallel — then renders the tables in order. cmd/vtbench drives
// it.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/gpu"
	"repro/internal/resultstore"
	"repro/internal/stats"
	"repro/internal/sweepobs"
)

// Params configures a harness run.
type Params struct {
	// Scale multiplies every workload's grid size; 1 is the evaluation
	// size used in EXPERIMENTS.md.
	Scale int
	// Config is the base hardware model (the paper's GTX 480 profile).
	Config config.GPUConfig
	// Workers bounds concurrent simulations; <=0 means GOMAXPROCS.
	Workers int
	// Dilute divides every grid size by this factor (minimum 8 CTAs);
	// used by tests to run experiments quickly. <=1 means full size.
	Dilute int
	// CacheDir, when non-empty, persists memoized run results on disk
	// keyed by the same content fingerprint as the in-memory cache, so
	// repeated invocations (profiling, bench re-runs, CI) skip
	// already-simulated points. See diskcache.go. With Checkpoint set it
	// also persists prefix checkpoints, so forked sweeps resume across
	// processes. The directory is managed by the transactional result
	// store (internal/resultstore): results, checkpoints, and journal
	// lines commit atomically, with end-to-end checksums.
	CacheDir string
	// MirrorDir, when non-empty (requires CacheDir), attaches a replica
	// directory: every store transaction applies to both sides, corrupt
	// primary objects heal from the mirror on read, and
	// resultstore.Repair restores either side bit-identically from the
	// other.
	MirrorDir string
	// StoreFault, when non-nil, intercepts every result-store filesystem
	// operation with an injected storage fault (crash drills and
	// kill-point tests; see resultstore.Hook). Nil in normal operation.
	StoreFault resultstore.Hook
	// Checkpoint enables prefix-forked sweeps: jobs that differ only in
	// parameters the simulation consumes late (the VT swap latencies)
	// share their common prefix through a checkpoint instead of each
	// re-simulating it. Results are bit-identical either way; see
	// fork.go.
	Checkpoint bool

	// Supervision (see supervisor.go).

	// FailDir, when non-empty, receives one JSON repro bundle per run
	// that fails; the failure does not abort the sweep.
	FailDir string
	// RunTimeout bounds each simulation's wall-clock time; a run past the
	// deadline aborts with a full diagnostic. Zero disables the bound.
	RunTimeout time.Duration
	// CheckInvariants runs every simulation with the gpu conservation-
	// invariant checker enabled (see gpu.Options.CheckInvariants).
	CheckInvariants bool
	// Inject installs a deterministic fault into the matching run (tests
	// and the CI supervisor drill). Nil in normal operation.
	Inject *faultinject.Spec
	// Sampling runs every simulation in interval/sampled mode (see
	// gpu.SamplingOptions): detailed windows alternate with functional
	// fast-forward spans and the cycle count is extrapolated within the
	// run's reported error bound. Sampled results are approximations, so
	// the sampling configuration is part of the memo/disk-cache
	// fingerprint and of the journal header — a sampled sweep never
	// poisons an exact cache or appends to an exact journal. Incompatible
	// with Checkpoint and CheckInvariants (gpu.Run rejects the
	// combination); fault-injected runs, which force the invariant
	// checker, execute exactly. The zero value (the default) runs fully
	// detailed.
	Sampling gpu.SamplingOptions

	// Sweep is the state this run accumulates into and reads from: memo,
	// counters, checkpoint cache, the open result store, journal, monitor
	// and tracer (see sweep.go). Every copy of a sweep's Params carries the
	// same handle; running jobs without one is an error. If CacheDir is
	// set it must name the directory the Sweep holds (the first use opens
	// it).
	Sweep *Sweep

	// Executor runs the jobs neither the memo nor the result store can
	// answer; nil supervises them in-process. The sweep fabric
	// (internal/fabric) installs one that leases them to a worker fleet.
	Executor Executor
	// Ctx, when non-nil, cancels the sweep's dispatch loop: on
	// cancellation RunJobs stops starting jobs (the remainder fail with
	// the context error) while in-flight jobs drain to completion, and
	// store retries abandon their backoff sleeps. Nil never cancels. Any
	// pprof labels it carries sit under the per-job labels RunJobs stacks
	// on them.
	Ctx context.Context

	// span is the current parent span, threaded through the by-value
	// Params copies as execution descends (sweep → job → attempt).
	// sweepSpan is the span the jobs themselves hang under (none, for a
	// command's sweep): store batches, which carry several jobs' outcomes
	// and finish after those jobs have, are filed there.
	span      sweepobs.SpanID
	sweepSpan sweepobs.SpanID
}

// DefaultParams returns the evaluation defaults.
func DefaultParams() Params {
	return Params{Scale: 1, Config: config.GTX480()}
}

// maxSweepWorkers bounds the per-batch simulation parallelism: beyond
// it the semaphore buffer and per-job goroutine stacks cost more than
// any plausible machine can use. Scale past one machine comes from the
// sweep fabric, not from wider in-process fan-out.
const maxSweepWorkers = 1024

// ResolveWorkers clamps a requested concurrent-simulation count to
// [1, maxSweepWorkers]; n <= 0 selects GOMAXPROCS. The fabric worker sizes
// its lease slots with the same rule.
func ResolveWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	if n > maxSweepWorkers {
		n = maxSweepWorkers
	}
	return n
}

func (p Params) workers() int { return ResolveWorkers(p.Workers) }

// executor resolves the job executor (default: in-process).
func (p Params) executor() Executor {
	if p.Executor != nil {
		return p.Executor
	}
	return localExecutor{}
}

// injects reports whether p's fault injection targets the run.
func (p Params) injects(workload, variant string) bool {
	return p.Inject != nil && p.Inject.Matches(workload, variant)
}

// sweep returns the Sweep p runs in; running without one is an error.
func (p Params) sweep() (*Sweep, error) {
	if p.Sweep == nil {
		return nil, errors.New("harness: Params carries no Sweep (see NewSweep)")
	}
	return p.Sweep, nil
}

// Context resolves the sweep context (default: never canceled).
func (p Params) Context() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// Span exposes the current parent span to out-of-package Executor
// implementations, so fabric dispatch spans nest under the job span
// exactly like local execute spans do.
func (p Params) Span() sweepobs.SpanID { return p.span }

// Experiment is one reproducible table or figure, as two plain values:
// the simulations it needs and how their results reduce to its table.
// RunExperiments runs every selected experiment's jobs as one plan, then
// reduces and renders each experiment in turn.
type Experiment struct {
	// ID is the stable name cmd/vtbench -run selects.
	ID string
	// Title describes what is reproduced.
	Title string
	// Paper states the paper-side expectation being tested.
	Paper string
	// Jobs declares the simulations the experiment needs under p; nil for
	// a static table, which reads only the configuration and the suite.
	Jobs func(p Params) []Job
	// Reduce turns the results of Jobs(p) — one per job, in job order —
	// into the experiment's table.
	Reduce func(p Params, res []*gpu.Result) *stats.Table
}

// Experiments returns all experiments in registration (paper) order.
func Experiments() []Experiment {
	out := make([]Experiment, len(experiments))
	copy(out, experiments)
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(experiments))
	for _, e := range experiments {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (known: %v)", id, ids)
}

// Output is where RunExperiments renders: every table to W — under its
// "### id — title" heading when Titled — and, when CSVDir is set, into
// that directory as <experiment ID>.csv, one file per experiment.
type Output struct {
	W      io.Writer
	Titled bool
	CSVDir string
}

// ExperimentRun is what RunExperiments reports about one rendered
// experiment: how many runs it requested, its reduced table (nil if a job
// failed), the wall time of its reduce and render step, and its error, if
// any. The simulations belong to the plan, which shares each point among
// every experiment that requested it.
type ExperimentRun struct {
	Experiment
	Requested int
	Table     *stats.Table
	Wall      time.Duration
	Err       error
}

// RunExperiments runs todo under p as one plan and renders each
// experiment, in order, to out, reporting each to each (nil: nobody) once
// it is rendered. The experiments' jobs are concatenated in todo order and
// run through one dispatch loop to one barrier, so a point several
// experiments request is simulated once, under the label of the first job
// that requests it. An experiment with a failed job is reported inline
// while the others still render, and the per-experiment errors are joined
// into the returned error (the supervisor has written any repro bundles by
// then). The caller owns the sweep: p.Sweep.Sync is still to come.
func RunExperiments(p Params, todo []Experiment, out Output, each func(ExperimentRun)) error {
	if _, err := p.sweep(); err != nil {
		return err
	}
	var jobs []Job
	ends := make([]int, len(todo))
	for i, e := range todo {
		if e.Jobs != nil {
			jobs = append(jobs, e.Jobs(p)...)
		}
		ends[i] = len(jobs)
	}
	res, errs := runPlan(p, jobs)
	var failed []error
	lo := 0
	for i, e := range todo {
		hi := ends[i]
		r := ExperimentRun{Experiment: e, Requested: hi - lo}
		t0 := time.Now()
		r.Table, r.Err = render(p, out, e, res[lo:hi], errors.Join(errs[lo:hi]...))
		r.Wall = time.Since(t0)
		if r.Err != nil {
			failed = append(failed, fmt.Errorf("%s: %w", e.ID, r.Err))
		}
		if each != nil {
			each(r)
		}
		lo = hi
	}
	if len(failed) > 0 {
		return fmt.Errorf("harness: %d experiment(s) failed: %w", len(failed), errors.Join(failed...))
	}
	return nil
}

// render is the one step every experiment's output goes through, under
// an "experiment" span: the heading, then either the failure of one of
// its jobs or its reduced table — flagged sampled when the experiment
// simulated under Params.Sampling — printed and mirrored to CSV.
func render(p Params, out Output, e Experiment, res []*gpu.Result, err error) (*stats.Table, error) {
	tr := p.Sweep.Trace
	sid := tr.Begin(p.span, "experiment", e.ID, "")
	defer tr.End(sid)
	if out.Titled {
		fmt.Fprintf(out.W, "### %s — %s\n", e.ID, e.Title)
		if e.Paper != "" {
			fmt.Fprintf(out.W, "paper: %s\n\n", e.Paper)
		}
	}
	if err != nil {
		tr.SetAttr(sid, "error", "true")
		fmt.Fprintf(out.W, "EXPERIMENT FAILED %s: %v\n\n", e.ID, err)
		return nil, err
	}
	t := e.Reduce(p, res)
	if e.Jobs != nil && p.Sampling.Enabled() {
		t.Sampled = p.Sampling.String()
	}
	t.Fprint(out.W)
	if out.CSVDir != "" {
		// A CSV that cannot be written is reported and fails nothing.
		var csv strings.Builder
		t.WriteCSV(&csv)
		if err := os.WriteFile(filepath.Join(out.CSVDir, e.ID+".csv"), []byte(csv.String()), 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "harness: csv: %v\n", err)
		}
	}
	return t, nil
}

// Job is one simulation request: a named workload executed under a
// (possibly mutated) copy of the sweep's base config.
type Job struct {
	// Workload names one suite kernel, or a "+"-joined concurrent-kernel
	// mix ("nw+montecarlo") whose parts run co-scheduled; see
	// kernels.BuildMix.
	Workload string
	Variant  string // distinguishes sweep points; "" for plain runs
	// Mutate derives the job's hardware config from the sweep's base
	// config; nil runs the base config unchanged.
	Mutate func(*config.GPUConfig)
	// PrefixFP, when non-empty, marks the job as part of a prefix-fork
	// group (set by forkPlan; see fork.go).
	PrefixFP string
}

// ConfigFor resolves the job's hardware config against p's base config.
func (j Job) ConfigFor(p Params) config.GPUConfig {
	cfg := p.Config
	if j.Mutate != nil {
		j.Mutate(&cfg)
	}
	return cfg
}

// Outcome is what running one job produced, as a value: it is returned
// by the Executor, committed by CommitOutcome, accounted by resolve, and
// carried whole from a fabric worker to its coordinator.
type Outcome struct {
	// Entry is the job's completion-journal line.
	Entry JournalEntry `json:"entry"`
	// Result is nil for a failed job.
	Result *gpu.Result `json:"result,omitempty"`
	// Work is what producing the Result cost — runs executed, cycles
	// simulated, failures, forks, sampled spans — and is one cache hit
	// when the result store served it.
	Work RunMetrics `json:"work"`
}

// Executor runs one job that has to be simulated: cfg is the job's
// resolved hardware config and fp its content fingerprint. A failed job
// returns its Outcome (a "failed" Entry, the Work spent) beside the
// error. Implementations must be safe for concurrent use; p carries the
// job's span context and must be threaded into any harness calls.
type Executor interface {
	Execute(p Params, j Job, cfg config.GPUConfig, fp string) (Outcome, error)
}

// localExecutor is the default Executor: supervise the run in-process
// (forking it from a prefix checkpoint if the plan says so), then commit
// its outcome write-behind — the sweep's Sync is where it waits.
type localExecutor struct{}

func (localExecutor) Execute(p Params, j Job, cfg config.GPUConfig, fp string) (Outcome, error) {
	var out Outcome
	var err error
	// Injected runs must meet their fault, and sampled sweeps never fork:
	// a checkpoint capture could land mid-span (gpu.Run rejects the
	// combination), and a prefix donor's extrapolated clock would not
	// line up across configs anyway.
	if j.PrefixFP != "" && !p.injects(j.Workload, j.Variant) && !p.Sampling.Enabled() {
		out, err = forkExecute(p, j, cfg, fp)
	} else {
		out, err = supervise(p, j, cfg, fp, nil)
	}
	CommitOutcome(p, fp, out)
	return out, err
}

// RunJobs runs a batch as one plan (see runPlan) and returns one result
// per job, in job order — nil for a job that failed — with the per-job
// errors joined in job order. It is test support, shared by the harness
// and fabric tests; the production path is RunExperiments → runPlan. It
// stays here, not in internal/testsupport, because it needs the
// unexported runPlan and Params.sweep.
func RunJobs(p Params, jobs []Job) ([]*gpu.Result, error) {
	if _, err := p.sweep(); err != nil {
		return nil, err
	}
	res, errs := runPlan(p, jobs)
	return res, errors.Join(errs...)
}

// runPlan is the one path every job takes from request to report, in a
// single-process sweep and on a fleet alike. forkPlan turns the batch into
// a plan (prefix-fork grouping, a no-op unless Params.Checkpoint is set);
// the dispatch loop claims each job's point in plan order (Sweep.claim);
// the first claim of a point keeps its worker slot and hands the job to
// one of the plan's p.workers() slot goroutines, which resolves it — from
// the result store, or through the Executor — and a later claim, in this
// plan or an earlier one, gives its slot straight back and takes the
// owner's Outcome at the barrier. The slot goroutines live as long as the
// plan, so a job does not pay for a goroutine of its own, nor grow its
// stack again. It returns one result and one error per
// job, in job order. Every job runs even when earlier ones fail — the
// supervisor turns failures into repro bundles. A canceled Params.Ctx
// stops dispatching: jobs not yet claimed fail with the context error
// while in-flight jobs drain to completion. Each run carries pprof labels
// so CPU profiles attribute samples to the (workload, variant) that
// burned them.
func runPlan(p Params, jobs []Job) ([]*gpu.Result, []error) {
	s := p.Sweep
	tr := s.Trace
	plan := tr.Begin(p.span, "plan", "", "")
	jobs = forkPlan(p, jobs)
	tr.End(plan)
	ctx := p.Context()
	res := make([]*gpu.Result, len(jobs))
	errs := make([]error, len(jobs))
	claimed := make([]*memoEntry, len(jobs))
	type owned struct {
		j Job
		e *memoEntry
	}
	sem := make(chan struct{}, p.workers())
	work := make(chan owned)
	var wg sync.WaitGroup
	for range min(p.workers(), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range work {
				labels := pprof.Labels("workload", o.j.Workload, "variant", o.j.Variant)
				pprof.Do(ctx, labels, func(context.Context) {
					jid := tr.BeginJob(p.span, o.j.Workload, o.j.Variant)
					defer tr.EndJob(jid)
					jp := p
					jp.span, jp.sweepSpan = jid, p.span
					s.resolve(jp, o.j, o.e)
				})
				<-sem
			}
		}()
	}
	for i, j := range jobs {
		// Take the semaphore slot before claiming, so at most `workers`
		// owners run at a time and the job span, which starts once an owner
		// has its slot, mirrors real concurrency in the tracer's worker
		// slots. A canceled sweep context wins: the check before the select
		// gives it priority over a free slot.
		if errs[i] = ctx.Err(); errs[i] != nil {
			continue
		}
		select {
		case <-ctx.Done():
			errs[i] = ctx.Err()
			continue
		case sem <- struct{}{}:
		}
		e, owner, err := s.claim(p, j)
		claimed[i], errs[i] = e, err
		if !owner {
			<-sem // a duplicate waits for its owner without a slot
			continue
		}
		work <- owned{j, e}
	}
	close(work)
	wg.Wait()
	for i, e := range claimed {
		if e != nil {
			<-e.done
			res[i], errs[i] = e.out.Result, e.err
		}
		if errs[i] != nil {
			errs[i] = fmt.Errorf("%s/%s: %w", jobs[i].Workload, jobs[i].Variant, errs[i])
		}
	}
	return res, errs
}
