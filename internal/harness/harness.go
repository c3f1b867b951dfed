// Package harness defines the reproduction experiments: one named entry
// per table and figure of the paper's evaluation, each of which runs the
// required simulations (in parallel) and prints the same rows/series the
// paper reports. cmd/vtbench drives it; bench_test.go wraps every entry in
// a testing.B benchmark.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/gpu"
	"repro/internal/kernels"
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
	// kill-point tests; see faultinject.StoreSpec). Nil in normal
	// operation.
	StoreFault *faultinject.StoreHook
	// Checkpoint enables prefix-forked sweeps: jobs that differ only in
	// parameters the simulation consumes late (the VT swap latencies)
	// share their common prefix through a checkpoint instead of each
	// re-simulating it. Results are bit-identical either way; see
	// fork.go.
	Checkpoint bool
	// ForkCycle, when positive, pins the donor's capture to the first
	// simulated cycle at or past this value instead of the adaptive
	// periodic cadence. Zero (the default) lets the donor capture
	// periodically while the fork guard holds and forks from the last
	// guarded checkpoint.
	ForkCycle int64

	// Supervision (see supervisor.go).

	// FailDir, when non-empty, receives one JSON repro bundle per run
	// that fails after the retry ladder, instead of the failure aborting
	// the sweep.
	FailDir string
	// RunTimeout bounds each simulation's wall-clock time; a run past the
	// deadline aborts with a full diagnostic. Zero disables the bound.
	RunTimeout time.Duration
	// CheckInvariants runs every simulation with the gpu conservation-
	// invariant checker enabled (see gpu.Options.CheckInvariants).
	CheckInvariants bool
	// Resume marks this sweep as resuming a journaled one: the sweep's
	// journal must already exist and match (Sweep.OpenJournal), and jobs it
	// recorded as failed are counted in RunMetrics.ResumedFailed when they
	// re-execute.
	Resume bool
	// Inject installs a deterministic fault into the matching run (tests
	// and the CI supervisor drill). Nil in normal operation.
	Inject *faultinject.Spec
	// Sampling runs every simulation in interval/sampled mode (see
	// gpu.SamplingOptions): detailed windows alternate with functional
	// fast-forward spans and the cycle count is extrapolated within the
	// run's reported error bound. Sampled results are approximations, so
	// the sampling configuration is part of the memo/disk-cache
	// fingerprint and of the journal header — a sampled sweep never
	// poisons an exact cache or resumes an exact journal. Incompatible
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
	// store retries abandon their backoff sleeps. Nil never cancels. It
	// also carries the pprof labels of the experiment being run down to
	// the per-job labels RunJobs stacks on them.
	Ctx context.Context

	// span is the current parent span, threaded through the by-value
	// Params copies as execution descends (experiment → job → attempt).
	// sweepSpan is the span the jobs themselves hang under (the
	// experiment, or none): store batches, which carry several jobs'
	// outcomes and finish after those jobs have, are filed there.
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

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the stable name used by cmd/vtbench and bench_test.go.
	ID string
	// Title describes what is reproduced.
	Title string
	// Paper states the paper-side expectation being tested.
	Paper string
	// Run executes the experiment and writes its table(s).
	Run func(p Params, w io.Writer) error
}

var experiments []Experiment

func register(e Experiment) { experiments = append(experiments, e) }

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

// ExperimentRun is what RunExperiments reports about one finished
// experiment: its wall time, the sweep's counters on either side of it,
// and its error, if any.
type ExperimentRun struct {
	Experiment
	Wall          time.Duration
	Before, After RunMetrics
	Err           error
}

// RunExperiments executes todo in order under p, writing tables to w —
// with titled, each under its "### id — title" heading — and reporting
// each experiment to each (nil: nobody) as it finishes. A failing
// experiment does not abort the rest: the failure is reported inline, the
// remaining experiments run, and the joined error is returned at the end
// (the supervisor has already written any repro bundles by then). The
// caller owns the sweep: p.Sweep.Sync is still to come.
func RunExperiments(p Params, w io.Writer, todo []Experiment, titled bool, each func(ExperimentRun)) error {
	s, err := p.sweep()
	if err != nil {
		return err
	}
	var errs []error
	for _, e := range todo {
		if titled {
			fmt.Fprintf(w, "### %s — %s\n", e.ID, e.Title)
			if e.Paper != "" {
				fmt.Fprintf(w, "paper: %s\n\n", e.Paper)
			}
		}
		r := ExperimentRun{Experiment: e, Before: s.Metrics()}
		t0 := time.Now()
		r.Err = RunOne(e, p, w)
		r.Wall, r.After = time.Since(t0), s.Metrics()
		if r.Err != nil {
			fmt.Fprintf(w, "EXPERIMENT FAILED %s: %v\n\n", e.ID, r.Err)
			errs = append(errs, fmt.Errorf("%s: %w", e.ID, r.Err))
		}
		if each != nil {
			each(r)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("harness: %d experiment(s) failed: %w", len(errs), errors.Join(errs...))
	}
	return nil
}

// RunOne executes a single experiment with a pprof "experiment" label
// attached (and carried on in p.Ctx), so CPU profiles segment by
// figure/table as well as by the per-run (workload, variant) labels
// RunJobs adds.
func RunOne(e Experiment, p Params, w io.Writer) error {
	s, err := p.sweep()
	if err != nil {
		return err
	}
	tr := s.Trace
	eid := tr.Begin(p.span, "experiment", e.ID, "")
	p.span = eid
	pprof.Do(p.Context(), pprof.Labels("experiment", e.ID), func(ctx context.Context) {
		p.Ctx = ctx
		err = e.Run(p, w)
	})
	if err != nil {
		tr.SetAttr(eid, "error", "true")
	}
	tr.End(eid)
	return err
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

// One path takes every job from request to report, in a single-process
// sweep and on a fleet alike: forkPlan turns a raw batch into a plan
// (prefix-fork grouping, a no-op unless Params.Checkpoint is set);
// memoRun gives each planned job its identity, counts it, coalesces it
// with identical requests, asks the result store for it, and only on a
// miss hands it to the Executor; the Executor returns the job's Outcome;
// memoRun folds the Outcome's Work into the counters; the ResultSink
// collects the Result.

// Outcome is what running one job produced, as a value: it is returned
// by the Executor, committed by CommitOutcome, accounted by memoRun, and
// carried whole from a fabric worker to its coordinator.
type Outcome struct {
	// Entry is the job's completion-journal line.
	Entry JournalEntry `json:"entry"`
	// Result is nil for a failed job.
	Result *gpu.Result `json:"result,omitempty"`
	// Work is what producing the Result cost — runs executed, cycles
	// simulated, retries, forks, sampled spans — and is zero when the
	// result store served it.
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

// ResultSink receives completions as jobs finish, in completion order.
// Implementations must be safe for concurrent use. Failed jobs are not
// delivered; their errors surface through RunJobs' return value.
type ResultSink interface {
	Collect(j Job, res *gpu.Result)
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

// key identifies a completed run.
type key struct {
	Workload string
	Variant  string
}

// mapSink collects results keyed by (workload, variant).
type mapSink struct {
	mu      sync.Mutex
	results map[key]*gpu.Result
}

func (s *mapSink) Collect(j Job, res *gpu.Result) {
	s.mu.Lock()
	s.results[key{j.Workload, j.Variant}] = res
	s.mu.Unlock()
}

// runMany executes all jobs with bounded parallelism and returns results
// keyed by (workload, variant): RunJobs with a map sink.
func runMany(p Params, jobs []Job) (map[key]*gpu.Result, error) {
	sink := &mapSink{results: make(map[key]*gpu.Result, len(jobs))}
	err := RunJobs(p, jobs, sink)
	return sink.results, err
}

// RunJobs plans a batch with forkPlan, runs every job through memoRun
// under bounded parallelism, and streams successful completions into
// sink. Every job runs even when
// earlier ones fail — the supervisor turns failures into repro bundles
// — and the per-job errors are joined (in job order) into the returned
// error, so a partially failed batch still surfaces as a failure to its
// experiment. A canceled Params.Ctx stops dispatching: jobs not yet
// started fail with the context error while in-flight jobs drain to
// completion. Each run carries pprof labels so CPU profiles attribute
// samples to the (workload, variant) that burned them.
func RunJobs(p Params, jobs []Job, sink ResultSink) error {
	s, err := p.sweep()
	if err != nil {
		return err
	}
	tr, mon := s.Trace, s.Monitor
	plan := tr.Begin(p.span, "plan", "", "")
	jobs = forkPlan(p, jobs)
	tr.End(plan)
	ctx := p.Context()
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, p.workers())
	var wg sync.WaitGroup
	for i, j := range jobs {
		// Take the semaphore slot before spawning, so at most `workers`
		// goroutines exist at a time (a 590-job `-run all` used to park
		// hundreds of them on this channel). The job span starts after
		// the slot is taken, so tracer worker slots mirror real
		// concurrency. A canceled sweep context wins the race: remaining
		// jobs are skipped with the context error while already-started
		// jobs drain. The non-blocking check first gives cancellation
		// strict priority — the two-way select alone would pick randomly
		// when a slot and the cancellation are both ready.
		select {
		case <-ctx.Done():
			errs[i] = fmt.Errorf("%s/%s: %w", j.Workload, j.Variant, ctx.Err())
			continue
		default:
		}
		select {
		case <-ctx.Done():
			errs[i] = fmt.Errorf("%s/%s: %w", j.Workload, j.Variant, ctx.Err())
			continue
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int, j Job) {
			defer wg.Done()
			defer func() { <-sem }()
			var out Outcome
			var err error
			labels := pprof.Labels("workload", j.Workload, "variant", j.Variant)
			pprof.Do(ctx, labels, func(context.Context) {
				jid := tr.BeginJob(p.span, j.Workload, j.Variant)
				mon.beginJob(j)
				defer mon.endJob(j)
				defer tr.EndJob(jid)
				jp := p
				jp.span, jp.sweepSpan = jid, p.span
				out, err = memoRun(jp, j)
			})
			if err != nil {
				errs[i] = fmt.Errorf("%s/%s: %w", j.Workload, j.Variant, err)
				return
			}
			sink.Collect(j, out.Result)
		}(i, j)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// policyJobs builds one job per (workload, policy) pair.
func policyJobs(names []string, policies []config.Policy) []Job {
	var jobs []Job
	for _, n := range names {
		for _, p := range policies {
			p := p
			jobs = append(jobs, Job{
				Workload: n,
				Variant:  p.String(),
				Mutate:   func(c *config.GPUConfig) { c.Policy = p },
			})
		}
	}
	return jobs
}

// suiteNames returns every workload name.
func suiteNames() []string { return kernels.Names() }

// sweepNames is the focused subset used by the parameter sweeps: the five
// scheduling-limited gainers plus one capacity-limited control, chosen to
// keep sweep run time tractable while covering both regimes.
func sweepNames() []string {
	return []string{"bfs", "spmv", "pathfinder", "lud", "nw", "srad"}
}
