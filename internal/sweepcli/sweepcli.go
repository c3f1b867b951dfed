// Package sweepcli is what cmd/vtbench and cmd/vtsweepd share: the sweep
// flag block and its translation into harness.Params, the completion
// journal open, the -out/-csv set-up, the experiment loop, the -json
// report it fills, and SIGINT/SIGTERM handling. One definition of each, so
// a single-process sweep and a fleet sweep of the same flags plan the same
// jobs and write records that differ only in their numbers.
package sweepcli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/stats"
)

// Flags holds the flags both sweep commands accept.
type Flags struct {
	Run, Sample                  string
	Scale, Dilute                int
	Out, CSVDir, JSONPath        string
	StoreDir, MirrorDir, FailDir string
	Timeout                      time.Duration
	ForkCycle                    int64
	CheckInv, Checkpoint         bool
	Resume, List                 bool
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Run, "run", "all", "experiment ID or \"all\"")
	fs.IntVar(&f.Scale, "scale", 1, "grid size multiplier")
	fs.IntVar(&f.Dilute, "dilute", 1, "divide grid sizes by this factor (quick passes)")
	fs.StringVar(&f.Out, "out", "", "also write the tables to this file")
	fs.StringVar(&f.CSVDir, "csv", "", "also write every table as CSV into this directory")
	fs.StringVar(&f.JSONPath, "json", "", "write the sweep record (per-experiment wall time, simcycles/s, work counters) to this file")
	fs.StringVar(&f.StoreDir, "store", "", "result-store directory: cached results, checkpoints, and the completion journal commit here transactionally")
	fs.StringVar(&f.MirrorDir, "mirror", "", "replicate the result store to this second directory; corrupt objects heal from it on read")
	fs.StringVar(&f.FailDir, "faildir", "failures", "write a JSON repro bundle per failed run into this directory (\"\" disables)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "wall-clock deadline per simulation (0 = none)")
	fs.BoolVar(&f.CheckInv, "checkinvariants", false, "run every simulation with the conservation-invariant checker")
	fs.BoolVar(&f.Checkpoint, "checkpoint", false, "prefix-fork sweep points that differ only in late-consumed parameters (bit-identical results, shared prefix simulated once)")
	fs.Int64Var(&f.ForkCycle, "forkcycle", 0, "with -checkpoint, pin the donor's capture to the first cycle >= N (0 = adaptive periodic capture)")
	fs.StringVar(&f.Sample, "sample", "", "interval/sampled simulation as detailed:fastforward[:warmup] cycles; cycle counts become extrapolations within a reported error bound")
	fs.BoolVar(&f.Resume, "resume", false, "resume an interrupted or partially failed sweep from the -store journal: only points it lacks run")
	fs.BoolVar(&f.List, "list", false, "list experiments and exit")
	return f
}

// PrintList writes the experiment registry, one "id title" line each.
func PrintList(w io.Writer) {
	for _, e := range harness.Experiments() {
		fmt.Fprintf(w, "%-18s %s\n", e.ID, e.Title)
	}
}

// Params validates the flag combination and builds the sweep parameters
// and the journal header they imply.
func (f *Flags) Params() (p harness.Params, meta harness.JournalMeta, err error) {
	so, err := gpu.ParseSampling(f.Sample)
	switch {
	case err != nil:
	case f.MirrorDir != "" && f.StoreDir == "":
		err = errors.New("-mirror needs -store: the mirror replicates a primary store")
	case f.Resume && f.StoreDir == "":
		err = errors.New("-resume needs -store: the journal and the cached results live there")
	// Sampling extrapolates cycle counts; checkpoint forking and the
	// invariant checker both assume exact cycle-accurate execution.
	case so.Enabled() && f.Checkpoint:
		err = errors.New("-sample is incompatible with -checkpoint: forked prefixes must be bit-identical, sampled runs are extrapolations")
	case so.Enabled() && f.CheckInv:
		err = errors.New("-sample is incompatible with -checkinvariants: the checker audits per-cycle conservation, which fast-forward spans skip")
	}
	if err != nil {
		return p, meta, err
	}
	p = harness.DefaultParams()
	p.Scale = f.Scale
	p.Dilute = f.Dilute
	p.CacheDir = f.StoreDir
	p.MirrorDir = f.MirrorDir
	p.FailDir = f.FailDir
	p.RunTimeout = f.Timeout
	p.CheckInvariants = f.CheckInv
	p.Checkpoint = f.Checkpoint
	p.ForkCycle = f.ForkCycle
	p.Resume = f.Resume
	p.Sampling = so
	meta = harness.JournalMeta{Scale: f.Scale, Dilute: f.Dilute, Config: p.Config.Name, Sampling: so.String()}
	return p, meta, nil
}

// OpenOutput returns the writer tables go to — stdout, teed into -out —
// and points the CSV sink at -csv. Call closeOut when done.
func (f *Flags) OpenOutput() (w io.Writer, closeOut func(), err error) {
	if f.CSVDir != "" {
		if err := os.MkdirAll(f.CSVDir, 0o755); err != nil {
			return nil, nil, err
		}
		stats.SetCSVDir(f.CSVDir)
	}
	if f.Out == "" {
		return os.Stdout, func() {}, nil
	}
	file, err := os.Create(f.Out)
	if err != nil {
		return nil, nil, err
	}
	return io.MultiWriter(os.Stdout, file), func() { file.Close() }, nil
}

// OpenJournal opens the completion journal in -store and attaches it to
// p, seeding the mirror's journal header so store transactions have a
// valid journal to append to there and a failed-over mirror resumes on
// its own. Without -store it does nothing. Call closeJournal when done.
func (f *Flags) OpenJournal(prog string, p *harness.Params, meta harness.JournalMeta) (closeJournal func(), err error) {
	if f.StoreDir == "" {
		return func() {}, nil
	}
	jl, err := harness.OpenJournal(filepath.Join(f.StoreDir, harness.JournalFileName), meta, f.Resume)
	if err != nil {
		return nil, err
	}
	if f.MirrorDir != "" {
		if err := harness.EnsureJournalHeader(filepath.Join(f.MirrorDir, harness.JournalFileName), meta); err != nil {
			jl.Close()
			return nil, fmt.Errorf("mirror journal: %v", err)
		}
	}
	p.Journal = jl
	if f.Resume {
		ok, degraded, failed := jl.Summary()
		fmt.Fprintf(os.Stderr, "%s: resuming sweep: journal records %d ok, %d degraded, %d failed\n",
			prog, ok, degraded, failed)
	}
	return func() { jl.Close() }, nil
}

// Signals turns the first SIGINT/SIGTERM into a graceful shutdown and
// remembers which one it was for the exit code.
type Signals struct{ term atomic.Int32 }

// Context returns a context canceled by the first SIGINT or SIGTERM —
// no new jobs dispatch, in-flight work drains, journal and store flush
// through the normal exit path. The handler then detaches, so a second
// signal takes the default disposition and kills the process.
func (s *Signals) Context(prog string) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		if sn, isSys := sig.(syscall.Signal); isSys {
			s.term.Store(int32(sn))
		} else {
			s.term.Store(int32(syscall.SIGINT))
		}
		fmt.Fprintf(os.Stderr, "%s: %v: draining in-flight work, flushing journal/store (signal again to kill)\n", prog, sig)
		signal.Stop(ch)
		cancel()
	}()
	return ctx, func() { signal.Stop(ch); close(ch); cancel() }
}

// ExitCode maps a signal-initiated shutdown to the conventional
// 128+signum (130/143), preserving the sweep's own code otherwise.
func (s *Signals) ExitCode(code int) int {
	if sn := s.term.Load(); sn != 0 {
		return 128 + int(sn)
	}
	return code
}

// ReportSchemaVersion identifies the -json layout. Consumers
// (cmd/benchcheck, bench/vtperf) decode with encoding/json, which ignores
// unknown fields, so adding fields never breaks old baselines; bump this
// only for changes that alter the meaning of existing fields.
//
// v3: with -checkpoint, sim_cycles counts only cycles actually simulated
// — forked runs add their post-fork suffix alone (the skipped prefix is
// reported in prefix_cycles_saved) — so simcycles_per_sec is not
// comparable to a v2 baseline produced without forking.
//
// v4: with -sample, sim_cycles includes extrapolated cycles (the portion
// is reported in extrapolated_cycles) and every per-run cycle count
// carries the error bound reported in max_error_bound — so neither
// sim_cycles nor simcycles_per_sec is comparable to an exact baseline.
//
// v5: adds the result-store counters (store_hits/store_misses/
// store_repairs/store_retries). Purely additive — every v4 field keeps
// its meaning — but cache_hits on a -store sweep now includes hits the
// store healed from a mirror, which a v4 consumer could not distinguish.
const ReportSchemaVersion = 5

// ExpReport is one experiment's row in the -json output.
type ExpReport struct {
	ID              string  `json:"id"`
	WallSeconds     float64 `json:"wall_seconds"`
	RunsRequested   int     `json:"runs_requested"`
	RunsExecuted    int     `json:"runs_executed"`
	CacheHits       int     `json:"cache_hits"`
	SimCycles       int64   `json:"sim_cycles"`
	SimCyclesPerSec float64 `json:"simcycles_per_sec"`
	Error           string  `json:"error,omitempty"`
}

// Report is the top-level -json document of both sweep commands. Workers
// is the -workers setting for vtbench and the fleet size — every worker
// that contacted the coordinator — for vtsweepd.
type Report struct {
	SchemaVersion   int     `json:"schema_version"`
	Date            string  `json:"date"`
	GoVersion       string  `json:"go_version"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Scale           int     `json:"scale"`
	Dilute          int     `json:"dilute"`
	Workers         int     `json:"workers"`
	TotalWallSec    float64 `json:"total_wall_seconds"`
	RunsRequested   int     `json:"runs_requested"`
	RunsExecuted    int     `json:"runs_executed"`
	CacheHits       int     `json:"cache_hits"`
	SimCycles       int64   `json:"sim_cycles"`
	SimCyclesPerSec float64 `json:"simcycles_per_sec"`
	// Supervisor outcome counters (zero on a clean sweep).
	RunsRetried   int `json:"runs_retried,omitempty"`
	RunsDegraded  int `json:"runs_degraded,omitempty"`
	RunsFailed    int `json:"runs_failed,omitempty"`
	ResumedFailed int `json:"resumed_failed,omitempty"`
	// Telemetry aggregates (-telemetry sweeps only).
	TelemetryWindows int64 `json:"telemetry_windows,omitempty"`
	TelemetrySpans   int64 `json:"telemetry_spans,omitempty"`
	// Prefix-fork counters (-checkpoint sweeps only).
	CheckpointsCaptured int   `json:"checkpoints_captured,omitempty"`
	CheckpointHits      int   `json:"checkpoint_hits,omitempty"`
	CheckpointMisses    int   `json:"checkpoint_misses,omitempty"`
	PrefixCyclesSaved   int64 `json:"prefix_cycles_saved,omitempty"`
	// Sampled-simulation counters (-sample sweeps only). Sampling is the
	// "detailed:fastforward:warmup" configuration; extrapolated_cycles is
	// the portion of sim_cycles that was extrapolated rather than
	// simulated; max_error_bound is the largest per-run reported bound on
	// the fractional cycle error.
	Sampling           string  `json:"sampling,omitempty"`
	SampledRuns        int     `json:"sampled_runs,omitempty"`
	SampledSpans       int64   `json:"sampled_spans,omitempty"`
	ExtrapolatedCycles int64   `json:"extrapolated_cycles,omitempty"`
	FunctionalInstrs   int64   `json:"functional_instrs,omitempty"`
	MaxErrorBound      float64 `json:"max_error_bound,omitempty"`
	// Result-store counters (-store sweeps only; see internal/resultstore).
	// store_hits/store_misses count verified reads; store_repairs counts
	// objects healed bit-identically from the mirror; store_retries counts
	// transient store I/O errors absorbed by the bounded retry.
	StoreHits    int `json:"store_hits,omitempty"`
	StoreMisses  int `json:"store_misses,omitempty"`
	StoreRepairs int `json:"store_repairs,omitempty"`
	StoreRetries int `json:"store_retries,omitempty"`

	Experiments []ExpReport `json:"experiments"`
}

// RunExperiments runs the -run selection under p, writing tables to w,
// and returns the sweep's record and exit code: 3 when an experiment
// completed with failed runs (the supervisor already bundled them; the
// sweep keeps going), 0 otherwise. The wall clock stops at the durability
// barrier: run outcomes commit write-behind, so nothing the caller does
// next — the summary, -json, the journal close, any exit code — happens
// before the store holds, on both sides, every outcome reported here.
func (f *Flags) RunExperiments(prog string, p harness.Params, w io.Writer) (*Report, int, error) {
	todo := harness.Experiments()
	if f.Run != "all" {
		e, err := harness.Get(f.Run)
		if err != nil {
			return nil, 0, err
		}
		todo = []harness.Experiment{e}
	}
	rep := &Report{
		SchemaVersion: ReportSchemaVersion,
		Date:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Scale:         f.Scale,
		Dilute:        f.Dilute,
		Workers:       p.Workers,
	}
	exitCode := 0
	start := time.Now()
	for _, e := range todo {
		if f.Run == "all" {
			fmt.Fprintf(w, "### %s — %s\n", e.ID, e.Title)
			if e.Paper != "" {
				fmt.Fprintf(w, "paper: %s\n\n", e.Paper)
			}
		}
		before := harness.Metrics()
		t0 := time.Now()
		expErr := harness.RunOne(e, p, w)
		wall := time.Since(t0).Seconds()
		m := harness.Metrics()
		r := ExpReport{
			ID:            e.ID,
			WallSeconds:   wall,
			RunsRequested: m.Requests - before.Requests,
			RunsExecuted:  m.Executed - before.Executed,
			CacheHits:     m.CacheHits - before.CacheHits,
			SimCycles:     m.SimCycles - before.SimCycles,
		}
		if wall > 0 {
			r.SimCyclesPerSec = float64(r.SimCycles) / wall
		}
		if expErr != nil {
			r.Error = expErr.Error()
			exitCode = 3
			fmt.Fprintf(os.Stderr, "%s: %s failed: %v\n", prog, e.ID, expErr)
			fmt.Fprintf(w, "EXPERIMENT FAILED %s: %v\n\n", e.ID, expErr)
		}
		rep.Experiments = append(rep.Experiments, r)
	}
	harness.SyncStores()
	rep.TotalWallSec = time.Since(start).Seconds()
	rep.Fill(harness.Metrics(), p.Sampling.String())
	fmt.Fprintf(w, "total wall time: %s\n", time.Duration(rep.TotalWallSec*float64(time.Second)).Round(time.Millisecond))
	return rep, exitCode, nil
}

// Fill copies the sweep totals out of the harness work counters.
func (r *Report) Fill(m harness.RunMetrics, sampling string) {
	r.RunsRequested = m.Requests
	r.RunsExecuted = m.Executed
	r.CacheHits = m.CacheHits
	r.SimCycles = m.SimCycles
	if r.TotalWallSec > 0 {
		r.SimCyclesPerSec = float64(m.SimCycles) / r.TotalWallSec
	}
	r.RunsRetried = m.Retries
	r.RunsDegraded = m.Degraded
	r.RunsFailed = m.Failures
	r.ResumedFailed = m.ResumedFailed
	r.TelemetryWindows = m.TelemetryWindows
	r.TelemetrySpans = m.TelemetrySpans
	r.CheckpointsCaptured = m.CheckpointsCaptured
	r.CheckpointHits = m.CheckpointHits
	r.CheckpointMisses = m.CheckpointMisses
	r.PrefixCyclesSaved = m.PrefixCyclesSaved
	r.Sampling = sampling
	r.SampledRuns = m.SampledRuns
	r.SampledSpans = m.SampledSpans
	r.ExtrapolatedCycles = m.ExtrapolatedCycles
	r.FunctionalInstrs = m.FunctionalInstrs
	r.MaxErrorBound = m.MaxErrorBound
	r.StoreHits = m.StoreHits
	r.StoreMisses = m.StoreMisses
	r.StoreRepairs = m.StoreRepairs
	r.StoreRetries = m.StoreRetries
}

// WriteJSON writes the record to -json, if set.
func (f *Flags) WriteJSON(prog string, r *Report) error {
	if f.JSONPath == "" {
		return nil
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("json: %v", err)
	}
	if err := os.WriteFile(f.JSONPath, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("json: %v", err)
	}
	fmt.Fprintf(os.Stderr, "%s: wrote %s\n", prog, f.JSONPath)
	return nil
}
