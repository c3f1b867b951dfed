// Package sweepcli is what cmd/vtbench and cmd/vtsweepd share: the sweep
// flag block and its translation into harness.Params bound to a new
// harness.Sweep, the -out/-csv set-up, the -json report around
// harness.RunExperiments, the HTTP listener, and SIGINT/SIGTERM
// handling. One definition of each, so a single-process sweep and a
// fleet sweep of the same flags plan the same jobs and write records
// that differ only in their numbers.
package sweepcli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/gpu"
	"repro/internal/harness"
)

// Flags holds the flags both sweep commands accept.
type Flags struct {
	Run, Sample                  string
	Scale, Dilute                int
	Out, CSVDir, JSONPath        string
	StoreDir, MirrorDir, FailDir string
	Timeout                      time.Duration
	CheckInv, Checkpoint, List   bool
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Run, "run", "all", "experiment ID or \"all\"")
	fs.IntVar(&f.Scale, "scale", 1, "grid size multiplier")
	fs.IntVar(&f.Dilute, "dilute", 1, "divide grid sizes by this factor (quick passes)")
	fs.StringVar(&f.Out, "out", "", "also write the tables to this file")
	fs.StringVar(&f.CSVDir, "csv", "", "also write every table as CSV into this directory")
	fs.StringVar(&f.JSONPath, "json", "", "write the sweep record (work counters, simcycles/s, per-experiment runs requested and render time) to this file")
	fs.StringVar(&f.StoreDir, "store", "", "result-store directory: cached results, checkpoints, and the completion journal commit here transactionally")
	fs.StringVar(&f.MirrorDir, "mirror", "", "replicate the result store to this second directory; corrupt objects heal from it on read")
	fs.StringVar(&f.FailDir, "faildir", "failures", "write a JSON repro bundle per failed run into this directory (\"\" disables)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "wall-clock deadline per simulation (0 = none)")
	fs.BoolVar(&f.CheckInv, "checkinvariants", false, "run every simulation with the conservation-invariant checker")
	fs.BoolVar(&f.Checkpoint, "checkpoint", false, "prefix-fork sweep points that differ only in late-consumed parameters (bit-identical results, shared prefix simulated once)")
	fs.StringVar(&f.Sample, "sample", "", "interval/sampled simulation as detailed:fastforward[:warmup] cycles; cycle counts become extrapolations within a reported error bound")
	fs.BoolVar(&f.List, "list", false, "list experiments and exit")
	return f
}

// PrintList writes the experiment registry, one "id title" line each.
func PrintList(w io.Writer) {
	for _, e := range harness.Experiments() {
		fmt.Fprintf(w, "%-18s %s\n", e.ID, e.Title)
	}
}

// Params validates the flag combination and builds the sweep parameters,
// bound to a new Sweep. The caller owns that sweep: whatever path it exits
// by, it closes p.Sweep first (the durability barrier; journal and store
// closed).
func (f *Flags) Params() (p harness.Params, err error) {
	so, err := gpu.ParseSampling(f.Sample)
	switch {
	case err != nil:
	case f.MirrorDir != "" && f.StoreDir == "":
		err = errors.New("-mirror needs -store: the mirror replicates a primary store")
	// Sampling extrapolates cycle counts; checkpoint forking and the
	// invariant checker both assume exact cycle-accurate execution.
	case so.Enabled() && f.Checkpoint:
		err = errors.New("-sample is incompatible with -checkpoint: forked prefixes must be bit-identical, sampled runs are extrapolations")
	case so.Enabled() && f.CheckInv:
		err = errors.New("-sample is incompatible with -checkinvariants: the checker audits per-cycle conservation, which fast-forward spans skip")
	}
	if err != nil {
		return p, err
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
	p.Sampling = so
	p.Sweep = harness.NewSweep()
	return p, nil
}

// OpenOutput returns the writer tables go to — stdout, teed into -out —
// and creates -csv's directory, which RunExperiments fills. Call closeOut
// when done.
func (f *Flags) OpenOutput() (w io.Writer, closeOut func(), err error) {
	if f.CSVDir != "" {
		if err := os.MkdirAll(f.CSVDir, 0o755); err != nil {
			return nil, nil, err
		}
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

// Serve listens on addr — synchronously, so a bad address or an occupied
// port is a setup error, not a silently dead goroutine — and serves h
// (what names it in messages) until stop, which lets in-flight requests
// finish, for five seconds at most. stop is idempotent.
func Serve(prog, what, addr string, h http.Handler) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", what, err)
	}
	fmt.Fprintf(os.Stderr, "%s: %s on http://%s/\n", prog, what, ln.Addr())
	srv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	var once sync.Once
	return func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				srv.Close()
			}
			if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "%s: %s server: %v\n", prog, what, err)
			}
		})
	}, nil
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
// only for changes that alter the meaning of existing fields. Version 6:
// an experiment's wall_seconds times its reduce and render step, and its
// row no longer splits the work among experiments.
const ReportSchemaVersion = 6

// ExpReport is one experiment's row in the -json output. Its jobs ran in
// the sweep's one plan, where a point serves every experiment that
// requested it, so executed runs and cycles are the sweep's alone:
// RunsRequested is how many the experiment asked for, and WallSeconds
// times its reduce and render step.
type ExpReport struct {
	ID            string  `json:"id"`
	WallSeconds   float64 `json:"wall_seconds"`
	RunsRequested int     `json:"runs_requested"`
	Error         string  `json:"error,omitempty"`
}

// Report is the top-level -json document of both sweep commands: the
// sweep's work counters under harness.RunMetrics' own keys (embedded, so
// a counter added there is in the record), around them what ran where.
// Workers is the -workers setting for vtbench and the fleet size — every
// worker that contacted the coordinator — for vtsweepd. Sampling is the
// "detailed:fastforward:warmup" configuration of a -sample sweep.
type Report struct {
	SchemaVersion int     `json:"schema_version"`
	Date          string  `json:"date"`
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Scale         int     `json:"scale"`
	Dilute        int     `json:"dilute"`
	Workers       int     `json:"workers"`
	TotalWallSec  float64 `json:"total_wall_seconds"`
	harness.RunMetrics
	SimCyclesPerSec float64     `json:"simcycles_per_sec"`
	Sampling        string      `json:"sampling,omitempty"`
	Experiments     []ExpReport `json:"experiments"`
}

// RunExperiments runs the -run selection under p, writing tables to w,
// and returns the sweep's record and exit code: 3 when an experiment
// completed with failed runs (the supervisor already bundled them; the
// sweep keeps going), 0 otherwise. The wall clock stops at the durability
// barrier: run outcomes commit write-behind, so nothing the caller does
// next — the summary, -json, any exit code — happens before the store
// holds, on both sides, every outcome reported here.
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
		Sampling:      p.Sampling.String(),
	}
	exitCode := 0
	start := time.Now()
	out := harness.Output{W: w, Titled: f.Run == "all", CSVDir: f.CSVDir}
	if harness.RunExperiments(p, todo, out, func(x harness.ExperimentRun) {
		r := ExpReport{ID: x.ID, WallSeconds: x.Wall.Seconds(), RunsRequested: x.Requested}
		if x.Err != nil {
			r.Error = x.Err.Error()
			fmt.Fprintf(os.Stderr, "%s: %s failed: %v\n", prog, x.ID, x.Err)
		}
		rep.Experiments = append(rep.Experiments, r)
	}) != nil {
		exitCode = 3
	}
	p.Sweep.Sync()
	rep.TotalWallSec = time.Since(start).Seconds()
	rep.RunMetrics = p.Sweep.Metrics()
	if rep.TotalWallSec > 0 {
		rep.SimCyclesPerSec = float64(rep.SimCycles) / rep.TotalWallSec
	}
	fmt.Fprintf(w, "total wall time: %s\n", time.Duration(rep.TotalWallSec*float64(time.Second)).Round(time.Millisecond))
	return rep, exitCode, nil
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
