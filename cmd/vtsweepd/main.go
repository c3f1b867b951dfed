// Command vtsweepd is the distributed sweep coordinator: it plans the
// requested experiments exactly like vtbench, but dispatches every
// simulation to a pull-based worker fleet (vtbench -worker) over the
// fabric job API instead of executing locally. Results, the completion
// journal, and checkpoints land in the coordinator's result store; the
// fleet dashboard (HTML, /status JSON, Prometheus /metrics with
// per-worker labels) serves on the same address as the job API.
//
// Usage:
//
//	vtsweepd -store c -run fig-swaplat            # serve on :7077, wait for workers
//	vtbench  -worker http://host:7077 -store w1   # ... on each worker machine
//	vtsweepd -store c -addr :9000 -lease-ttl 30s  # custom port and lease TTL
//	vtsweepd -store c -resume                     # re-lease only what the journal lacks
//
// Determinism contract: a sweep run on N workers produces bit-identical
// sim_cycles and tables to the single-process vtbench run of the same
// flags, including when workers crash and their jobs are re-leased.
//
// Exit codes match vtbench: 0 on success, 1 on a fatal setup error, 3
// when the sweep completed with failed runs, 128+signum after a
// graceful SIGINT/SIGTERM drain.
package main

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
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	vtsim "repro"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/sweepobs"
)

// sweepReport mirrors the vtbench -json schema (benchReportSchemaVersion
// 5) so cmd/benchcheck accepts and compares coordinator records against
// single-process baselines. Workers is the fleet size — every worker
// that completed at least one job — instead of local parallelism.
type sweepReport struct {
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
	RunsRetried     int     `json:"runs_retried,omitempty"`
	RunsDegraded    int     `json:"runs_degraded,omitempty"`
	RunsFailed      int     `json:"runs_failed,omitempty"`
	Sampling        string  `json:"sampling,omitempty"`
	MaxErrorBound   float64 `json:"max_error_bound,omitempty"`

	Experiments []expReport `json:"experiments"`
}

type expReport struct {
	ID              string  `json:"id"`
	WallSeconds     float64 `json:"wall_seconds"`
	RunsRequested   int     `json:"runs_requested"`
	RunsExecuted    int     `json:"runs_executed"`
	CacheHits       int     `json:"cache_hits"`
	SimCycles       int64   `json:"sim_cycles"`
	SimCyclesPerSec float64 `json:"simcycles_per_sec"`
	Error           string  `json:"error,omitempty"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		addr       = flag.String("addr", ":7077", "job API + fleet dashboard address")
		run        = flag.String("run", "all", "experiment ID or \"all\"")
		scale      = flag.Int("scale", 1, "grid size multiplier")
		dilute     = flag.Int("dilute", 1, "divide grid sizes by this factor (quick passes)")
		dispatch   = flag.Int("dispatch", 64, "jobs dispatched to the fleet concurrently")
		out        = flag.String("out", "", "write tables to file instead of stdout")
		csvDir     = flag.String("csv", "", "also write every table as CSV into this directory")
		jsonPath   = flag.String("json", "", "write the sweep record (vtbench -json schema) to this file")
		storeDir   = flag.String("store", "", "coordinator result store: fleet cache, checkpoints, and the distributed completion journal")
		mirrorDir  = flag.String("mirror", "", "replicate the coordinator store to this second directory")
		failDir    = flag.String("faildir", "failures", "write a JSON repro bundle per failed local fallback run (\"\" disables)")
		timeout    = flag.Duration("timeout", 0, "wall-clock deadline per simulation, enforced on workers (0 = none)")
		checkInv   = flag.Bool("checkinvariants", false, "workers run every simulation with the invariant checker")
		checkpoint = flag.Bool("checkpoint", false, "prefix-fork sweep points; the donor checkpoint is shared fleet-wide through the store")
		forkCycle  = flag.Int64("forkcycle", 0, "with -checkpoint, pin the donor capture cycle")
		sample     = flag.String("sample", "", "interval/sampled simulation as detailed:fastforward[:warmup] cycles")
		resume     = flag.Bool("resume", false, "resume a journaled sweep: only points the store lacks are dispatched")
		leaseTTL   = flag.Duration("lease-ttl", fabric.DefaultLeaseTTL, "job lease TTL; an unrenewed lease is reclaimed and re-dispatched")
		list       = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range vtsim.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *storeDir == "" {
		return fatalf("-store is required: the coordinator owns the fleet's results and completion journal")
	}
	if *resume && *storeDir == "" {
		return fatalf("-resume needs -store")
	}

	ctx, stopSignals := signalContext()
	defer stopSignals()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fatalf("%v", err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fatalf("%v", err)
		}
		stats.SetCSVDir(*csvDir)
	}

	p := vtsim.DefaultExperimentParams()
	p.Scale = *scale
	p.Dilute = *dilute
	p.CacheDir = *storeDir
	p.MirrorDir = *mirrorDir
	p.FailDir = *failDir
	p.RunTimeout = *timeout
	p.CheckInvariants = *checkInv
	p.Checkpoint = *checkpoint
	p.ForkCycle = *forkCycle
	if *sample != "" {
		so, err := gpu.ParseSampling(*sample)
		if err != nil {
			return fatalf("%v", err)
		}
		if so.Enabled() && *checkpoint {
			return fatalf("-sample is incompatible with -checkpoint")
		}
		p.Sampling = so
	}

	mon := harness.NewMonitor()
	p.Monitor = mon
	tracer := sweepobs.New()
	mon.SetTracer(tracer)
	p.Trace = tracer

	meta := harness.JournalMeta{Scale: *scale, Dilute: *dilute, Config: p.Config.Name, Sampling: p.Sampling.String()}
	jl, err := harness.OpenJournal(filepath.Join(*storeDir, harness.JournalFileName), meta, *resume)
	if err != nil {
		return fatalf("%v", err)
	}
	defer jl.Close()
	p.Journal = jl
	p.Resume = *resume
	if *mirrorDir != "" {
		if err := harness.EnsureJournalHeader(filepath.Join(*mirrorDir, harness.JournalFileName), meta); err != nil {
			return fatalf("mirror journal: %v", err)
		}
	}
	if *resume {
		okN, degraded, failed := jl.Summary()
		fmt.Fprintf(os.Stderr, "vtsweepd: resuming sweep: journal records %d ok, %d degraded, %d failed\n",
			okN, degraded, failed)
	}

	// The coordinator's own Params (store commits, journal, monitor) have
	// no Ctx: a completion arriving during drain must still commit. Only
	// the sweep copy below is cancellable.
	coord := fabric.New(fabric.Config{Params: p, LeaseTTL: *leaseTTL})
	defer coord.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fatalf("listen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "vtsweepd: job API + fleet dashboard on http://%s/ (lease TTL %s)\n", ln.Addr(), *leaseTTL)
	srv := &http.Server{Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		coord.Close() // on an early return too: Shutdown waits for parked lease requests
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			srv.Close()
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "vtsweepd: server: %v\n", err)
		}
	}()

	sp := p
	sp.Executor = coord.Executor()
	sp.Workers = *dispatch
	sp.Ctx = ctx

	var todo []vtsim.Experiment
	if *run == "all" {
		todo = vtsim.Experiments()
	} else {
		e, err := vtsim.GetExperiment(*run)
		if err != nil {
			return fatalf("%v", err)
		}
		todo = []vtsim.Experiment{e}
	}

	report := sweepReport{
		SchemaVersion: 5,
		Date:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Scale:         *scale,
		Dilute:        *dilute,
	}
	exitCode := 0
	start := time.Now()
	for _, e := range todo {
		if *run == "all" {
			fmt.Fprintf(w, "### %s — %s\n", e.ID, e.Title)
			if e.Paper != "" {
				fmt.Fprintf(w, "paper: %s\n\n", e.Paper)
			}
		}
		before := vtsim.ExperimentMetrics()
		t0 := time.Now()
		expErr := vtsim.RunExperiment(e.ID, sp, w)
		wall := time.Since(t0).Seconds()
		m := vtsim.ExperimentMetrics()
		r := expReport{
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
			fmt.Fprintf(os.Stderr, "vtsweepd: %s failed: %v\n", e.ID, expErr)
			fmt.Fprintf(w, "EXPERIMENT FAILED %s: %v\n\n", e.ID, expErr)
		}
		report.Experiments = append(report.Experiments, r)
	}
	// Remote completions committed synchronously as they arrived; this
	// waits for the write-behind outcomes of any local fallback runs. The
	// sweep's wall clock stops here, at the durability barrier: what
	// follows is the fleet taking its leave, not sweep time.
	harness.SyncStores()
	report.TotalWallSec = time.Since(start).Seconds()
	// Sweep done (or signaled): close the queue, which answers every
	// parked lease request with 410 at once, and wait for the workers'
	// goodbyes before the deferred Shutdown tears the listener down, so
	// none of them meets a refused connection. The trace commits while
	// they leave.
	closed := time.Now()
	coord.Close()
	if err := harness.PersistSweepTrace(p, tracer.Dump()); err != nil {
		// Best-effort: the results committed fine without it.
		fmt.Fprintf(os.Stderr, "vtsweepd: persist sweep trace: %v\n", err)
	}
	coord.Drain()
	drain := time.Since(closed)
	st := coord.Status()

	m := vtsim.ExperimentMetrics()
	report.RunsRequested = m.Requests
	report.RunsExecuted = m.Executed
	report.CacheHits = m.CacheHits
	report.SimCycles = m.SimCycles
	report.RunsRetried = m.Retries
	report.RunsDegraded = m.Degraded
	report.RunsFailed = m.Failures
	report.Sampling = p.Sampling.String()
	report.MaxErrorBound = m.MaxErrorBound
	report.Workers = len(st.Workers)
	if report.TotalWallSec > 0 {
		report.SimCyclesPerSec = float64(m.SimCycles) / report.TotalWallSec
	}
	fmt.Fprintf(w, "total wall time: %s\n", time.Duration(report.TotalWallSec*float64(time.Second)).Round(time.Millisecond))
	fmt.Fprintf(w, "fleet: %d workers, %d completions (%d duplicate), leases %d granted / %d renewed / %d expired / %d released, drain %dms\n",
		len(st.Workers), st.Completions, st.DuplicateCompletions,
		st.LeasesGranted, st.LeasesRenewed, st.LeasesExpired, st.LeasesReleased, drain.Milliseconds())
	if m.Failures > 0 {
		fmt.Fprintf(w, "supervisor: %d failed runs (journaled; -resume re-dispatches them)\n", m.Failures)
	}

	if *jsonPath != "" {
		b, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return fatalf("json: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			return fatalf("json: %v", err)
		}
		fmt.Fprintf(os.Stderr, "vtsweepd: wrote %s\n", *jsonPath)
	}
	return signalExitCode(exitCode)
}

var termSignal atomic.Int32

// signalContext cancels the sweep on the first SIGINT/SIGTERM — jobs
// stop dispatching, leased work drains, journal and store flush through
// the normal exit path — and detaches, so a second signal kills.
func signalContext() (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-ch
		if !ok {
			return
		}
		if sn, isSys := s.(syscall.Signal); isSys {
			termSignal.Store(int32(sn))
		} else {
			termSignal.Store(int32(syscall.SIGINT))
		}
		fmt.Fprintf(os.Stderr, "vtsweepd: %v: draining dispatched jobs, flushing journal/store (signal again to kill)\n", s)
		signal.Stop(ch)
		cancel()
	}()
	return ctx, func() { signal.Stop(ch); cancel() }
}

func signalExitCode(code int) int {
	if sn := termSignal.Load(); sn != 0 {
		return 128 + int(sn)
	}
	return code
}

func fatalf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "vtsweepd: "+format+"\n", args...)
	return 1
}
