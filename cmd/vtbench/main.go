// Command vtbench regenerates the paper's evaluation: every table and
// figure has a named experiment that runs the required simulations and
// prints the corresponding rows/series.
//
// Usage:
//
//	vtbench                    # run everything (takes minutes)
//	vtbench -run fig-speedup   # one experiment
//	vtbench -list              # list experiments
//	vtbench -dilute 10         # shrink grids 10x for a quick pass
//	vtbench -json BENCH_sched.json    # per-experiment wall time + simcycles/s (the committed benchcheck baseline)
//	vtbench -cpuprofile cpu.pprof     # profile, labeled by experiment/workload/variant
//	vtbench -faildir failures         # write repro bundles for failed runs
//	vtbench -store c -resume          # continue an interrupted/failed sweep
//	vtbench -store c -mirror m        # replicate the result store to a second directory
//	vtbench -store c -repair          # audit + heal the store, then exit
//	vtbench -monitor :8080            # live sweep progress (HTML, /status, /metrics, /debug/pprof)
//	vtbench -sweeptrace trace.json    # record the sweep-lifecycle span tree (vtreport -tracepath)
//	vtbench -sweepperfetto ui.json    # ... also rendered for chrome://tracing / ui.perfetto.dev
//	vtbench -metricsdump metrics.txt  # write the final Prometheus exposition on exit
//	vtbench -telemetry                # collect per-run telemetry (totals in -json)
//	vtbench -checkpoint               # prefix-fork sweep points that share a run prefix
//	vtbench -checkpoint -forkcycle N  # pin the donor's capture to cycle >= N
//	vtbench -worker http://host:7077  # join a vtsweepd fleet: pull jobs, stream results back
//	vtbench -worker URL -slots 4      # ... holding four jobs at a time
//
// Exit codes: 0 on success, 1 on a fatal setup error, 3 when the sweep
// completed but one or more runs failed (repro bundles in -faildir, the
// completion journal marks them for -resume). On SIGINT/SIGTERM the
// sweep drains in-flight runs, waits for the store to hold every
// finished run's outcome, and exits 128+signum (130/143); a second
// signal kills immediately, losing at most the outcomes still in the
// store's write-behind window (-resume re-executes those).
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
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	vtsim "repro"
	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/resultstore"
	"repro/internal/stats"
	"repro/internal/sweepobs"
)

// expReport is one experiment's row in the -json output.
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

// benchReportSchemaVersion identifies the -json layout. Consumers
// (cmd/benchcheck) decode with encoding/json, which ignores unknown
// fields, so adding fields never breaks old baselines; bump this only
// for changes that alter the meaning of existing fields.
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
const benchReportSchemaVersion = 5

// benchReport is the top-level -json document.
type benchReport struct {
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
	// Result-store counters (-store/-cachedir sweeps only; see
	// internal/resultstore). store_hits/store_misses count verified reads;
	// store_repairs counts objects healed bit-identically from the mirror;
	// store_retries counts transient store I/O errors absorbed by the
	// bounded retry.
	StoreHits    int `json:"store_hits,omitempty"`
	StoreMisses  int `json:"store_misses,omitempty"`
	StoreRepairs int `json:"store_repairs,omitempty"`
	StoreRetries int `json:"store_retries,omitempty"`

	Experiments []expReport `json:"experiments"`
}

func main() { os.Exit(realMain()) }

// realMain carries the exit code out past the deferred cleanups (an
// os.Exit in the body would skip profile flushes and file closes).
func realMain() int {
	var (
		run        = flag.String("run", "all", "experiment ID or \"all\"")
		scale      = flag.Int("scale", 1, "grid size multiplier")
		dilute     = flag.Int("dilute", 1, "divide grid sizes by this factor (quick passes)")
		workers    = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		out        = flag.String("out", "", "write output to file instead of stdout")
		csvDir     = flag.String("csv", "", "also write every table as CSV into this directory")
		jsonPath   = flag.String("json", "", "write per-experiment wall time and simcycles/s to this file")
		cacheDir   = flag.String("cachedir", "", "persist memoized run results in this directory across invocations (alias of -store)")
		storeDir   = flag.String("store", "", "result-store directory: cached results, checkpoints, and the completion journal commit here transactionally")
		mirrorDir  = flag.String("mirror", "", "replicate the result store to this second directory; corrupt objects heal from it on read")
		repair     = flag.Bool("repair", false, "audit the result store (and mirror), heal damaged objects from a healthy replica, print a report, and exit")
		failDir    = flag.String("faildir", "failures", "write a JSON repro bundle per failed run into this directory (\"\" disables)")
		timeout    = flag.Duration("timeout", 0, "wall-clock deadline per simulation (0 = none)")
		checkInv   = flag.Bool("checkinvariants", false, "run every simulation with the conservation-invariant checker")
		injectSpec = flag.String("inject", "", "inject a deterministic fault: workload[/variant]@cycle:kind (kind: panic, panic-once, corrupt, hang=<dur>)")
		resume     = flag.Bool("resume", false, "resume an interrupted or partially failed sweep from the -cachedir journal")
		telemetry  = flag.Bool("telemetry", false, "attach a telemetry collector to every executed run (window/span totals land in -json)")
		checkpoint = flag.Bool("checkpoint", false, "prefix-fork sweep points that differ only in late-consumed parameters (bit-identical results, shared prefix simulated once)")
		sample     = flag.String("sample", "", "interval/sampled simulation as detailed:fastforward[:warmup] cycles; cycle counts become extrapolations within a reported error bound")
		forkCycle  = flag.Int64("forkcycle", 0, "with -checkpoint, pin the donor's capture to the first cycle >= N (0 = adaptive periodic capture)")
		monitor    = flag.String("monitor", "", "serve live sweep progress (HTML, /status JSON, /metrics, /debug/pprof) on this address, e.g. :8080")
		sweeptrace = flag.String("sweeptrace", "", "write the sweep-lifecycle span dump (JSON) to this file; with -store it also commits as a store artifact")
		sweepPerf  = flag.String("sweepperfetto", "", "also render the sweep trace for chrome://tracing / ui.perfetto.dev into this file")
		metricsOut = flag.String("metricsdump", "", "write the final Prometheus text exposition to this file on exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		list       = flag.Bool("list", false, "list experiments and exit")

		workerURL = flag.String("worker", "", "run as a sweep-fabric worker pulling jobs from this vtsweepd coordinator URL (e.g. http://host:7077)")
		workerID  = flag.String("workerid", "", "worker name for leases and the fleet dashboard (default <host>-<pid>)")
		slots     = flag.Int("slots", 0, "concurrent jobs a -worker holds (0 = GOMAXPROCS)")
		dieAfter  = flag.Int("worker-die-after", 0, "fabric crash drill: exit(7) just before reporting the Nth completion (0 = never)")
	)
	flag.Parse()

	if *list {
		for _, e := range vtsim.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return 0
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the sweep
	// context — no new jobs dispatch, in-flight runs drain, journal and
	// store transactions flush through the normal exit path — and a
	// second signal falls back to the default disposition (kill).
	ctx, stopSignals := signalContext("vtbench")
	defer stopSignals()

	// -store is the preferred name for the directory the transactional
	// result store manages; -cachedir remains as the historical alias.
	if *storeDir != "" && *cacheDir != "" && *storeDir != *cacheDir {
		return fatalf("-store and -cachedir name different directories; use one")
	}
	if *storeDir == "" {
		*storeDir = *cacheDir
	}
	if *mirrorDir != "" && *storeDir == "" {
		return fatalf("-mirror needs -store: the mirror replicates a primary store")
	}

	if *repair {
		if *storeDir == "" {
			return fatalf("-repair needs -store")
		}
		return runRepair(*storeDir, *mirrorDir)
	}

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

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fatalf("%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	p := vtsim.DefaultExperimentParams()
	p.Scale = *scale
	p.Dilute = *dilute
	p.Workers = *workers
	p.CacheDir = *storeDir
	p.MirrorDir = *mirrorDir
	p.FailDir = *failDir
	p.RunTimeout = *timeout
	p.CheckInvariants = *checkInv
	p.Telemetry = *telemetry
	p.Checkpoint = *checkpoint
	p.ForkCycle = *forkCycle
	p.Ctx = ctx

	if *sample != "" {
		so, err := gpu.ParseSampling(*sample)
		if err != nil {
			return fatalf("%v", err)
		}
		if so.Enabled() {
			// Sampling extrapolates cycle counts; checkpoint forking and the
			// invariant checker both assume exact cycle-accurate execution.
			if *checkpoint {
				return fatalf("-sample is incompatible with -checkpoint: forked prefixes must be bit-identical, sampled runs are extrapolations")
			}
			if *checkInv {
				return fatalf("-sample is incompatible with -checkinvariants: the checker audits per-cycle conservation, which fast-forward spans skip")
			}
		}
		p.Sampling = so
	}

	// Sweep observability: every invocation gets its own Monitor (nothing
	// leaks through the process-global default), and any flag that
	// consumes spans turns the tracer on. With all of them off, p.Trace
	// stays nil and every tracer hook is a nil-receiver no-op — the
	// contract behind the CI overhead gate.
	mon := harness.NewMonitor()
	p.Monitor = mon
	var tracer *sweepobs.Tracer
	if *sweeptrace != "" || *sweepPerf != "" || *metricsOut != "" || *monitor != "" {
		tracer = sweepobs.New()
		mon.SetTracer(tracer)
		p.Trace = tracer
	}

	stopMonitor := func() {}
	if *monitor != "" {
		// Listen synchronously so a bad address or occupied port is a
		// fatal setup error, not a silently dead goroutine.
		ln, err := net.Listen("tcp", *monitor)
		if err != nil {
			return fatalf("monitor: %v", err)
		}
		fmt.Fprintf(os.Stderr, "vtbench: monitor on http://%s/\n", ln.Addr())
		srv := &http.Server{Handler: mon.Handler()}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()
		var once sync.Once
		stopMonitor = func() {
			once.Do(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					srv.Close()
				}
				if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
					fmt.Fprintf(os.Stderr, "vtbench: monitor server: %v\n", err)
				}
			})
		}
		defer stopMonitor()
	}

	if *injectSpec != "" {
		sp, err := faultinject.Parse(*injectSpec)
		if err != nil {
			return fatalf("%v", err)
		}
		p.Inject = sp
	}
	if *workerURL != "" {
		code := runWorkerMode(ctx, p, *workerURL, *workerID, *slots, *dieAfter)
		stopMonitor()
		return code
	}

	if *resume && *storeDir == "" {
		return fatalf("-resume needs -store: the journal and the cached results live there")
	}
	if *storeDir != "" {
		meta := harness.JournalMeta{Scale: *scale, Dilute: *dilute, Config: p.Config.Name, Sampling: p.Sampling.String()}
		jl, err := harness.OpenJournal(filepath.Join(*storeDir, harness.JournalFileName), meta, *resume)
		if err != nil {
			return fatalf("%v", err)
		}
		defer jl.Close()
		p.Journal = jl
		p.Resume = *resume
		if *mirrorDir != "" {
			// Seed the mirror's journal header so store transactions have a
			// valid journal to append entry lines to, making a failed-over
			// mirror directory resumable on its own.
			if err := harness.EnsureJournalHeader(filepath.Join(*mirrorDir, harness.JournalFileName), meta); err != nil {
				return fatalf("mirror journal: %v", err)
			}
		}
		if *resume {
			ok, degraded, failed := jl.Summary()
			fmt.Fprintf(os.Stderr, "vtbench: resuming sweep: journal records %d ok, %d degraded, %d failed\n",
				ok, degraded, failed)
		}
	}

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

	report := benchReport{
		SchemaVersion: benchReportSchemaVersion,
		Date:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Scale:         *scale,
		Dilute:        *dilute,
		Workers:       *workers,
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
		expErr := vtsim.RunExperiment(e.ID, p, w)
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
			// The supervisor already bundled the failed runs; keep the
			// sweep going and report the incomplete experiment at the end.
			r.Error = expErr.Error()
			exitCode = 3
			fmt.Fprintf(os.Stderr, "vtbench: %s failed: %v\n", e.ID, expErr)
			fmt.Fprintf(w, "EXPERIMENT FAILED %s: %v\n\n", e.ID, expErr)
		}
		report.Experiments = append(report.Experiments, r)
	}
	// The durability barrier: run outcomes commit write-behind, so nothing
	// below — the summary, -json, the journal close, any exit code,
	// signal-initiated or not — may happen before the store holds, on
	// both sides, every outcome this process is about to report.
	harness.SyncStores()
	report.TotalWallSec = time.Since(start).Seconds()
	m := vtsim.ExperimentMetrics()
	report.RunsRequested = m.Requests
	report.RunsExecuted = m.Executed
	report.CacheHits = m.CacheHits
	report.SimCycles = m.SimCycles
	report.RunsRetried = m.Retries
	report.RunsDegraded = m.Degraded
	report.RunsFailed = m.Failures
	report.ResumedFailed = m.ResumedFailed
	report.TelemetryWindows = m.TelemetryWindows
	report.TelemetrySpans = m.TelemetrySpans
	report.CheckpointsCaptured = m.CheckpointsCaptured
	report.CheckpointHits = m.CheckpointHits
	report.CheckpointMisses = m.CheckpointMisses
	report.PrefixCyclesSaved = m.PrefixCyclesSaved
	report.Sampling = p.Sampling.String()
	report.SampledRuns = m.SampledRuns
	report.SampledSpans = m.SampledSpans
	report.ExtrapolatedCycles = m.ExtrapolatedCycles
	report.FunctionalInstrs = m.FunctionalInstrs
	report.MaxErrorBound = m.MaxErrorBound
	report.StoreHits = m.StoreHits
	report.StoreMisses = m.StoreMisses
	report.StoreRepairs = m.StoreRepairs
	report.StoreRetries = m.StoreRetries
	if report.TotalWallSec > 0 {
		report.SimCyclesPerSec = float64(m.SimCycles) / report.TotalWallSec
	}
	fmt.Fprintf(w, "total wall time: %s\n", time.Duration(report.TotalWallSec*float64(time.Second)).Round(time.Millisecond))
	if *checkpoint && (m.CheckpointHits > 0 || m.CheckpointMisses > 0 || m.CheckpointsCaptured > 0) {
		fmt.Fprintf(w, "checkpoints: %d captured, %d forks, %d misses, %d prefix cycles saved\n",
			m.CheckpointsCaptured, m.CheckpointHits, m.CheckpointMisses, m.PrefixCyclesSaved)
	}
	if p.Sampling.Enabled() && m.SampledRuns > 0 {
		fmt.Fprintf(w, "sampling %s: %d sampled runs, %d spans, %d extrapolated cycles, %d functional instrs, max error bound %.2f%%\n",
			p.Sampling, m.SampledRuns, m.SampledSpans, m.ExtrapolatedCycles, m.FunctionalInstrs, 100*m.MaxErrorBound)
	}
	if m.StoreRepairs > 0 || m.StoreRetries > 0 {
		fmt.Fprintf(w, "result store: %d objects healed from the mirror, %d transient I/O retries\n",
			m.StoreRepairs, m.StoreRetries)
	}
	if m.Retries > 0 || m.Failures > 0 {
		fmt.Fprintf(w, "supervisor: %d safe-mode retries, %d degraded, %d failed runs\n",
			m.Retries, m.Degraded, m.Failures)
		if m.Failures > 0 && *failDir != "" {
			fmt.Fprintf(w, "supervisor: repro bundles in %s; re-run the failed jobs with -store %s -resume\n",
				*failDir, *storeDir)
		}
	}

	// The sweep is complete: drain in-flight monitor scrapes gracefully,
	// then flush the observability outputs from the final state.
	stopMonitor()
	if tracer != nil {
		if err := writeSweepObservability(p, mon, tracer, *sweeptrace, *sweepPerf, *metricsOut); err != nil {
			return fatalf("%v", err)
		}
	}

	if *jsonPath != "" {
		b, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return fatalf("json: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			return fatalf("json: %v", err)
		}
		fmt.Fprintf(os.Stderr, "vtbench: wrote %s\n", *jsonPath)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fatalf("%v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fatalf("memprofile: %v", err)
		}
	}
	return signalExitCode(exitCode)
}

// termSignal records the terminating signal number (130-100=SIGINT 2,
// SIGTERM 15) so the exit code preserves the conventional 128+signum.
var termSignal atomic.Int32

// signalContext returns a context canceled by the first SIGINT or
// SIGTERM. The handler then detaches, so a second signal takes the
// default disposition and kills the process immediately.
func signalContext(prog string) (context.Context, func()) {
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
		fmt.Fprintf(os.Stderr, "%s: %v: draining in-flight work, flushing journal/store (signal again to kill)\n", prog, s)
		signal.Stop(ch)
		cancel()
	}()
	return ctx, func() { signal.Stop(ch); cancel() }
}

// signalExitCode maps a signal-initiated shutdown to 128+signum,
// preserving the sweep's own code otherwise.
func signalExitCode(code int) int {
	if sn := termSignal.Load(); sn != 0 {
		return 128 + int(sn)
	}
	return code
}

// runWorkerMode joins a vtsweepd fleet: pull jobs, execute them through
// the local supervised harness (with the local -store as cache), and
// stream outcomes back. Exit 0 when the sweep completes, 130/143 on
// graceful shutdown, 1 on error.
func runWorkerMode(ctx context.Context, p vtsim.ExperimentParams, url, id string, slots, dieAfter int) int {
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	cfg := fabric.WorkerConfig{Coordinator: url, ID: id, Slots: slots, Params: p}
	if dieAfter > 0 {
		cfg.BeforeComplete = func(n int) {
			if n >= dieAfter {
				fmt.Fprintf(os.Stderr, "vtbench: worker %s exiting before completion %d (-worker-die-after drill)\n", id, n)
				os.Exit(7)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "vtbench: worker %s pulling from %s (%d slots)\n",
		id, url, harness.ResolveWorkers(slots))
	err := fabric.RunWorker(ctx, cfg)
	switch {
	case err == nil:
		fmt.Fprintf(os.Stderr, "vtbench: worker %s: sweep complete\n", id)
		return 0
	case errors.Is(err, context.Canceled):
		return signalExitCode(0)
	default:
		return fatalf("worker: %v", err)
	}
}

// writeSweepObservability flushes the tracer's span dump to the
// requested outputs: the raw JSON dump (vtreport -tracepath input), the
// Perfetto rendering, the result-store artifact (when a store is
// attached), and the final Prometheus exposition.
func writeSweepObservability(p vtsim.ExperimentParams, mon *harness.Monitor, tracer *sweepobs.Tracer, tracePath, perfPath, metricsPath string) error {
	d := tracer.Dump()
	if tracePath != "" {
		b, err := json.MarshalIndent(d, "", " ")
		if err != nil {
			return fmt.Errorf("sweeptrace: %v", err)
		}
		if err := os.WriteFile(tracePath, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("sweeptrace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "vtbench: wrote %s (%d spans)\n", tracePath, len(d.Spans))
	}
	if perfPath != "" {
		f, err := os.Create(perfPath)
		if err != nil {
			return fmt.Errorf("sweepperfetto: %v", err)
		}
		werr := sweepobs.WritePerfetto(f, d)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("sweepperfetto: %v", werr)
		}
		fmt.Fprintf(os.Stderr, "vtbench: wrote %s\n", perfPath)
	}
	if p.CacheDir != "" {
		// Best-effort: a trace that fails to commit must not fail a sweep
		// whose results committed fine.
		if err := harness.PersistSweepTrace(p, d); err != nil {
			fmt.Fprintf(os.Stderr, "vtbench: persist sweep trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "vtbench: sweep trace committed to store %s\n", p.CacheDir)
		}
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return fmt.Errorf("metricsdump: %v", err)
		}
		werr := mon.WriteMetrics(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("metricsdump: %v", werr)
		}
		fmt.Fprintf(os.Stderr, "vtbench: wrote %s\n", metricsPath)
	}
	return nil
}

// runRepair opens the result store, audits every object on every side,
// heals damaged copies bit-identically from a healthy replica, and
// prints the report. Exit 0 when the store is (or was made) fully
// healthy, 1 on a setup error, 3 when objects remain unrecoverable —
// those were quarantined, so the next sweep re-simulates them.
func runRepair(dir, mirror string) int {
	st, err := resultstore.Open(resultstore.Options{Dir: dir, Mirror: mirror})
	if err != nil {
		return fatalf("open store: %v", err)
	}
	defer st.Close()
	rep := st.Repair()
	fmt.Printf("store %s", dir)
	if mirror != "" {
		fmt.Printf(" (mirror %s)", mirror)
	}
	fmt.Printf(": %d objects checked, %d healthy, %d legacy, %d repaired\n",
		rep.Checked, rep.Healthy, rep.Legacy, rep.Repaired)
	for _, d := range rep.Damaged {
		fmt.Printf("damaged: %s\n", d)
	}
	for _, u := range rep.Unrecoverable {
		fmt.Printf("unrecoverable (quarantined, will re-simulate): %s\n", u)
	}
	if len(rep.Unrecoverable) > 0 || len(rep.Damaged) > 0 {
		return 3
	}
	return 0
}

func fatalf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "vtbench: "+format+"\n", args...)
	return 1
}
