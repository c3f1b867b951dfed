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
//	vtbench -json BENCH_sched.json    # the sweep record (the committed benchcheck baseline; see internal/sweepcli)
//	vtbench -cpuprofile cpu.pprof     # profile, labeled by workload/variant
//	vtbench -faildir failures         # write repro bundles for failed runs
//	vtbench -store c                  # the same command again continues an interrupted/failed sweep
//	vtbench -store c -mirror m        # replicate the result store to a second directory
//	vtbench -store c -repair          # audit + heal the store, then exit
//	vtbench -monitor :8080            # live sweep progress (HTML, /status, /metrics, /debug/pprof)
//	vtbench -sweeptrace trace.json    # record the sweep-lifecycle span tree (vtreport -tracepath)
//	vtbench -metricsdump metrics.txt  # write the final Prometheus exposition on exit
//	vtbench -checkpoint               # prefix-fork sweep points that share a run prefix
//	vtbench -worker http://host:7077  # join a vtsweepd fleet: pull jobs, stream results back
//	vtbench -worker URL -slots 4      # ... holding four jobs at a time
//
// Exit codes: 0 on success, 1 on a fatal setup error, 3 when the sweep
// completed but one or more runs failed (repro bundles in -faildir; a
// re-run with the same -store executes them again). On SIGINT/SIGTERM the
// sweep drains in-flight runs, waits for the store to hold every
// finished run's outcome, and exits 128+signum (130/143); a second
// signal kills immediately, losing at most the outcomes still in the
// store's write-behind window (a re-run executes those).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/resultstore"
	"repro/internal/sweepcli"
	"repro/internal/sweepobs"
)

func main() { os.Exit(realMain()) }

// realMain carries the exit code out past the deferred cleanups (an
// os.Exit in the body would skip profile flushes and file closes).
func realMain() int {
	var (
		sf         = sweepcli.Register(flag.CommandLine)
		workers    = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		repair     = flag.Bool("repair", false, "audit the result store (and mirror), heal damaged objects from a healthy replica, print a report, and exit")
		injectSpec = flag.String("inject", "", "inject a deterministic fault: workload[/variant]@cycle:kind (kind: panic, corrupt, hang=<dur>)")
		monitor    = flag.String("monitor", "", "serve live sweep progress (HTML, /status JSON, /metrics, /debug/pprof) on this address, e.g. :8080")
		sweeptrace = flag.String("sweeptrace", "", "write the sweep-lifecycle span dump (JSON) to this file; with -store it also commits as a store artifact")
		metricsOut = flag.String("metricsdump", "", "write the final Prometheus text exposition to this file on exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		workerURL = flag.String("worker", "", "run as a sweep-fabric worker pulling jobs from this vtsweepd coordinator URL (e.g. http://host:7077)")
		workerID  = flag.String("workerid", "", "worker name for leases and the fleet dashboard (default <host>-<pid>)")
		slots     = flag.Int("slots", 0, "concurrent jobs a -worker holds (0 = GOMAXPROCS)")
		dieAfter  = flag.Int("worker-die-after", 0, "fabric crash drill: exit(7) just before reporting the Nth completion (0 = never)")
	)
	flag.Parse()

	if sf.List {
		sweepcli.PrintList(os.Stdout)
		return 0
	}

	var sig sweepcli.Signals
	ctx, stopSignals := sig.Context("vtbench")
	defer stopSignals()

	p, err := sf.Params()
	if err != nil {
		return fatalf("%v", err)
	}
	// Whatever path leaves realMain — 0, 1, 3, 130, 143 — the sweep closes
	// first: its write-behind window drains, its journal and store close.
	defer p.Sweep.Close()
	p.Workers = *workers
	p.Ctx = ctx

	if *repair {
		if sf.StoreDir == "" {
			return fatalf("-repair needs -store")
		}
		return runRepair(sf.StoreDir, sf.MirrorDir)
	}

	w, closeOut, err := sf.OpenOutput()
	if err != nil {
		return fatalf("%v", err)
	}
	defer closeOut()

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

	// Sweep observability: the sweep carries its own Monitor, and any
	// flag that consumes spans turns the tracer on. With all of them off,
	// the sweep's Trace stays nil and every tracer hook is a nil-receiver
	// no-op — the contract behind the CI overhead gate.
	var tracer *sweepobs.Tracer
	if *sweeptrace != "" || *metricsOut != "" || *monitor != "" {
		tracer = sweepobs.New()
		p.Sweep.Trace = tracer
	}

	stopMonitor := func() {}
	if *monitor != "" {
		if stopMonitor, err = sweepcli.Serve("vtbench", "monitor", *monitor, p.Sweep.Monitor.Handler()); err != nil {
			return fatalf("%v", err)
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
		// A worker's local store has no journal, but a store that cannot
		// be opened is a set-up error all the same.
		if err := p.Sweep.OpenStore(p); err != nil {
			return fatalf("%v", err)
		}
		code := runWorkerMode(ctx, &sig, p, *workerURL, *workerID, *slots, *dieAfter)
		stopMonitor()
		return code
	}

	if err := p.Sweep.OpenJournal(p); err != nil {
		return fatalf("%v", err)
	}

	r, exitCode, err := sf.RunExperiments("vtbench", p, w)
	if err != nil {
		return fatalf("%v", err)
	}
	if sf.Checkpoint && (r.CheckpointHits > 0 || r.CheckpointMisses > 0 || r.CheckpointsCaptured > 0) {
		fmt.Fprintf(w, "checkpoints: %d captured, %d forks, %d misses, %d prefix cycles saved\n",
			r.CheckpointsCaptured, r.CheckpointHits, r.CheckpointMisses, r.PrefixCyclesSaved)
	}
	if p.Sampling.Enabled() && r.SampledRuns > 0 {
		fmt.Fprintf(w, "sampling %s: %d sampled runs, %d spans, %d extrapolated cycles, %d functional instrs, max error bound %.2f%%\n",
			p.Sampling, r.SampledRuns, r.SampledSpans, r.ExtrapolatedCycles, r.FunctionalInstrs, 100*r.MaxErrorBound)
	}
	if r.StoreRepairs > 0 || r.StoreRetries > 0 {
		fmt.Fprintf(w, "result store: %d objects healed from the mirror, %d transient I/O retries\n",
			r.StoreRepairs, r.StoreRetries)
	}
	if r.Failures > 0 {
		fmt.Fprintf(w, "supervisor: %d failed runs\n", r.Failures)
		if sf.FailDir != "" {
			fmt.Fprintf(w, "supervisor: repro bundles in %s; re-run with the same -store %s to execute the failed jobs again\n",
				sf.FailDir, sf.StoreDir)
		}
	}

	// The sweep is complete: drain in-flight monitor scrapes gracefully,
	// then flush the observability outputs from the final state.
	stopMonitor()
	if tracer != nil {
		if err := writeSweepObservability(p, tracer, *sweeptrace, *metricsOut); err != nil {
			return fatalf("%v", err)
		}
	}
	if err := sf.WriteJSON("vtbench", r); err != nil {
		return fatalf("%v", err)
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
	return sig.ExitCode(exitCode)
}

// runWorkerMode joins a vtsweepd fleet: pull jobs, execute them through
// the local supervised harness (with the local -store as cache), and
// stream outcomes back. Exit 0 when the sweep completes, 130/143 on
// graceful shutdown, 1 on error.
func runWorkerMode(ctx context.Context, sig *sweepcli.Signals, p harness.Params, url, id string, slots, dieAfter int) int {
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
		return sig.ExitCode(0)
	default:
		return fatalf("worker: %v", err)
	}
}

// writeSweepObservability flushes the tracer's span dump to the
// requested outputs: the raw JSON dump (vtreport -tracepath input, which
// also renders it for Perfetto), the result-store artifact (when a store
// is attached), and the final Prometheus exposition.
func writeSweepObservability(p harness.Params, tracer *sweepobs.Tracer, tracePath, metricsPath string) error {
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
	if p.CacheDir != "" {
		// Best-effort: a trace that fails to commit must not fail a sweep
		// whose results committed fine.
		if err := p.Sweep.PersistTrace(p, d); err != nil {
			fmt.Fprintf(os.Stderr, "vtbench: persist sweep trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "vtbench: sweep trace committed to store %s\n", p.CacheDir)
		}
	}
	if metricsPath != "" {
		return writeFile("metricsdump", metricsPath, p.Sweep.Monitor.WriteMetrics)
	}
	return nil
}

// writeFile creates path, fills it through write, and reports it written;
// errors name the flag that asked for the file.
func writeFile(flagName, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("%s: %v", flagName, err)
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("%s: %v", flagName, werr)
	}
	fmt.Fprintf(os.Stderr, "vtbench: wrote %s\n", path)
	return nil
}

// runRepair opens the result store, audits every object on every side,
// heals damaged copies bit-identically from a healthy replica, brings a
// journal that is missing or behind on one side up to the other's (a
// lost side is rebuilt whole, ready for a re-run), and prints the report.
// Exit 0 when the store is (or was made) fully healthy, 1 on a setup
// error, 3 when objects remain unrecoverable — those were quarantined,
// so the next sweep re-simulates them.
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
	fmt.Printf(": %d objects checked, %d healthy, %d repaired\n",
		rep.Checked, rep.Healthy, rep.Repaired)
	for _, b := range rep.Backfilled {
		fmt.Printf("back-filled: %s\n", b)
	}
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
