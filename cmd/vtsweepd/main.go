// Command vtsweepd is the distributed sweep coordinator: it plans the
// requested experiments exactly like vtbench, but dispatches every
// simulation to a pull-based worker fleet (vtbench -worker) over the
// fabric job API instead of executing locally. Results, the completion
// journal, and checkpoints land in the coordinator's result store; the
// sweep monitor (HTML, /status JSON, Prometheus /metrics with per-worker
// labels, /debug/pprof/) serves on the same address as the job API.
//
// Usage:
//
//	vtsweepd -store c -run fig-swaplat            # serve on :7077, wait for workers
//	vtbench  -worker http://host:7077 -store w1   # ... on each worker machine
//	vtsweepd -store c -addr :9000 -lease-ttl 30s  # custom port and lease TTL
//	vtsweepd -store c -run fig-swaplat            # again: re-lease only what the store lacks
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
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/fabric"
	"repro/internal/sweepcli"
	"repro/internal/sweepobs"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		sf       = sweepcli.Register(flag.CommandLine)
		addr     = flag.String("addr", ":7077", "job API + fleet dashboard address")
		dispatch = flag.Int("dispatch", 64, "jobs dispatched to the fleet concurrently")
		leaseTTL = flag.Duration("lease-ttl", fabric.DefaultLeaseTTL, "job lease TTL; an unrenewed lease is reclaimed and re-dispatched")
	)
	flag.Parse()

	if sf.List {
		sweepcli.PrintList(os.Stdout)
		return 0
	}
	if sf.StoreDir == "" {
		return fatalf("-store is required: the coordinator owns the fleet's results and completion journal")
	}

	var sig sweepcli.Signals
	ctx, stopSignals := sig.Context("vtsweepd")
	defer stopSignals()

	p, err := sf.Params()
	if err != nil {
		return fatalf("%v", err)
	}
	// Deferred first, so it runs last, after the listener is down: the
	// sweep's window drains, its journal and store close.
	defer p.Sweep.Close()
	w, closeOut, err := sf.OpenOutput()
	if err != nil {
		return fatalf("%v", err)
	}
	defer closeOut()

	p.Sweep.Trace = sweepobs.New()

	if err := sf.OpenJournal(p); err != nil {
		return fatalf("%v", err)
	}

	// The coordinator's own Params have no Ctx: a completion arriving
	// during drain must still commit. Only the copy the experiments run
	// under, below, is cancellable; both carry the one Sweep.
	coord := fabric.New(fabric.Config{Params: p, LeaseTTL: *leaseTTL})
	defer coord.Close()

	stopServer, err := sweepcli.Serve("vtsweepd", fmt.Sprintf("job API + fleet dashboard (lease TTL %s)", *leaseTTL), *addr, coord.Handler())
	if err != nil {
		return fatalf("%v", err)
	}
	defer func() {
		coord.Close() // on an early return too: the shutdown waits for parked lease requests
		stopServer()
	}()

	sp := p
	sp.Executor = coord.Executor()
	sp.Workers = *dispatch
	sp.Ctx = ctx

	// Every completion was committed before it was acknowledged, so when
	// RunExperiments stops the sweep's wall clock the store already holds
	// all of them: what follows is the fleet taking its leave, not sweep
	// time.
	report, exitCode, err := sf.RunExperiments("vtsweepd", sp, w)
	if err != nil {
		return fatalf("%v", err)
	}
	// Sweep done (or signaled): close the queue, which answers every
	// parked lease request with 410 at once, and wait for the workers'
	// goodbyes before the deferred stopServer tears the listener down, so
	// none of them meets a refused connection. The trace commits while
	// they leave.
	closed := time.Now()
	coord.Close()
	if err := p.Sweep.PersistTrace(p, p.Sweep.Trace.Dump()); err != nil {
		// Best-effort: the results committed fine without it.
		fmt.Fprintf(os.Stderr, "vtsweepd: persist sweep trace: %v\n", err)
	}
	coord.Drain()
	drain := time.Since(closed)
	st := coord.Status()

	report.Workers = len(st.Workers)
	fmt.Fprintf(w, "fleet: %d workers, %d completions (%d duplicate), leases %d granted / %d renewed / %d expired / %d released, drain %dms\n",
		len(st.Workers), st.Completions, st.DuplicateCompletions,
		st.LeasesGranted, st.LeasesRenewed, st.LeasesExpired, st.LeasesReleased, drain.Milliseconds())
	if report.Failures > 0 {
		fmt.Fprintf(w, "supervisor: %d failed runs (journaled; re-run with the same -store to re-dispatch them)\n", report.Failures)
	}
	if err := sf.WriteJSON("vtsweepd", report); err != nil {
		return fatalf("%v", err)
	}
	return sig.ExitCode(exitCode)
}

func fatalf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "vtsweepd: "+format+"\n", args...)
	return 1
}
