package harness

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/gpu"
)

// The harness memoizes simulation runs: many experiments re-simulate the
// same (kernel, grid, config) point — e.g. the GTX 480 baseline and VT
// runs appear in the speedup figure, the ideal-gap figure, the TLP figure
// and several tables — so RunAll would otherwise recompute identical
// deterministic results dozens of times. Runs are keyed by a content
// fingerprint of the kernel name, the grid parameters (scale and
// dilution, which fully determine the generated launch), and the
// JSON-serialized hardware config. Params.Workers is *not* part of the
// key: every simulation is single-threaded and deterministic, so how many
// run side by side cannot change a Result (TestWorkersEquivalence).
//
// Cached *gpu.Result values are shared between experiments and must be
// treated as immutable by all callers.

// RunMetrics counts the simulation work performed by the harness since
// the last ResetMetrics.
type RunMetrics struct {
	// Requests is the number of simulations experiments asked for.
	Requests int
	// Executed is the number of gpu.Run calls actually performed.
	Executed int
	// CacheHits is Requests satisfied from the memo cache (including
	// waits on an in-flight identical run).
	CacheHits int
	// SimCycles totals the simulated cycles of the executed runs; cache
	// hits add nothing. Divide by wall time for simcycles/s.
	SimCycles int64

	// Supervisor counters (see supervisor.go). A retried run still counts
	// once in Executed, so CacheHits = Requests - Executed stays valid.

	// Panics counts first attempts that panicked; InvariantTrips counts
	// first attempts aborted by the invariant checker; Deadlines counts
	// first attempts aborted by the wall-clock deadline.
	Panics         int
	InvariantTrips int
	Deadlines      int
	// Retries counts safe-mode retries attempted after a panic or
	// invariant trip; Degraded counts runs whose result came from such a
	// retry (fast path disabled).
	Retries  int
	Degraded int
	// Failures counts runs that still failed after the retry ladder and
	// became RunFailure repro bundles.
	Failures int
	// ResumedFailed counts executed jobs that a resumed sweep's journal
	// had recorded as failed — the jobs -resume exists to re-run.
	ResumedFailed int

	// TelemetryWindows and TelemetrySpans total the metric windows and
	// lifecycle spans recorded by executed runs when Params.Telemetry is
	// set (cache hits record none).
	TelemetryWindows int64
	TelemetrySpans   int64

	// Prefix-fork counters (Params.Checkpoint; see fork.go).

	// CheckpointsCaptured counts donor runs that produced a usable prefix
	// checkpoint; CheckpointHits counts jobs that started from one (in
	// memory or from the disk cache) instead of cycle zero;
	// CheckpointMisses counts fork-eligible jobs that found no usable
	// checkpoint and ran in full.
	CheckpointsCaptured int
	CheckpointHits      int
	CheckpointMisses    int
	// PrefixCyclesSaved totals the already-simulated prefix cycles forked
	// runs skipped. SimCycles counts only cycles actually simulated, so
	// forked runs add their suffix alone.
	PrefixCyclesSaved int64

	// Sampled-run counters (Params.Sampling; see internal/gpu/sampling.go).

	// SampledRuns counts executed runs that ran in interval/sampled mode;
	// SampledSpans totals their completed fast-forward spans.
	// ExtrapolatedCycles is the portion of SimCycles those runs
	// extrapolated rather than simulated in detail, and FunctionalInstrs
	// is how many warp instructions they retired functionally.
	// MaxErrorBound is the largest per-run reported error bound, the
	// number a sweep-level accuracy claim must quote.
	SampledRuns        int
	SampledSpans       int64
	ExtrapolatedCycles int64
	FunctionalInstrs   int64
	MaxErrorBound      float64

	// Result-store counters (Params.CacheDir/MirrorDir; see diskcache.go
	// and internal/resultstore).

	// StoreHits counts store reads that served a checksum-verified
	// payload; StoreMisses counts reads that found nothing usable,
	// including entries quarantined on the way out.
	StoreHits   int
	StoreMisses int
	// StoreRepairs counts objects healed bit-identically from a replica
	// after a checksum mismatch; StoreRetries counts transient store I/O
	// errors absorbed by the bounded retry-with-backoff (distinct from
	// the supervisor's safe-mode simulation retries).
	StoreRepairs int
	StoreRetries int
}

// add folds another set of counters into m: every counter sums, and
// MaxErrorBound takes the maximum.
func (m *RunMetrics) add(d RunMetrics) {
	m.Requests += d.Requests
	m.Executed += d.Executed
	m.SimCycles += d.SimCycles
	m.Panics += d.Panics
	m.InvariantTrips += d.InvariantTrips
	m.Deadlines += d.Deadlines
	m.Retries += d.Retries
	m.Degraded += d.Degraded
	m.Failures += d.Failures
	m.ResumedFailed += d.ResumedFailed
	m.TelemetryWindows += d.TelemetryWindows
	m.TelemetrySpans += d.TelemetrySpans
	m.CheckpointsCaptured += d.CheckpointsCaptured
	m.CheckpointHits += d.CheckpointHits
	m.CheckpointMisses += d.CheckpointMisses
	m.PrefixCyclesSaved += d.PrefixCyclesSaved
	m.SampledRuns += d.SampledRuns
	m.SampledSpans += d.SampledSpans
	m.ExtrapolatedCycles += d.ExtrapolatedCycles
	m.FunctionalInstrs += d.FunctionalInstrs
	if d.MaxErrorBound > m.MaxErrorBound {
		m.MaxErrorBound = d.MaxErrorBound
	}
	m.StoreHits += d.StoreHits
	m.StoreMisses += d.StoreMisses
	m.StoreRepairs += d.StoreRepairs
	m.StoreRetries += d.StoreRetries
}

type memoEntry struct {
	once sync.Once
	out  Outcome
	err  error
}

var (
	memoMu    sync.Mutex
	memoCache = map[string]*memoEntry{}
	memoStats RunMetrics
)

// Metrics returns a snapshot of the work counters.
func Metrics() RunMetrics {
	memoMu.Lock()
	defer memoMu.Unlock()
	m := memoStats
	m.CacheHits = m.Requests - m.Executed
	return m
}

// ResetMetrics zeroes the work counters, empties the memo and
// checkpoint caches, closes any open result stores (so the next
// cached run reopens them — index replay plus WAL recovery — exactly
// like a fresh process). A Params.Monitor is owned by its sweep and is
// not touched.
func ResetMetrics() {
	resetStores()
	memoMu.Lock()
	defer memoMu.Unlock()
	memoStats = RunMetrics{}
	memoCache = map[string]*memoEntry{}
	ckCache = map[string]*ckEntry{}
}

// fingerprint identifies a simulation point. kernels.Build is
// deterministic, so (workload, scale, dilute) fully determines the
// launch — grid dimensions, code, and initial memory image. A sampled
// run's cycle count is an extrapolation that depends on the sampling
// windows, so an enabled samp is part of the key: sampled and exact
// results never alias, and neither do two different sampling
// configurations. Exact runs keep the historical key shape (no suffix),
// preserving existing disk caches.
func fingerprint(workload string, scale, dilute int, cfg *config.GPUConfig, samp gpu.SamplingOptions) (string, error) {
	if dilute < 2 {
		dilute = 1
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", err
	}
	if samp.Enabled() {
		return fmt.Sprintf("%s|s%d|d%d|%s|samp=%s", workload, scale, dilute, b, samp), nil
	}
	return fmt.Sprintf("%s|s%d|d%d|%s", workload, scale, dilute, b), nil
}

// FingerprintKey returns the content fingerprint and cache key of one
// resolved job under p. The fabric keys wire jobs by the cache key —
// the same hex id that names the job's store object and journal lines
// — and workers recompute it to verify a lease describes the point
// they think it does.
func FingerprintKey(p Params, j Job) (fp, key string, err error) {
	cfg := j.ConfigFor(p)
	fp, err = fingerprint(j.Workload, p.Scale, p.Dilute, &cfg, p.Sampling)
	if err != nil {
		return "", "", err
	}
	return fp, cacheKey(fp), nil
}

// CacheKey hashes a content fingerprint into the stable hex id used for
// store objects and journal entries (exported for the sweep fabric).
func CacheKey(fp string) string { return cacheKey(fp) }

// ExecuteJob runs one resolved job through the one path every job takes
// (memoRun) and returns its Outcome. It is the fabric worker's entry
// point: the Outcome goes on the wire whole.
func ExecuteJob(p Params, j Job) (Outcome, error) { return memoRun(p, j) }

// memoRun is the one place a job gets its identity and is accounted
// for: it fingerprints the job, counts the request, coalesces it with
// identical requests completed or in flight since the last
// ResetMetrics, asks the result store, and only on a miss hands the job
// to p's Executor — whose Outcome.Work it then folds into the process
// counters and the Monitor. A store hit costs nothing: Executed and
// SimCycles stay untouched, so simcycles/s reflects real simulation
// work (a resumed sweep reads ~0, not a stale cumulative average).
func memoRun(p Params, j Job) (Outcome, error) {
	cfg := j.ConfigFor(p)
	fp, err := fingerprint(j.Workload, p.Scale, p.Dilute, &cfg, p.Sampling)
	if err != nil {
		return Outcome{}, fmt.Errorf("harness: %s/%s has no fingerprint: %w", j.Workload, j.Variant, err)
	}
	memoMu.Lock()
	memoStats.Requests++
	e, ok := memoCache[fp]
	if !ok {
		e = &memoEntry{}
		memoCache[fp] = e
	}
	memoMu.Unlock()
	e.once.Do(func() {
		// Fault-injected runs bypass the store in both directions: a
		// cached hit would skip the fault, and a faulted (or degraded)
		// outcome must never be served to an un-injected sweep.
		if st := storeFor(p); st != nil && !p.injects(j.Workload, j.Variant) {
			sid := p.Trace.Begin(p.span, "store.get", j.Workload, j.Variant)
			res := diskLoad(p.ctx(), st, fp)
			if res != nil {
				p.Trace.SetAttr(sid, "outcome", "hit")
				p.Trace.End(sid)
				e.out = Outcome{Entry: buildJournalEntry(j, fp, "ok", 0, res, nil, ""), Result: res}
				return
			}
			p.Trace.SetAttr(sid, "outcome", "miss")
			p.Trace.End(sid)
		}
		// The process that owns the journal knows which jobs a resumed
		// sweep is re-running because they failed last time.
		resumedFailed := p.Resume && p.Journal != nil && p.Journal.Status(cacheKey(fp)) == "failed"
		e.out, e.err = p.executor().Execute(p, j, cfg, fp)
		work := e.out.Work
		if resumedFailed {
			work.ResumedFailed++
		}
		bumpMetric(func(m *RunMetrics) { m.add(work) })
		if work.SimCycles > 0 {
			p.Monitor.noteFinished(work.SimCycles)
		}
	})
	return e.out, e.err
}
