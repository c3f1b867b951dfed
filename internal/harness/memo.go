package harness

import (
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/resultstore"
)

// The harness memoizes simulation runs: many experiments re-simulate the
// same (kernel, grid, config) point — e.g. the GTX 480 baseline and VT
// runs appear in the speedup figure, the ideal-gap figure, the TLP figure
// and several tables — so a full sweep would otherwise recompute identical
// deterministic results dozens of times. Runs are keyed by a content
// fingerprint of the kernel name, the grid parameters (scale and
// dilution, which fully determine the generated launch), and the
// JSON-serialized hardware config. Params.Workers is *not* part of the
// key: every simulation is single-threaded and deterministic, so how many
// run side by side cannot change a Result (TestWorkersEquivalence).
//
// Cached *gpu.Result values are shared between experiments and must be
// treated as immutable by all callers.

// RunMetrics counts the simulation work one sweep has performed. The
// JSON keys are the one spelling of these counters: the -json sweep record
// (sweepcli.Report embeds this struct), the /status metrics object, and
// the fabric wire (an Outcome's Work) all carry them. Counters that are zero on a clean exact sweep are omitted.
type RunMetrics struct {
	// Requests is the number of simulations experiments asked for.
	Requests int `json:"runs_requested"`
	// Executed is the number of gpu.Run calls actually performed.
	Executed int `json:"runs_executed"`
	// CacheHits is Requests satisfied from the memo cache (including
	// waits on an in-flight identical run) or the result store.
	CacheHits int `json:"cache_hits"`
	// SimCycles totals the simulated cycles of the executed runs; cache
	// hits add nothing. Divide by wall time for simcycles/s. With
	// Params.Checkpoint forked runs add their post-fork suffix alone (see
	// PrefixCyclesSaved); with Params.Sampling it includes extrapolated
	// cycles (see ExtrapolatedCycles), so neither is comparable to an
	// exact unforked baseline.
	SimCycles int64 `json:"sim_cycles"`

	// Supervisor counters (see supervisor.go).

	// Panics counts runs that panicked; InvariantTrips counts runs aborted
	// by the invariant checker; Deadlines counts runs aborted by the
	// wall-clock deadline.
	Panics         int `json:"panics,omitempty"`
	InvariantTrips int `json:"invariant_trips,omitempty"`
	Deadlines      int `json:"deadlines,omitempty"`
	// Failures counts runs that failed, for any reason, and became
	// RunFailure repro bundles.
	Failures int `json:"runs_failed,omitempty"`
	// ResumedFailed counts executed jobs that a resumed sweep's journal
	// had recorded as failed — the jobs -resume exists to re-run.
	ResumedFailed int `json:"resumed_failed,omitempty"`

	// Prefix-fork counters (Params.Checkpoint; see fork.go).

	// CheckpointsCaptured counts donor runs that produced a usable prefix
	// checkpoint; CheckpointHits counts jobs that started from one (in
	// memory or from the disk cache) instead of cycle zero;
	// CheckpointMisses counts fork-eligible jobs that found no usable
	// checkpoint and ran in full.
	CheckpointsCaptured int `json:"checkpoints_captured,omitempty"`
	CheckpointHits      int `json:"checkpoint_hits,omitempty"`
	CheckpointMisses    int `json:"checkpoint_misses,omitempty"`
	// PrefixCyclesSaved totals the already-simulated prefix cycles forked
	// runs skipped. SimCycles counts only cycles actually simulated, so
	// forked runs add their suffix alone.
	PrefixCyclesSaved int64 `json:"prefix_cycles_saved,omitempty"`

	// Sampled-run counters (Params.Sampling; see internal/gpu/sampling.go).

	// SampledRuns counts executed runs that ran in interval/sampled mode;
	// SampledSpans totals their completed fast-forward spans.
	// ExtrapolatedCycles is the portion of SimCycles those runs
	// extrapolated rather than simulated in detail, and FunctionalInstrs
	// is how many warp instructions they retired functionally.
	// MaxErrorBound is the largest per-run reported error bound, the
	// number a sweep-level accuracy claim must quote.
	SampledRuns        int     `json:"sampled_runs,omitempty"`
	SampledSpans       int64   `json:"sampled_spans,omitempty"`
	ExtrapolatedCycles int64   `json:"extrapolated_cycles,omitempty"`
	FunctionalInstrs   int64   `json:"functional_instrs,omitempty"`
	MaxErrorBound      float64 `json:"max_error_bound,omitempty"`

	// Result-store counters (Params.CacheDir/MirrorDir; see diskcache.go
	// and internal/resultstore).

	// StoreHits counts store reads that served a checksum-verified
	// payload; StoreMisses counts reads that found nothing usable,
	// including entries quarantined on the way out.
	StoreHits   int `json:"store_hits,omitempty"`
	StoreMisses int `json:"store_misses,omitempty"`
	// StoreRepairs counts objects healed bit-identically from a replica
	// after a checksum mismatch; StoreRetries counts transient store I/O
	// errors absorbed by the bounded retry-with-backoff.
	StoreRepairs int `json:"store_repairs,omitempty"`
	StoreRetries int `json:"store_retries,omitempty"`
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
	m.Failures += d.Failures
	m.ResumedFailed += d.ResumedFailed
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

// memoEntry is one point — its content fingerprint, cache key and
// resolved config — and the point's outcome, shared by every request for
// it: the first request resolves it, the rest wait on done.
type memoEntry struct {
	fp   string
	key  string // CacheKey(fp), set once by the owner's resolve
	cfg  config.GPUConfig
	done chan struct{} // closed once out and err are final
	out  Outcome
	err  error
}

// fingerprint identifies a simulation point. kernels.Build is
// deterministic, so (workload, scale, dilute) fully determines the
// launch — grid dimensions, code, and initial memory image. A sampled
// run's cycle count is an extrapolation that depends on the sampling
// windows, so an enabled samp is part of the key: sampled and exact
// results never alias, and neither do two different sampling
// configurations. Exact runs keep the historical key shape (no suffix),
// preserving existing disk caches.
//
// The config enters the key as its JSON form, which the sweep marshals
// once per distinct config value: a sweep asks for hundreds of points
// over a few dozen configs.
func (s *Sweep) fingerprint(workload string, scale, dilute int, cfg *config.GPUConfig, samp gpu.SamplingOptions) (string, error) {
	if dilute < 2 {
		dilute = 1
	}
	b, err := s.configJSON(cfg)
	if err != nil {
		return "", err
	}
	if samp.Enabled() {
		return fmt.Sprintf("%s|s%d|d%d|%s|samp=%s", workload, scale, dilute, b, samp), nil
	}
	return fmt.Sprintf("%s|s%d|d%d|%s", workload, scale, dilute, b), nil
}

// configJSON returns cfg's JSON form, marshaled on the sweep's first
// request for the config value and remembered after that.
func (s *Sweep) configJSON(cfg *config.GPUConfig) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.cfgJSON[*cfg]; ok {
		return b, nil
	}
	b, err := json.Marshal(cfg)
	if err == nil {
		s.cfgJSON[*cfg] = b
	}
	return b, err
}

// FingerprintKey returns the content fingerprint and cache key of one
// resolved job under p. The fabric keys wire jobs by the cache key —
// the same hex id that names the job's store object and journal lines
// — and workers recompute it to verify a lease describes the point
// they think it does.
func FingerprintKey(p Params, j Job) (fp, key string, err error) {
	s, err := p.sweep()
	if err != nil {
		return "", "", err
	}
	cfg := j.ConfigFor(p)
	fp, err = s.fingerprint(j.Workload, p.Scale, p.Dilute, &cfg, p.Sampling)
	if err != nil {
		return "", "", err
	}
	return fp, CacheKey(fp), nil
}

// ExecuteJob takes one job through the memo on its own — it resolves the
// job's point if it is the first request for it and otherwise waits for
// the request that was — and returns the point's Outcome. It is the fabric
// worker's entry point: the Outcome goes on the wire whole.
func ExecuteJob(p Params, j Job) (Outcome, error) {
	s, err := p.sweep()
	if err != nil {
		return Outcome{}, err
	}
	e, owner, err := s.claim(p, j)
	if err != nil {
		return Outcome{}, err
	}
	if owner {
		s.resolve(p, j, e)
	}
	<-e.done
	return e.out, e.err
}

// claim is the one place a job gets its identity and is counted: it
// fingerprints j under p, counts the request, and returns the sweep's
// memo entry for the point — a new one, which the caller owns and must
// resolve, when no request has reached the point before.
func (s *Sweep) claim(p Params, j Job) (e *memoEntry, owner bool, err error) {
	cfg := j.ConfigFor(p)
	fp, err := s.fingerprint(j.Workload, p.Scale, p.Dilute, &cfg, p.Sampling)
	if err != nil {
		return nil, false, fmt.Errorf("harness: %s/%s has no fingerprint: %w", j.Workload, j.Variant, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Requests++
	if e = s.memo[fp]; e == nil {
		e = &memoEntry{fp: fp, cfg: cfg, done: make(chan struct{})}
		s.memo[fp] = e
		owner = true
	}
	return e, owner, nil
}

// resolve settles an owned entry for everyone waiting on it: it asks the
// result store, and only on a miss hands the job to p's Executor — whose
// Outcome.Work it then folds into the sweep's counters and Monitor. A
// store hit costs nothing: Executed and SimCycles stay untouched, so
// simcycles/s reflects real simulation work (a resumed sweep reads ~0,
// not a stale cumulative average).
func (s *Sweep) resolve(p Params, j Job, e *memoEntry) {
	defer close(e.done)
	e.key = CacheKey(e.fp)
	st, err := s.store(p)
	if err != nil {
		e.err = err
		return
	}
	// Fault-injected runs bypass the store in both directions: a cached
	// hit would skip the fault, and an injected outcome must never be
	// served to an un-injected sweep.
	if st != nil && !p.injects(j.Workload, j.Variant) {
		if env := s.loadEnvelope(p, st, resultstore.KindResult, "store.get", j, e.fp, e.key); env != nil {
			e.out = Outcome{Entry: buildJournalEntry(j, e.key, env.Result, nil, ""), Result: env.Result}
			return
		}
	}
	// The sweep that owns the journal knows which jobs a resumed sweep is
	// re-running because they failed last time.
	resumedFailed := p.Resume && s.Journal != nil && s.Journal.Status(e.key) == "failed"
	e.out, e.err = p.executor().Execute(p, j, e.cfg, e.fp)
	work := e.out.Work
	if resumedFailed {
		work.ResumedFailed++
	}
	s.count(func(m *RunMetrics) { m.add(work) })
	if work.SimCycles > 0 {
		s.Monitor.noteFinished(work.SimCycles)
	}
}
