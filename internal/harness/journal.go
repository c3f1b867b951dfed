package harness

// The completion journal records what a sweep ran. Every executed run's
// outcome appends one JSON line to it, in the same result-store
// transaction that stores the Result (see CommitOutcome). The sweep
// itself never reads the entries back: continuing an interrupted or
// partially failed sweep is running the same command over the same
// store, which serves every stored result and re-executes only the jobs
// it lacks (failed runs were never cached). The file is the record that
// drills and vtperf read and that vtreport audits.
//
// File format (JSONL): the first line is a header {"meta": {...}}
// identifying the sweep shape (journal version, scale, dilution, config
// name); every following line is one JournalEntry. Append-only: a
// crashed sweep leaves a valid prefix, and a torn final line is skipped
// by readers. The result store writes the file: the header through
// Store.Adopt (Sweep.OpenJournal), each entry in a CommitOutcome tx.

// journalVersion invalidates journals when the line format changes.
const journalVersion = 1

// JournalFileName is the journal's file name inside a cache/store
// directory. Result-store transactions append entries under this name
// on every replica side, so it is part of the store layout contract.
const JournalFileName = "journal.jsonl"

// JournalMeta identifies the sweep a journal belongs to. A sweep whose
// parameters encode a different header line rotates the journal aside
// and starts its own: its fingerprints would not line up with the entries.
type JournalMeta struct {
	Version int    `json:"version"`
	Scale   int    `json:"scale"`
	Dilute  int    `json:"dilute"`
	Config  string `json:"config"`
	// Sampling is the sweep's sampling configuration in
	// gpu.SamplingOptions.String form ("detailed:fastforward:warmup"),
	// empty for exact sweeps. Sampled cycle counts are extrapolations, so
	// a sampled sweep must not append to an exact journal (or vice versa,
	// or one with different windows): the field makes such metas unequal.
	// Exact sweeps keep the historical header (the field is omitted), so
	// existing journals still match.
	Sampling string `json:"sampling,omitempty"`
}

// JournalEntry records one executed run's outcome.
type JournalEntry struct {
	// FP is the run's cache key (see cacheKey): the hex id that also
	// names its disk-cache file.
	FP       string `json:"fp"`
	Workload string `json:"workload"`
	Variant  string `json:"variant,omitempty"`
	// Status is "ok" or "failed".
	Status string `json:"status"`
	Cycles int64  `json:"cycles,omitempty"`
	// ErrorBound, for sampled runs, is the run's reported fractional bound
	// on the cycle-count error (gpu.SamplingStats.ErrorBound); zero for
	// exact runs. It makes journals self-describing for accuracy drills
	// that compare a sampled sweep's cycles against an exact sweep's.
	ErrorBound float64 `json:"error_bound,omitempty"`
	Error      string  `json:"error,omitempty"`
	// ForkedFrom, for prefix-forked runs, names the checkpoint the run
	// resumed from as "<prefix-cache-key[:12]>@<cycle>" (see fork.go).
	ForkedFrom string `json:"forked_from,omitempty"`
	Time       string `json:"time"`
}

// journalHeader is the first line of the file.
type journalHeader struct {
	Meta JournalMeta `json:"meta"`
}
