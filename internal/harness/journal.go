package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// The completion journal makes sweeps resumable. Every executed run's
// outcome appends one JSON line to it, in the same result-store
// transaction that stores the Result (see CommitOutcome). A later
// invocation opened with resume=true reads the journal to report what
// already completed — successful runs are disk-cache hits, failed runs
// were never cached and so re-execute naturally — and
// RunMetrics.ResumedFailed counts the re-runs so "only the failed jobs
// were redone" is checkable.
//
// File format (JSONL): the first line is a header {"meta": {...}}
// identifying the sweep shape (journal version, scale, dilution, config
// name); every following line is one JournalEntry. Append-only: a
// crashed sweep leaves a valid prefix, and a torn final line is skipped
// on load.

// journalVersion invalidates journals when the line format changes.
const journalVersion = 1

// JournalFileName is the journal's file name inside a cache/store
// directory. Result-store transactions append entries under this name
// on every replica side, so it is part of the store layout contract.
const JournalFileName = "journal.jsonl"

// JournalMeta identifies the sweep a journal belongs to. A resume whose
// parameters produce a different meta is refused: its fingerprints would
// not line up with the journal's entries.
type JournalMeta struct {
	Version int    `json:"version"`
	Scale   int    `json:"scale"`
	Dilute  int    `json:"dilute"`
	Config  string `json:"config"`
	// Sampling is the sweep's sampling configuration in
	// gpu.SamplingOptions.String form ("detailed:fastforward:warmup"),
	// empty for exact sweeps. Sampled cycle counts are extrapolations, so
	// a sampled sweep must not resume an exact journal (or vice versa, or
	// one with different windows): the field makes such metas unequal,
	// which openJournal refuses. Exact sweeps keep the historical header
	// (the field is omitted), so existing journals remain resumable.
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

// Journal is the sweep's view of its completion journal. The file's
// lines are appended by result-store transactions (CommitOutcome); the
// Journal holds the status map of what this sweep recorded, plus, on a
// resume, what the file held when it was opened. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	status map[string]string // cache key -> latest status
}

// openJournal adopts the journal at path for the sweep described by meta
// (Sweep.OpenJournal derives both from Params) and returns its view; see
// adoptJournal. resume is the one case that reads the entries: they are
// replayed into the status map that Status and Summary report.
func openJournal(path string, meta JournalMeta, resume bool) (*Journal, error) {
	jl := &Journal{status: map[string]string{}}
	var replay map[string]string
	if resume {
		replay = jl.status
	}
	if err := adoptJournal(path, meta, replay); err != nil {
		return nil, err
	}
	return jl, nil
}

// adoptJournal makes the journal at path one that belongs to the sweep
// described by meta. A journal whose header matches is left exactly as
// it is — not rewritten, not fsynced — and a missing, foreign or damaged
// one is replaced by a fresh header (the old bytes rotated aside), which
// is made durable. A non-nil replay makes it a resume: the entries are
// replayed into it, and a missing or foreign journal is refused instead
// of replaced.
func adoptJournal(path string, meta JournalMeta, replay map[string]string) error {
	resume := replay != nil
	meta.Version = journalVersion
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("harness: create journal dir: %w", err)
		}
	}
	existing, err := os.Open(path)
	switch {
	case err == nil:
		err = readJournal(existing, meta, replay)
		existing.Close()
		if err == nil {
			return nil
		}
		if resume {
			return err
		}
		// Fresh sweep over a foreign or damaged journal: keep the old
		// bytes inspectable, start over.
		rotateAside(path)
	case !os.IsNotExist(err):
		return fmt.Errorf("harness: open journal: %w", err)
	case resume:
		return fmt.Errorf("harness: nothing to resume: no journal at %s", path)
	}
	return writeHeader(path, meta)
}

// rotateAside moves a foreign or damaged journal to path+".old", or to
// path+".old.N" for the first free N when earlier rotations already
// took the shorter names: one rotation must never clobber another, so
// every superseded sweep's bytes stay inspectable.
func rotateAside(path string) {
	dst := path + ".old"
	for n := 1; ; n++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s.old.%d", path, n)
	}
	os.Rename(path, dst)
}

// writeHeader starts a fresh journal file containing only the meta line
// and makes it durable. Every later line arrives through a result-store
// transaction, whose batch fsyncs the file.
func writeHeader(path string, meta JournalMeta) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("harness: create journal: %w", err)
	}
	b, err := json.Marshal(journalHeader{Meta: meta})
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if err = errors.Join(err, f.Sync(), f.Close()); err != nil {
		return fmt.Errorf("harness: write journal header: %w", err)
	}
	return nil
}

// readJournal checks that the journal f starts with want's header and,
// when replay is non-nil, replays its entries into it (cache key ->
// latest status); with replay nil it reads no further than the header
// line. A torn entry line (crashed writer) is skipped; a missing header,
// or one that does not belong to the sweep described by want, is an
// error.
func readJournal(f *os.File, want JournalMeta, replay map[string]string) error {
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return fmt.Errorf("harness: journal %s is empty", f.Name())
	}
	var hdr journalHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Meta.Version == 0 {
		return fmt.Errorf("harness: journal %s has no valid header line", f.Name())
	}
	if hdr.Meta != want {
		return fmt.Errorf("harness: journal %s belongs to a different sweep: recorded %+v, want %+v",
			f.Name(), hdr.Meta, want)
	}
	for replay != nil && sc.Scan() {
		var e JournalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.FP == "" {
			continue // torn line from a crashed writer
		}
		replay[e.FP] = e.Status
	}
	return nil
}

// Record notes an entry's status. The line itself reaches the file
// through the result-store transaction that commits the outcome (see
// CommitOutcome in supervisor.go).
func (jl *Journal) Record(e JournalEntry) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.status[e.FP] = e.Status
}

// Status returns the recorded status for a cache key ("" = never run).
func (jl *Journal) Status(fpKey string) string {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.status[fpKey]
}

// Summary counts recorded outcomes by status.
func (jl *Journal) Summary() (ok, failed int) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	for _, st := range jl.status {
		switch st {
		case "ok":
			ok++
		case "failed":
			failed++
		}
	}
	return ok, failed
}
