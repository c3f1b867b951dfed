package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The completion journal makes sweeps resumable. Every executed run
// appends one JSON line recording its outcome; the disk cache (see
// diskcache.go) holds the Results themselves. A later invocation opened
// with resume=true reads the journal to report what already completed —
// successful runs are disk-cache hits, failed runs were never cached and
// so re-execute naturally — and RunMetrics.ResumedFailed counts the
// re-runs so "only the failed jobs were redone" is checkable.
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
	// Status is "ok", "degraded" (succeeded on the safe-mode retry), or
	// "failed".
	Status   string `json:"status"`
	Attempts int    `json:"attempts"`
	Cycles   int64  `json:"cycles,omitempty"`
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

// Journal is an append-only completion journal. Safe for concurrent use.
// Its status map holds what this sweep recorded, plus, on a resume, what
// the file held when it was opened.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	status map[string]string // cache key -> latest status
}

// openJournal opens (creating if needed) the journal at path for the
// sweep described by meta (Sweep.OpenJournal derives both from Params),
// for appending. An existing journal written by a different sweep is
// rotated aside to path+".old" when resume is false, and refused with an
// error when resume is true. resume additionally requires the journal to
// exist — resuming nothing is almost certainly a flag mistake — and is
// the one case that reads the entries: they are replayed into the status
// map that Status and Summary report. A fresh sweep reads the header
// line alone.
func openJournal(path string, meta JournalMeta, resume bool) (*Journal, error) {
	jl := &Journal{status: map[string]string{}}
	var replay map[string]string
	if resume {
		replay = jl.status
	}
	f, err := adoptJournal(path, meta, replay)
	if err != nil {
		return nil, err
	}
	if f == nil {
		if f, err = os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644); err != nil {
			return nil, fmt.Errorf("harness: open journal: %w", err)
		}
	}
	jl.f = f
	return jl, nil
}

// seedJournal makes the journal at path one that belongs to the sweep
// described by meta, without reading its entries: a journal whose header
// matches is left exactly as it is — not rewritten, not fsynced — and a
// missing, foreign or damaged one is replaced by a fresh header (the old
// bytes rotated aside), which is made durable.
func seedJournal(path string, meta JournalMeta) error {
	f, err := adoptJournal(path, meta, nil)
	if err != nil || f == nil {
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}

// adoptJournal is what openJournal and seedJournal share. It checks the
// journal at path against meta and returns nil when an existing journal
// matches. Otherwise it starts a fresh journal holding only the header
// line and returns its O_APPEND handle. A non-nil replay makes it a
// resume: the entries are replayed into it, and a missing or foreign
// journal is refused instead of replaced.
func adoptJournal(path string, meta JournalMeta, replay map[string]string) (*os.File, error) {
	resume := replay != nil
	meta.Version = journalVersion
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: create journal dir: %w", err)
		}
	}
	existing, err := os.Open(path)
	switch {
	case err == nil:
		err = readJournal(existing, meta, replay)
		existing.Close()
		if err == nil {
			return nil, nil
		}
		if resume {
			return nil, err
		}
		// Fresh sweep over a foreign or damaged journal: keep the old
		// bytes inspectable, start over.
		rotateAside(path)
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("harness: open journal: %w", err)
	case resume:
		return nil, fmt.Errorf("harness: nothing to resume: no journal at %s", path)
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
// and returns its handle. The handle is opened with O_APPEND so every
// later Record is a single atomic append — two processes writing the
// same journal can interleave lines but never bytes within one.
func writeHeader(path string, meta JournalMeta) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: create journal: %w", err)
	}
	b, err := json.Marshal(journalHeader{Meta: meta})
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("harness: write journal header: %w", err)
	}
	return f, nil
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

// Record appends one entry. Best-effort on the file write (a journal that
// cannot be written must not fail the sweep); the in-memory status map is
// always updated.
func (jl *Journal) Record(e JournalEntry) {
	if e.Time == "" {
		e.Time = time.Now().UTC().Format(time.RFC3339)
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.status[e.FP] = e.Status
	if jl.f == nil {
		return
	}
	if b, err := json.Marshal(&e); err == nil {
		jl.f.Write(append(b, '\n'))
	}
}

// noteStatus records an entry in the in-memory status map without
// writing the file: used when the line was already appended durably
// through a result-store transaction (see CommitOutcome in supervisor.go).
func (jl *Journal) noteStatus(e JournalEntry) {
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
func (jl *Journal) Summary() (ok, degraded, failed int) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	for _, st := range jl.status {
		switch st {
		case "ok":
			ok++
		case "degraded":
			degraded++
		case "failed":
			failed++
		}
	}
	return ok, degraded, failed
}

// Close fsyncs and closes the journal file: sweep completion is the
// journal's durability point.
func (jl *Journal) Close() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return nil
	}
	jl.f.Sync()
	err := jl.f.Close()
	jl.f = nil
	return err
}
