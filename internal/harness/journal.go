package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

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
// by readers.

// journalVersion invalidates journals when the line format changes.
const journalVersion = 1

// JournalFileName is the journal's file name inside a cache/store
// directory. Result-store transactions append entries under this name
// on every replica side, so it is part of the store layout contract.
const JournalFileName = "journal.jsonl"

// JournalMeta identifies the sweep a journal belongs to. A sweep whose
// parameters produce a different meta rotates the journal aside and
// starts its own: its fingerprints would not line up with the entries.
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

// adoptJournal makes the journal at path one that belongs to the sweep
// described by meta. A journal whose header matches is left exactly as
// it is — not rewritten, not fsynced, not read past its header — and a
// missing, foreign or damaged one is replaced by a fresh header (the old
// bytes rotated aside), which is made durable.
func adoptJournal(path string, meta JournalMeta) error {
	meta.Version = journalVersion
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("harness: create journal dir: %w", err)
		}
	}
	existing, err := os.Open(path)
	switch {
	case err == nil:
		err = readHeader(existing, meta)
		existing.Close()
		if err == nil {
			return nil
		}
		// A foreign or damaged journal: keep the old bytes inspectable,
		// start over.
		if err := rotateAside(path); err != nil {
			return err
		}
	case !os.IsNotExist(err):
		return fmt.Errorf("harness: open journal: %w", err)
	}
	return writeHeader(path, meta)
}

// rotateAside moves a foreign or damaged journal to path+".old", or to
// path+".old.N" for the first free N when earlier rotations already
// took the shorter names: one rotation must never clobber another, so
// every superseded sweep's bytes stay inspectable. A rotation that fails
// is an error: the fresh header would otherwise truncate the bytes it
// meant to keep.
func rotateAside(path string) error {
	dst := path + ".old"
	for n := 1; ; n++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s.old.%d", path, n)
	}
	if err := os.Rename(path, dst); err != nil {
		return fmt.Errorf("harness: rotate journal %s aside: %w", path, err)
	}
	return nil
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

// readHeader checks that the journal f starts with want's header; it
// reads no further than that line. A missing header, or one that does
// not belong to the sweep described by want, is an error.
func readHeader(f *os.File, want JournalMeta) error {
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
	return nil
}
