package harness

import (
	"encoding/json"
	"fmt"

	"repro/internal/resultstore"
	"repro/internal/sweepobs"
)

// Sweep-trace persistence: the span dump of a traced sweep is stored
// through the result store as a vtart artifact, so traces commit with
// the same durability (WAL, checksums, mirror replication) as results
// and survive for later `vtreport -tracepath <storedir>` analysis.

// SweepTraceArtifactKey is the artifact key of the persisted sweep
// trace. One per store: a re-run supersedes the previous sweep's trace.
const SweepTraceArtifactKey = "sweeptrace"

// PersistTrace commits the dump into the sweep's result store as the
// vtart object SweepTraceArtifactKey. No-op without a store or a dump; returns the
// commit error so the caller can report (not fail) the sweep.
func (s *Sweep) PersistTrace(p Params, d *sweepobs.Dump) error {
	st, err := s.store(p)
	if err != nil || st == nil || d == nil {
		return err
	}
	b, err := json.Marshal(d)
	if err != nil {
		return err
	}
	tx := st.Begin()
	tx.Put(resultstore.KindArtifact, SweepTraceArtifactKey, b)
	return p.commitStoreTx(tx)
}

// LoadSweepTrace reads a persisted sweep trace back from a store
// directory (vtreport's -tracepath with a directory argument). The
// store is opened read-mostly and closed again; mirror may be empty.
func LoadSweepTrace(dir, mirror string) (*sweepobs.Dump, error) {
	st, err := resultstore.Open(resultstore.Options{Dir: dir, Mirror: mirror})
	if err != nil {
		return nil, fmt.Errorf("open store %s: %w", dir, err)
	}
	defer st.Close()
	b, err := st.Get(resultstore.KindArtifact, SweepTraceArtifactKey)
	if err != nil {
		return nil, fmt.Errorf("read sweep trace from %s: %w", dir, err)
	}
	var d sweepobs.Dump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("decode sweep trace: %w", err)
	}
	if d.SchemaVersion != sweepobs.DumpSchemaVersion {
		return nil, fmt.Errorf("sweep trace schema %d (want %d)", d.SchemaVersion, sweepobs.DumpSchemaVersion)
	}
	return &d, nil
}
