// Package resultstore is a content-addressed, transactional object store
// with primary+mirror replication for the harness's durable state:
// memoized run results (vtsim), prefix checkpoints (vtck), artifacts
// such as the sweep trace (vtart), and completion journal lines. It
// holds two things — checksummed single-file objects and appended lines
// — on one or two sides that are both always live.
//
// # Layout (per side directory)
//
//	vtsim-<key>.json            run result
//	vtck-<key>.json             prefix checkpoint
//	vtart-<key>.json            artifact
//	journal.jsonl               completion journal (appended through txs)
//	store-index.jsonl           append-only object index: key -> checksum
//	store-audit.jsonl           append-only audit log of store events
//	.vtstore/wal/               redo + commit records
//	.vtstore/staging/           staged payloads awaiting commit
//
// store-index.jsonl is what makes an object servable: a read returns
// only bytes whose SHA-256 an index line records. An object file no
// index line vouches for — debris, a hand-copied file, a cache directory
// older than the store — is treated like a checksum mismatch: healed
// from the other side when that side holds an indexed copy, quarantined
// otherwise, and the caller recomputes.
//
// # Commit protocol
//
// A transaction's puts are staged under .vtstore/staging (written, then
// fsynced together in one round, then read back and checksum-verified),
// then a manifest listing every operation is written and fsynced as
// .vtstore/wal/<tx>.redo. The atomic rename of <tx>.redo to <tx>.commit
// is the commit point. After it, the manifest is applied: staged files
// rename to their final object names, journal lines append, index lines
// append, and the same operations replicate to the mirror; one more
// round fsyncs everything both sides touched, and only then is the
// commit record deleted. Open() recovers both directions: a surviving
// .redo rolls back (delete staged files and the record — the
// transaction never happened), a surviving .commit rolls forward
// idempotently (appends are at-least-once; all line-oriented readers in
// this codebase dedupe by key). A crash at any single point therefore
// yields either the full transaction or none of it.
//
// # Group commit
//
// Concurrent Tx.Commit calls coalesce. The first caller to find no
// commit in flight becomes the leader and runs the protocol; callers
// arriving meanwhile queue, and when the leader finishes, the first of
// them leads everything queued as one batch: one manifest holding every
// member's operations, so K transactions pay one redo record, one
// commit-point rename, one fsync per directory and per appended file,
// instead of K of each, and the fsyncs that stay per object are issued
// concurrently, a round at a time (see syncSet). A batch is just a
// bigger transaction — staging, checksums, replication, the manifest
// schema and recovery do not know the difference — so it lands whole or
// not at all, and every member's Commit returns the batch's outcome.
//
// The store assumes a single process per directory pair (the sweep
// harness, or the fabric coordinator for a fleet).
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faultinject"
)

// Kind names an object class; it is also the on-disk filename prefix.
type Kind string

const (
	// KindResult is a memoized run result (vtsim-<key>.json).
	KindResult Kind = "vtsim"
	// KindCheckpoint is a prefix checkpoint envelope (vtck-<key>.json).
	KindCheckpoint Kind = "vtck"
	// KindArtifact is a sweep-level artifact (the sweep trace) under
	// vtart-<key>.json.
	KindArtifact Kind = "vtart"
)

// ErrNotFound reports that no readable copy of an object exists on any
// side. Corrupt copies with no healthy replica have been
// quarantined by the time Get returns this.
var ErrNotFound = errors.New("resultstore: object not found")

// ErrClosed is what Commit returns on a store that has been closed.
var ErrClosed = errors.New("resultstore: store is closed")

const (
	vtstoreDir = ".vtstore"
	indexFile  = "store-index.jsonl"
	auditFile  = "store-audit.jsonl"
)

// Options configures Open.
type Options struct {
	// Dir is the primary store directory (required).
	Dir string
	// Mirror, when non-empty, attaches a replica directory: transactions
	// apply to both sides, reads fail over, and Repair copies between
	// them.
	Mirror string
	// Fault, when non-nil, intercepts every filesystem operation of this
	// store instance (crash drills and kill-point sweeps).
	Fault *faultinject.StoreHook
	// OnEvent, when non-nil, observes every audit event (repair,
	// quarantine, failover-read, rollback, ...). Called with the store lock
	// held; must not call back into the store.
	OnEvent func(Event)
}

// Event is one audit-log record.
type Event struct {
	Time   string `json:"time"`
	Op     string `json:"op"`
	Kind   string `json:"kind,omitempty"`
	Key    string `json:"key,omitempty"`
	Side   string `json:"side,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Counters are the store's operation counters. Callers observe the store
// through OnEvent; the counters are what this package's drills assert on.
type Counters struct {
	Gets             int64
	Hits             int64
	Misses           int64
	Commits          int64
	Repairs          int64
	Quarantines      int64
	FailoverReads    int64
	RecoveredCommits int64
	RolledBack       int64
}

// indexEntry is one store-index.jsonl line: the authoritative checksum
// for an object on that side. Later lines win; Drop lines delete.
type indexEntry struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
	SHA  string `json:"sha256,omitempty"`
	Size int64  `json:"size,omitempty"`
	Tx   string `json:"tx,omitempty"`
	Drop bool   `json:"drop,omitempty"`
	// OldSegs is never written: builds that split artifacts into value
	// segments set it, and loadIndex skips such lines.
	OldSegs int `json:"segs,omitempty"`
}

type objKey struct {
	kind Kind
	key  string
}

// side is one replica directory. dir never changes, so Get's miss path
// can consult it without the store lock; index belongs to Store.mu.
type side struct {
	dir   string
	index map[objKey]indexEntry
}

// Store is a transactional, replicated object store over one or two
// directories. Safe for concurrent use. Two locks split the work: qmu
// guards the group-commit queue (held for a few instructions, never
// across I/O), and mu is the commit lock — whoever holds it owns the
// directories' contents, the in-memory indexes and the counters. A
// batch commit holds mu for its whole protocol; reads that find
// something, repairs and admin operations take it too. The one caller
// that must not wait behind a commit's fsyncs is the sweep slot asking
// for a result nobody has computed yet, so a Get that is a definite
// miss answers from known and the directories alone (see Get).
type Store struct {
	mu       sync.Mutex
	fs       fsio
	sides    []*side // primary, then mirror; fixed by Open
	txSeq    int64
	counters Counters
	onEvent  func(Event)

	// known holds every objKey an index line has ever named on any side
	// (never pruned: a stale entry only costs the locked path), for the
	// lock-free miss path; lockFreeMisses counts the Gets answered there.
	known          sync.Map
	lockFreeMisses atomic.Int64

	qmu        sync.Mutex
	idle       *sync.Cond // on qmu: signalled when committing drops
	committing bool       // a leader is running the protocol
	queue      []*Tx      // arrived while committing; the next batch
	closed     bool
	dead       any // panic value that killed a leader; re-raised by every later Commit
}

// Open opens (creating if needed) the store over Dir and, optionally,
// Mirror, and runs crash recovery on both sides' write-ahead logs before
// returning.
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, errors.New("resultstore: Dir is required")
	}
	s := &Store{fs: fsio{hook: o.Fault}, onEvent: o.OnEvent}
	s.idle = sync.NewCond(&s.qmu)
	dirs := []string{o.Dir}
	if o.Mirror != "" {
		dirs = append(dirs, o.Mirror)
	}
	for _, d := range dirs {
		for _, sub := range []string{d, filepath.Join(d, vtstoreDir, "wal"), filepath.Join(d, vtstoreDir, "staging")} {
			if err := os.MkdirAll(sub, 0o755); err != nil {
				return nil, fmt.Errorf("resultstore: create %s: %w", sub, err)
			}
		}
		s.sides = append(s.sides, &side{dir: d, index: map[objKey]indexEntry{}})
	}
	for _, sd := range s.sides {
		if err := s.recoverSide(sd); err != nil {
			return nil, err
		}
	}
	for _, sd := range s.sides {
		s.loadIndex(sd)
	}
	return s, nil
}

// Close is the store's durability barrier: it refuses new commits
// (ErrClosed) and returns once every Commit already under way — the
// running batch and everything queued behind it — has finished. The
// store holds no long-lived file handles, so there is nothing else to
// release.
func (s *Store) Close() error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.closed = true
	for s.committing {
		s.idle.Wait()
	}
	return nil
}

// IsTransient reports whether err looks like a transient I/O failure
// worth a bounded retry (as opposed to corruption or absence).
func IsTransient(err error) bool {
	return errors.Is(err, faultinject.ErrInjectedIO) ||
		errors.Is(err, syscall.EIO) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.EINTR)
}

// sumHex is the store's end-to-end content checksum.
func sumHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// objPath names an object's file on a side.
func (s *Store) objPath(sd *side, kind Kind, key string) string {
	return filepath.Join(sd.dir, fmt.Sprintf("%s-%s.json", kind, key))
}

// roleOf labels a side for events and reports.
func (s *Store) roleOf(sd *side) string {
	if s.sides[0] == sd {
		return "primary"
	}
	return "mirror"
}

// other returns the side that is not sd (nil without a mirror).
func (s *Store) other(sd *side) *side {
	for _, o := range s.sides {
		if o != sd {
			return o
		}
	}
	return nil
}

// event appends to the primary's audit log (best-effort, outside the
// fault hook so audit writes never become kill points) and notifies the
// OnEvent observer. Callers hold s.mu.
func (s *Store) event(ev Event) {
	ev.Time = time.Now().UTC().Format(time.RFC3339)
	if s.onEvent != nil {
		s.onEvent(ev)
	}
	b, err := json.Marshal(&ev)
	if err != nil {
		return
	}
	f, err := os.OpenFile(filepath.Join(s.sides[0].dir, auditFile), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	f.Write(append(b, '\n'))
	f.Close()
}

// sideWriter is one side's output for the duration of one manifest pass
// (apply, replicate, repair): every line appended to the same file goes
// through one appender, and everything the pass owes the disk — the
// appended files, the files it writes, the side directory its objects
// are renamed into — collects in ss, whose flush pays it once. Callers
// hold s.mu.
type sideWriter struct {
	s    *Store
	sd   *side
	ss   *syncSet
	apps map[string]*appender // by slash-relative path
}

func (s *Store) writerFor(sd *side, ss *syncSet) *sideWriter {
	ss.dirs = append(ss.dirs, sd.dir)
	return &sideWriter{s: s, sd: sd, ss: ss, apps: map[string]*appender{}}
}

// line appends one line to rel (slash-relative to the side directory).
func (w *sideWriter) line(rel string, line []byte) error {
	a := w.apps[rel]
	if a == nil {
		a = w.s.fs.appender(w.ss, filepath.Join(w.sd.dir, filepath.FromSlash(rel)))
		w.apps[rel] = a
	}
	return retryOnce(func() error { return a.write(line) })
}

// index appends one index line and updates the in-memory index.
func (w *sideWriter) index(e indexEntry) error {
	b, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	if err := w.line(indexFile, b); err != nil {
		return err
	}
	k := objKey{Kind(e.Kind), e.Key}
	if e.Drop {
		delete(w.sd.index, k)
	} else {
		w.sd.index[k] = e
		w.s.known.Store(k, struct{}{})
	}
	return nil
}

// loadIndex replays a side's store-index.jsonl into memory. Torn or
// unparseable lines are skipped: an object whose index line was lost is
// unverifiable, and reads treat it as corrupt. (A line torn by a crash
// belongs to a transaction whose commit record survived it, and recovery
// rolls that forward, index line included.) A line for a segmented
// object of an older build is skipped too: what it names is not an
// object here.
func (s *Store) loadIndex(sd *side) {
	b, err := os.ReadFile(filepath.Join(sd.dir, indexFile))
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e indexEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Kind == "" || e.Key == "" {
			continue
		}
		if e.OldSegs > 0 {
			s.event(Event{Op: "skip-segmented", Kind: e.Kind, Key: e.Key, Side: s.roleOf(sd), Detail: "index line of an older build"})
			continue
		}
		k := objKey{Kind(e.Kind), e.Key}
		if e.Drop {
			delete(sd.index, k)
		} else {
			sd.index[k] = e
			s.known.Store(k, struct{}{})
		}
	}
}

// recoverSide replays a side's write-ahead log: .redo records roll back
// (the commit point was never reached), .commit records roll forward
// idempotently. Stray staged files with no surviving record are removed.
func (s *Store) recoverSide(sd *side) error {
	walDir := filepath.Join(sd.dir, vtstoreDir, "wal")
	stagingDir := filepath.Join(sd.dir, vtstoreDir, "staging")
	ents, err := os.ReadDir(walDir)
	if err != nil {
		return fmt.Errorf("resultstore: read wal %s: %w", walDir, err)
	}
	names := make([]string, 0, len(ents))
	for _, de := range ents {
		names = append(names, de.Name())
	}
	sort.Strings(names)
	deferred := false
	for _, name := range names {
		full := filepath.Join(walDir, name)
		switch {
		case strings.HasSuffix(name, ".redo"):
			txid := strings.TrimSuffix(name, ".redo")
			removeGlob(filepath.Join(stagingDir, txid+"-*"))
			os.Remove(full)
			s.counters.RolledBack++
			s.event(Event{Op: "rollback", Side: s.roleOf(sd), Detail: txid})
		case strings.HasSuffix(name, ".commit"):
			b, rerr := os.ReadFile(full)
			var m manifest
			if rerr != nil || json.Unmarshal(b, &m) != nil || m.Tx == "" {
				os.Rename(full, full+".corrupt")
				s.event(Event{Op: "wal-corrupt", Side: s.roleOf(sd), Detail: name})
				continue
			}
			// A put staged as several files is a segmented object of an
			// older build: skipped, its staged files swept below.
			m.Ops = slices.DeleteFunc(m.Ops, func(op manifestOp) bool {
				if op.Type != "put" || len(op.Staged) == 1 {
					return false
				}
				s.event(Event{Op: "skip-segmented", Kind: op.Kind, Key: op.Key, Side: s.roleOf(sd), Detail: "commit record of an older build"})
				return true
			})
			if s.rollForward(sd, &m, &syncSet{}, func(string) {}) {
				os.Remove(full)
				s.counters.RecoveredCommits++
				s.event(Event{Op: "recover-commit", Side: s.roleOf(sd), Detail: m.Tx})
			} else {
				deferred = true
				s.event(Event{Op: "recover-deferred", Side: s.roleOf(sd), Detail: m.Tx})
			}
		}
	}
	if !deferred {
		removeGlob(filepath.Join(stagingDir, "*"))
	}
	return nil
}

// removeGlob deletes the staged files matching pattern (best-effort:
// what stays is debris the next recovery sweeps again).
func removeGlob(pattern string) {
	matches, _ := filepath.Glob(pattern) // the patterns are well-formed
	for _, path := range matches {
		os.Remove(path)
	}
}
