// Package resultstore is a content-addressed, transactional object store
// with primary+mirror replication for the harness's durable state:
// memoized run results (vtsim), prefix checkpoints (vtck), artifacts
// such as the sweep trace (vtart), and the completion journal. It holds
// two things — checksummed objects and appended lines — on one or two
// sides that are both always live, and it writes every file in them.
//
// # Layout (per side directory)
//
//	objects.pack                every object of every kind: raw, unframed byte ranges
//	store-index.jsonl           append-only object index: kind, key -> sha256, size, off
//	journal.jsonl               completion journal: header via Adopt, lines via transactions
//	store-audit.jsonl           append-only audit log of store events
//	.vtstore/wal.jsonl          the write-ahead log (primary only)
//
// Every file but the log is append-only (Adopt renames a foreign journal
// aside); the log is written in place (see Commit protocol). An object
// is the byte range its latest store-index.jsonl line names in
// objects.pack, and a read returns only bytes whose SHA-256 that line
// records; a drop line (quarantine) makes an object absent. Bytes no
// live line names — a superseded artifact, a copy a heal replaced, a
// range a rolled-back batch staged — are dead and stay where they are:
// the pack is never rewritten. A directory in an older build's layout
// (one file per object, index lines without an offset,
// .vtstore/wal/*.commit records) is never served and never touched: only
// an index line with an offset names an object.
//
// # Commit protocol
//
// A transaction's puts are appended to the primary's pack, fsynced in
// one round, and read back and checksum-verified (I1). A manifest listing
// every operation, checksummed over its own bytes, is then written to
// .vtstore/wal.jsonl, fsynced and read back: that line is the commit
// point. After it, the manifest is applied — index lines name the staged
// ranges, journal lines append — and replicated: each range is read back
// from the primary and verified, appended to the mirror's pack, read back
// and verified there, and indexed. One more round fsyncs everything both
// sides touched (I2), and only then is a done line written after the
// manifest.
// Open() recovers: a torn or checksum-failing manifest rolls back (its
// pack bytes are simply never indexed), a manifest with no done line
// rolls forward idempotently (appends are at-least-once; all
// line-oriented readers in this codebase dedupe by key). A crash at any
// single point therefore yields either the full transaction or none of
// it.
//
// The log only ever needs the batches not yet done, and it never
// shrinks: once every record in it is done, the next manifest is
// written at offset 0, blank padding (spaces closed by a newline, which
// recovery skips) over the older records behind it; a deferred batch's
// records stay, and later ones follow them until the next Open. A clean
// Close blanks what the log holds with one unsynced overwrite, so no
// clean path truncates, renames or unlinks it, and none frees its
// blocks.
//
// # Group commit
//
// Concurrent Tx.Commit calls coalesce. The first caller to find no
// commit in flight becomes the leader and runs the protocol; callers
// arriving meanwhile queue, and when the leader finishes, the first of
// them leads everything queued as one batch: one manifest holding every
// member's operations. Once a side's files exist, a batch of any size
// creates, renames and removes nothing, and pays the same handful of
// fsyncs — one per file it appended to, in three rounds (see syncSet). A
// batch is just a bigger transaction — staging, checksums, replication,
// the manifest schema and recovery do not know the difference — so it
// lands whole or not at all, and every member's Commit returns the
// batch's outcome.
//
// The store assumes a single process per directory pair (the sweep
// harness, or the fabric coordinator for a fleet).
package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Kind names an object class.
type Kind string

const (
	// KindResult is a memoized run result.
	KindResult Kind = "vtsim"
	// KindCheckpoint is a prefix checkpoint envelope.
	KindCheckpoint Kind = "vtck"
	// KindArtifact is a sweep-level artifact (the sweep trace).
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
	walFile    = "wal.jsonl" // under vtstoreDir, on the primary
	packFile   = "objects.pack"
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
	Fault Hook
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

// indexEntry is one store-index.jsonl line: the authoritative range and
// checksum of an object in that side's pack. Later lines win; Drop lines
// delete. Off is always written, so a line without it is an older
// build's, naming a file rather than a range.
type indexEntry struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
	SHA  string `json:"sha256,omitempty"`
	Size int64  `json:"size,omitempty"`
	Off  int64  `json:"off"`
	Tx   string `json:"tx,omitempty"`
	Drop bool   `json:"drop,omitempty"`
}

type objKey struct {
	kind Kind
	key  string
}

// side is one replica directory; index and pack belong to Store.mu.
type side struct {
	dir   string
	index map[objKey]indexEntry
	// pack is the read handle on the side's objects.pack: opened by the
	// first read (readPack), dropped whenever the store opens a writer on
	// the side (writerFor) or starts an audit, closed by Close. A pack
	// this store recreates — a commit, a heal, Repair — is therefore read
	// through a fresh handle.
	pack *os.File
}

func (sd *side) path(rel string) string { return filepath.Join(sd.dir, filepath.FromSlash(rel)) }

// Store is a transactional, replicated object store over one or two
// directories. Safe for concurrent use. Two locks split the work: qmu
// guards the group-commit queue (held for a few instructions, never
// across I/O), and mu is the commit lock — whoever holds it owns the
// directories' contents, the in-memory indexes and the counters. A
// batch commit holds mu for its whole protocol; reads that find
// something, repairs and admin operations take it too. The one caller
// that must not wait behind a commit's fsyncs is the sweep slot asking
// for a result nobody has computed yet, so a Get that is a definite
// miss answers from known alone (see Get).
type Store struct {
	mu       sync.Mutex
	fs       fsio
	sides    []*side // primary, then mirror; fixed by Open
	txSeq    int64
	counters Counters
	onEvent  func(Event)
	// deferred is set while the log holds a committed batch whose apply
	// did not finish: Close must leave the log for the next Open.
	deferred bool
	// walNext is where the log's next record goes and walDirty how far
	// its bytes may be non-blank (see walWrite).
	walNext, walDirty int64

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
// Mirror, replays both sides' indexes and recovers the write-ahead log
// before returning.
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, errors.New("resultstore: Dir is required")
	}
	// Transaction ids only need to differ from those of any record an
	// earlier instance left in the log.
	s := &Store{fs: fsio{o.Fault}, onEvent: o.OnEvent, txSeq: time.Now().UnixNano()}
	if o.Fault == nil {
		s.fs.Hook = osHook{}
	}
	s.idle = sync.NewCond(&s.qmu)
	for i, d := range []string{o.Dir, o.Mirror} {
		if d == "" {
			continue
		}
		sd := &side{dir: d, index: map[objKey]indexEntry{}}
		if i == 0 {
			d = sd.path(vtstoreDir)
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("resultstore: create %s: %w", d, err)
		}
		s.sides = append(s.sides, sd)
	}
	// The sides' indexes replay concurrently.
	var wg sync.WaitGroup
	for _, sd := range s.sides {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.loadIndex(sd)
		}()
	}
	wg.Wait()
	s.recoverWAL()
	return s, nil
}

// Close is the store's durability barrier: it refuses new commits
// (ErrClosed) and returns once every Commit already under way — the
// running batch and everything queued behind it — has finished. With
// every logged batch done it blanks the write-ahead log's records in
// place with one unsynced overwrite (and writes nothing when it holds
// none), so the next Open decodes nothing; a store whose process has
// died (a drill's simulated death) touches nothing. The only long-lived file handles
// the store holds, one read handle per side's pack, close here.
func (s *Store) Close() error {
	s.qmu.Lock()
	s.closed = true
	for s.committing {
		s.idle.Wait()
	}
	dead := s.dead != nil
	s.qmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sd := range s.sides {
		s.dropPack(sd)
	}
	if !dead && !s.deferred && s.walDirty > 0 {
		// Best-effort and, like the audit log, outside the fault hook: a
		// record left in place is a done batch's, which replays as nothing.
		if fh, err := os.OpenFile(s.walPath(), os.O_WRONLY, 0); err == nil {
			fh.WriteAt(blank(s.walDirty), 0)
			fh.Close()
		}
	}
	return nil
}

// Adopt makes every side's rel start with the line first (the journal's
// header; transactions append the rest). A side whose copy starts with
// first and a newline is left as it is: one hooked read, no write, no
// fsync. Any other copy (foreign, damaged, torn or empty) is rotated to
// rel.old, or rel.old.N for the first free N, with a "rotate" audit
// event, and a fresh rel holding first is made durable, directory entry
// included. A failed rotation is an error naming the file.
func (s *Store) Adopt(rel string, first []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	want := append(append([]byte(nil), first...), '\n')
	var ss syncSet
	defer ss.drop()
	for _, sd := range s.sides {
		path := sd.path(rel)
		head, err := s.fs.head(path, len(want))
		switch {
		case err == nil && bytes.Equal(head, want):
			continue
		case err == nil:
			dst, err := s.fs.rotate(path)
			if err != nil {
				return err
			}
			s.event(Event{Op: "rotate", Key: rel, Side: s.roleOf(sd), Detail: filepath.Base(dst)})
		case !os.IsNotExist(err):
			return fmt.Errorf("resultstore: read %s: %w", path, err)
		}
		if err := s.writerFor(sd, &ss).line(rel, first); err != nil {
			return fmt.Errorf("resultstore: write %s: %w", path, err)
		}
	}
	if err := ss.flush(s.fs); err != nil {
		return fmt.Errorf("resultstore: make %s durable: %w", rel, err)
	}
	return nil
}

// IsTransient reports whether err looks like a transient I/O failure
// worth a bounded retry (as opposed to corruption or absence).
func IsTransient(err error) bool {
	return errors.Is(err, syscall.EIO) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.EINTR)
}

// sumHex is the store's end-to-end content checksum.
func sumHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func (s *Store) walPath() string { return s.sides[0].path(vtstoreDir + "/" + walFile) }

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
	f, err := os.OpenFile(s.sides[0].path(auditFile), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	f.Write(append(b, '\n'))
	f.Close()
}

// sideWriter is one side's output for the duration of one manifest pass
// (apply, replicate, repair): everything appended to the same file goes
// through one appender, and everything the pass owes the disk collects in
// ss, whose flush pays it once. Callers hold s.mu.
type sideWriter struct {
	s    *Store
	sd   *side
	ss   *syncSet
	apps map[string]*appender // by slash-relative path
}

// writerFor drops the side's pack read handle: whatever the writer
// appends, the next read opens the pack as it is then.
func (s *Store) writerFor(sd *side, ss *syncSet) *sideWriter {
	s.dropPack(sd)
	return &sideWriter{s: s, sd: sd, ss: ss, apps: map[string]*appender{}}
}

func (w *sideWriter) app(rel string) *appender {
	a := w.apps[rel]
	if a == nil {
		a = w.s.fs.appender(w.ss, w.sd.path(rel))
		w.apps[rel] = a
	}
	return a
}

// line appends one line to rel (slash-relative to the side directory).
func (w *sideWriter) line(rel string, line []byte) error {
	a := w.app(rel)
	return retryOnce(func() error { return a.line(line) })
}

// put appends payload to the side's pack, reads it back and verifies it
// against sha, and indexes the copy that verified.
func (w *sideWriter) put(e indexEntry, payload []byte) error {
	a := w.app(packFile)
	err := retryOnce(func() (err error) {
		e.Off, err = a.write(payload, false)
		return err
	})
	if err == nil {
		e.Off, err = w.s.fs.verify(a, e.Off, payload, e.SHA)
	}
	if err != nil {
		return err
	}
	return w.index(e)
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

// loadIndex replays a side's store-index.jsonl into memory. Torn,
// unparseable or malformed lines — a line without an offset among them —
// are skipped: an object whose index line was lost is absent, and reads
// recompute it. (A line torn by a crash belongs to a batch whose manifest
// has no done line, and recovery rolls that forward, index line
// included.) Nothing but the index names an object, so files of any
// other layout in the directory are neither served nor touched. It
// touches only sd and the concurrency-safe known set, so the sides load
// in parallel.
func (s *Store) loadIndex(sd *side) {
	b, _ := os.ReadFile(sd.path(indexFile))
	for _, line := range bytes.Split(b, []byte("\n")) {
		e := indexEntry{Off: -1}
		if err := json.Unmarshal(line, &e); err != nil || e.Kind == "" || e.Key == "" {
			continue
		}
		k := objKey{Kind(e.Kind), e.Key}
		switch {
		case e.Drop:
			delete(sd.index, k)
		case e.Off >= 0:
			sd.index[k] = e
			s.known.Store(k, struct{}{})
		}
	}
}

// recoverWAL replays the primary's write-ahead log: a manifest that is
// torn or fails its checksum rolls back — the commit point was never
// reached, and nothing indexes the ranges it staged — and a manifest
// with no done line rolls forward idempotently. Done lines go after the
// last non-blank byte; the log is left as it is, and with nothing
// deferred the next manifest is written over it from offset 0.
func (s *Store) recoverWAL() {
	b, _ := os.ReadFile(s.walPath())
	end := int64(len(bytes.TrimRight(b, " \n")))
	s.walNext, s.walDirty = end, end
	var pending []manifest
	done := map[string]bool{}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r walRecord
		m := manifest{}
		switch {
		case json.Unmarshal(line, &r) != nil || r.Tx == "":
		case r.Done:
			done[r.Tx] = true
			continue
		case sumHex(r.Ops) == r.Sum && json.Unmarshal(r.Ops, &m.Ops) == nil:
			m.Tx = r.Tx
			pending = append(pending, m)
			continue
		}
		s.counters.RolledBack++
		s.event(Event{Op: "rollback", Side: "primary", Detail: "torn or checksum-failing log record"})
	}
	for _, m := range pending {
		switch {
		case done[m.Tx]:
		case s.rollForward(&m, &syncSet{}, func(string) {}):
			s.walDone(m.Tx)
			s.counters.RecoveredCommits++
			s.event(Event{Op: "recover-commit", Side: "primary", Detail: m.Tx})
		default:
			s.deferred = true
			s.event(Event{Op: "recover-deferred", Side: "primary", Detail: m.Tx})
		}
	}
}
