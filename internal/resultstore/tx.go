package resultstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// manifest is one transaction's redo record: everything needed to roll
// the transaction forward after the commit point, with end-to-end
// checksums for every staged payload.
type manifest struct {
	Tx  string       `json:"tx"`
	Ops []manifestOp `json:"ops"`
}

type manifestOp struct {
	Type string `json:"type"` // "put" or "append"
	Kind string `json:"kind,omitempty"`
	Key  string `json:"key,omitempty"`
	SHA  string `json:"sha256,omitempty"` // payload checksum
	Size int64  `json:"size,omitempty"`
	// Staged names the put's one staged file. It stays an array so that
	// commit records interchange with older builds, whose segmented puts
	// staged several files (recovery skips those).
	Staged []string `json:"staged,omitempty"`
	Rel    string   `json:"rel,omitempty"`  // append target, slash-relative to the side dir
	Line   []byte   `json:"line,omitempty"` // append payload (one line, no newline)
}

type txOp struct {
	put     bool
	kind    Kind
	key     string
	payload []byte
	sha     string // sha256 of payload
	rel     string
	line    []byte
}

// Tx accumulates puts and appends that commit atomically. A Tx is not
// safe for concurrent use; Commit may be retried after a transient
// error (the operations are retained until a commit succeeds).
type Tx struct {
	s   *Store
	ops []txOp

	// Set by the batch's leader before it wakes this Tx's Commit.
	err    error
	phases []TxPhase
	batch  TxBatch
	// turn is how a queued Commit learns its fate: it receives the batch
	// it must lead (itself first), or is closed once a leader has carried
	// it.
	turn chan []*Tx
}

// TxPhase is the wall-clock timing of one commit-protocol phase:
// "stage" (staging writes, their fsync round, read-back verification),
// "commit" (redo record write + the commit-point rename), "apply"
// (staged files renamed into place and indexed), "replicate" (mirror
// copy-through). The final fsync round, which covers both sides, is
// timed under the last phase. Observability-only; the harness tracer
// files these as store.* spans.
type TxPhase struct {
	Name  string
	Start time.Time
	Dur   time.Duration
}

// Phases returns the phase timings of the batch the most recent Commit
// attempt rode in (nil before the first): they start when the batch's
// leader starts waiting for the commit lock and tile the protocol from
// there. Every member of a batch reports the same slice; it must not be
// modified.
func (t *Tx) Phases() []TxPhase { return t.phases }

// TxBatch describes the group commit a transaction rode in.
type TxBatch struct {
	Txs int // transactions in the shared manifest
	Ops int // operations in the shared manifest
	// Syncs is the number of fsyncs the batch issued, Rounds the number
	// of blocking rounds it paid them in.
	Syncs, Rounds int
	// Lead is true for the one member whose Commit call ran the protocol
	// — the place to account for the batch exactly once.
	Lead bool
}

// Batch describes the batch of the most recent Commit attempt.
func (t *Tx) Batch() TxBatch { return t.batch }

// Begin starts a transaction.
func (s *Store) Begin() *Tx { return &Tx{s: s} }

// Put stages one object write.
func (t *Tx) Put(kind Kind, key string, payload []byte) {
	p := append([]byte(nil), payload...)
	t.ops = append(t.ops, txOp{put: true, kind: kind, key: key, payload: p, sha: sumHex(p)})
}

// Append stages one journal-style line append to rel (slash-relative to
// the store directory), replicated to the mirror like any object write.
func (t *Tx) Append(rel string, line []byte) {
	t.ops = append(t.ops, txOp{rel: rel, line: append([]byte(nil), line...)})
}

// Commit makes the transaction durable: it joins the group commit (see
// the package doc) and returns when the batch carrying it has run the
// protocol — stage, write redo record, rename to commit record (the
// commit point), apply, replicate, release. An error return means the
// batch did not commit and was rolled back; it may be retried. After
// the commit point Commit returns nil even if an apply step failed —
// the surviving commit record re-applies on the next Open. If the
// batch's leader panics (a crash drill's simulated process death), the
// store is dead: this and every later Commit re-raises the same value.
func (t *Tx) Commit() error {
	if len(t.ops) == 0 {
		return nil
	}
	s := t.s
	s.qmu.Lock()
	if s.dead != nil {
		s.qmu.Unlock()
		panic(s.dead)
	}
	if s.closed {
		s.qmu.Unlock()
		return ErrClosed
	}
	if !s.committing {
		// Nothing in flight: lead a batch of one right away. Whatever
		// arrives while it runs forms the next, larger batch.
		s.committing = true
		s.qmu.Unlock()
		s.lead([]*Tx{t})
		return t.err
	}
	t.turn = make(chan []*Tx, 1)
	s.queue = append(s.queue, t)
	s.qmu.Unlock()
	if batch := <-t.turn; batch != nil {
		s.lead(batch)
		return t.err
	}
	s.qmu.Lock()
	dead := s.dead
	s.qmu.Unlock()
	if dead != nil {
		panic(dead)
	}
	return t.err
}

// lead runs the protocol for batch (the caller's Tx first), wakes its
// other members, and hands the commit lock's queue to the next leader.
func (s *Store) lead(batch []*Tx) {
	defer func() {
		r := recover()
		s.qmu.Lock()
		next := s.queue
		s.queue = nil
		if r != nil {
			s.dead = r
		}
		if r != nil || len(next) == 0 {
			s.committing = false
			s.idle.Broadcast()
		}
		s.qmu.Unlock()
		for _, f := range batch[1:] {
			close(f.turn)
		}
		if r != nil {
			for _, q := range next {
				close(q.turn)
			}
			panic(r)
		}
		if len(next) > 0 {
			next[0].turn <- next
		}
	}()
	s.commitBatch(batch)
}

// commitBatch runs the commit protocol once over the concatenated
// operations of every transaction in batch and records the shared
// outcome on each.
func (s *Store) commitBatch(batch []*Tx) {
	var phases []TxPhase
	phaseStart := time.Now()
	// phase closes one timing at now; the next starts at the same instant.
	phase := func(name string) {
		end := time.Now()
		phases = append(phases, TxPhase{Name: name, Start: phaseStart, Dur: end.Sub(phaseStart)})
		phaseStart = end
	}
	nOps := 0
	for _, t := range batch {
		nOps += len(t.ops)
	}
	var err error
	// set collects every handle the batch opens; nothing outlives this
	// call, however it ends (rollback, error, or a drill's die()).
	var set syncSet
	defer func() {
		set.drop()
		for i, t := range batch {
			t.err, t.phases = err, phases
			t.batch = TxBatch{Txs: len(batch), Ops: nOps, Syncs: set.syncs, Rounds: set.rounds, Lead: i == 0}
		}
	}()

	s.mu.Lock()
	defer s.mu.Unlock()
	sd := s.sides[0]
	s.txSeq++
	txid := fmt.Sprintf("tx-%d-%d", os.Getpid(), s.txSeq)
	stagingDir := filepath.Join(sd.dir, vtstoreDir, "staging")
	walDir := filepath.Join(sd.dir, vtstoreDir, "wal")
	redoPath := filepath.Join(walDir, txid+".redo")
	commitPath := filepath.Join(walDir, txid+".commit")

	type stagedFile struct {
		path, sha string
		data      []byte
	}
	var staged []stagedFile
	rollback := func(cause error) {
		for _, f := range staged {
			os.Remove(f.path)
		}
		os.Remove(redoPath)
		err = cause
	}

	m := manifest{Tx: txid, Ops: make([]manifestOp, 0, nOps)}
	for _, t := range batch {
		for _, op := range t.ops {
			if !op.put {
				m.Ops = append(m.Ops, manifestOp{Type: "append", Rel: op.rel, Line: op.line})
				continue
			}
			name := fmt.Sprintf("%s-%d.0", txid, len(m.Ops))
			p := filepath.Join(stagingDir, name)
			// Recorded before it is written: a file that was created and
			// then failed is rollback's to remove.
			staged = append(staged, stagedFile{p, op.sha, op.payload})
			if werr := s.fs.writeFile(&set, p, op.payload); werr != nil {
				rollback(fmt.Errorf("resultstore: stage %s: %w", name, werr))
				return
			}
			m.Ops = append(m.Ops, manifestOp{
				Type: "put", Kind: string(op.kind), Key: op.key,
				SHA: op.sha, Size: int64(len(op.payload)), Staged: []string{name},
			})
		}
	}
	// I1: every staged payload is fsynced (one round for all of them) and
	// verified before the redo record is written. A rewrite after a failed
	// verification is paid by the second flush, which is otherwise empty.
	serr := set.flush()
	for i := 0; serr == nil && i < len(staged); i++ {
		serr = s.fs.verify(&set, staged[i].path, staged[i].data, staged[i].sha)
	}
	if serr == nil {
		serr = set.flush()
	}
	if serr != nil {
		rollback(fmt.Errorf("resultstore: stage %s: %w", txid, serr))
		return
	}
	phase("stage")
	mb, merr := json.Marshal(&m)
	if merr != nil {
		rollback(merr)
		return
	}
	werr := s.fs.writeFile(&set, redoPath, mb)
	if werr == nil {
		werr = set.flush()
	}
	if werr != nil {
		rollback(fmt.Errorf("resultstore: write redo record: %w", werr))
		return
	}
	// The commit point: after this rename succeeds, the batch is durable
	// — recovery rolls it forward even if everything below fails.
	if rerr := s.fs.rename(redoPath, commitPath); rerr != nil {
		rollback(fmt.Errorf("resultstore: commit %s: %w", txid, rerr))
		return
	}
	set.dirs = append(set.dirs, walDir)
	set.flush()
	phase("commit")
	s.counters.Commits += int64(len(batch))
	// I2: the commit record goes only after every file and directory the
	// batch touched on either side has been fsynced.
	if s.rollForward(sd, &m, &set, phase) {
		os.Remove(commitPath)
	} else {
		// Leave the commit record: the next Open finishes the apply.
		s.event(Event{Op: "commit-deferred", Side: s.roleOf(sd), Detail: txid})
	}
}

// rollForward applies a committed manifest on the side that owns its
// staging area (staged files rename into place, lines append),
// replicates it to the other side, and pays both sides' durability in
// one round; phase is told where apply and replicate end. Applying is
// idempotent, and a mirror file may be visible before it is durable: the
// commit record outlives the round, and rolling it forward again
// re-replicates every put. Callers hold s.mu.
func (s *Store) rollForward(owner *side, m *manifest, ss *syncSet, phase func(string)) bool {
	defer ss.drop()
	stagingDir := filepath.Join(owner.dir, vtstoreDir, "staging")
	own, last := s.writerFor(owner, ss), "apply"
	ok := s.runManifest(own, m, last, func(op manifestOp) bool { return s.applyPut(own, stagingDir, m.Tx, op) })
	if other := s.other(owner); ok && other != nil {
		phase(last)
		mir := s.writerFor(other, ss)
		last = "replicate"
		ok = s.runManifest(mir, m, last, func(op manifestOp) bool { return s.replicatePut(owner, mir, m.Tx, op) })
	}
	if err := ss.flush(); err != nil {
		ok = false
		s.event(Event{Op: last + "-failed", Side: s.roleOf(owner), Detail: fmt.Sprintf("sync: %v", err)})
	}
	phase(last)
	return ok
}

// runManifest runs a manifest's operations against w's side, in order:
// put for each object, an append for each line. It keeps going past a
// failure, so one bad object does not hold back the rest of the batch.
func (s *Store) runManifest(w *sideWriter, m *manifest, pass string, put func(manifestOp) bool) bool {
	allOK := true
	for _, op := range m.Ops {
		switch op.Type {
		case "put":
			allOK = put(op) && allOK
		case "append":
			if err := w.line(op.Rel, op.Line); err != nil {
				allOK = false
				s.event(Event{Op: pass + "-failed", Side: s.roleOf(w.sd), Detail: fmt.Sprintf("append %s: %v", op.Rel, err)})
			}
		}
	}
	return allOK
}

// applyPut moves one put's staged file into place and indexes it.
func (s *Store) applyPut(w *sideWriter, stagingDir, txid string, op manifestOp) bool {
	owner := w.sd
	dst := s.objPath(owner, Kind(op.Kind), op.Key)
	sp := filepath.Join(stagingDir, op.Staged[0])
	if _, err := os.Lstat(sp); err == nil {
		if err := retryOnce(func() error { return s.fs.rename(sp, dst) }); err != nil {
			s.event(Event{Op: "apply-failed", Side: s.roleOf(owner), Kind: op.Kind, Key: op.Key, Detail: err.Error()})
			return false
		}
	} else if b, err := s.fs.readFile(dst); err != nil || sumHex(b) != op.SHA {
		// Staged file gone: a previous pass applied it, so the object must
		// verify in place.
		s.event(Event{Op: "damaged", Side: s.roleOf(owner), Kind: op.Kind, Key: op.Key,
			Detail: "staged payload lost and final file invalid"})
		return false
	}
	if err := w.index(indexEntry{Kind: op.Kind, Key: op.Key, SHA: op.SHA, Size: op.Size, Tx: txid}); err != nil {
		s.event(Event{Op: "apply-failed", Side: s.roleOf(owner), Kind: op.Kind, Key: op.Key, Detail: err.Error()})
		return false
	}
	return true
}

// replicatePut copies one object from a side to the writer's side and
// indexes it there. The written handle follows its inode across the
// rename into the writer's sync set.
func (s *Store) replicatePut(from *side, w *sideWriter, txid string, op manifestOp) bool {
	to := w.sd
	fail := func(detail string) bool {
		s.event(Event{Op: "replicate-failed", Side: s.roleOf(to), Kind: op.Kind, Key: op.Key, Detail: detail})
		return false
	}
	dst := s.objPath(to, Kind(op.Kind), op.Key)
	b, err := s.fs.readFile(s.objPath(from, Kind(op.Kind), op.Key))
	if err != nil || sumHex(b) != op.SHA {
		return fail("source payload unreadable or corrupt")
	}
	tmp := filepath.Join(to.dir, vtstoreDir, "staging", fmt.Sprintf("repl-%s-%s", txid, filepath.Base(dst)))
	err = s.fs.writeFile(w.ss, tmp, b)
	if err == nil {
		err = s.fs.verify(w.ss, tmp, b, op.SHA)
	}
	if err != nil {
		return fail(err.Error())
	}
	if err := retryOnce(func() error { return s.fs.rename(tmp, dst) }); err != nil {
		os.Remove(tmp)
		return fail(err.Error())
	}
	return w.index(indexEntry{Kind: op.Kind, Key: op.Key, SHA: op.SHA, Size: op.Size, Tx: txid}) == nil
}
