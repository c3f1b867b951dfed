package resultstore

import (
	"encoding/json"
	"fmt"
	"io"
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
	Type   string    `json:"type"` // "put" or "append"
	Kind   string    `json:"kind,omitempty"`
	Key    string    `json:"key,omitempty"`
	SHA    string    `json:"sha256,omitempty"` // head payload checksum
	Size   int64     `json:"size,omitempty"`   // logical object size
	Segs   []segInfo `json:"segs,omitempty"`   // per-segment checksums
	Staged []string  `json:"staged,omitempty"` // staged file names: head, then segments
	Rel    string    `json:"rel,omitempty"`    // append target, slash-relative to the side dir
	Line   []byte    `json:"line,omitempty"`   // append payload (one line, no newline)
}

type segInfo struct {
	SHA  string `json:"sha256"`
	Size int64  `json:"size"`
}

// blobHead is the head payload of a segmented object: the manifest of
// its value segments, itself checksummed like any plain object.
type blobHead struct {
	Blob     int       `json:"resultstore_blob"` // format version
	Size     int64     `json:"size"`
	Segments []segInfo `json:"segments"`
}

type txOp struct {
	put     bool
	kind    Kind
	key     string
	payload []byte   // object payload, or blob head JSON
	segs    [][]byte // value segments (blob puts only)
	sums    []string // sha256 of payload, then of each segment
	size    int64    // logical size
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

// Put stages one plain object write.
func (t *Tx) Put(kind Kind, key string, payload []byte) {
	p := append([]byte(nil), payload...)
	t.ops = append(t.ops, txOp{put: true, kind: kind, key: key, payload: p,
		sums: []string{sumHex(p)}, size: int64(len(p))})
}

// PutBlob stages one segmented object write, splitting r into
// checksummed value segments of the store's segment size.
func (t *Tx) PutBlob(kind Kind, key string, r io.Reader) error {
	all, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("resultstore: read blob %s-%s: %w", kind, key, err)
	}
	segSize := t.s.segSize
	var segs [][]byte
	sums := []string{""} // head checksum, filled in below
	head := blobHead{Blob: 1, Size: int64(len(all))}
	for off := 0; off < len(all) || len(segs) == 0; off += segSize {
		end := off + segSize
		if end > len(all) {
			end = len(all)
		}
		seg := append([]byte(nil), all[off:end]...)
		segs = append(segs, seg)
		sums = append(sums, sumHex(seg))
		head.Segments = append(head.Segments, segInfo{SHA: sums[len(sums)-1], Size: int64(len(seg))})
	}
	hb, err := json.Marshal(&head)
	if err != nil {
		return err
	}
	sums[0] = sumHex(hb)
	t.ops = append(t.ops, txOp{put: true, kind: kind, key: key, payload: hb, segs: segs, sums: sums, size: head.Size})
	return nil
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
	sd := s.serving()
	if sd == nil {
		err = fmt.Errorf("resultstore: no healthy side to commit to")
		return
	}
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
			mo := manifestOp{
				Type: "put", Kind: string(op.kind), Key: op.key,
				SHA: op.sums[0], Size: op.size,
			}
			for j, seg := range op.segs {
				mo.Segs = append(mo.Segs, segInfo{SHA: op.sums[1+j], Size: int64(len(seg))})
			}
			for j, b := range append([][]byte{op.payload}, op.segs...) {
				name := fmt.Sprintf("%s-%d.%d", txid, len(m.Ops), j)
				p := filepath.Join(stagingDir, name)
				// Recorded before it is written: a file that was created and
				// then failed is rollback's to remove.
				staged = append(staged, stagedFile{p, op.sums[j], b})
				if werr := s.fs.writeFile(&set, p, b); werr != nil {
					rollback(fmt.Errorf("resultstore: stage %s: %w", name, werr))
					return
				}
				mo.Staged = append(mo.Staged, name)
			}
			m.Ops = append(m.Ops, mo)
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
	// batch touched on every healthy side has been fsynced.
	if s.rollForward(sd, &m, &set, phase) {
		os.Remove(commitPath)
	} else {
		// Leave the commit record: the next Open finishes the apply.
		s.event(Event{Op: "commit-deferred", Side: s.roleOf(sd), Detail: txid})
	}
}

// rollForward applies a committed manifest on the side that owns its
// staging area, replicates it to the other healthy side, and pays both
// sides' durability in one round; phase is told where apply and
// replicate end. A mirror file may be visible before it is durable:
// the commit record outlives the round, and rolling it forward again
// re-replicates every put. Callers hold s.mu.
func (s *Store) rollForward(owner *side, m *manifest, ss *syncSet, phase func(string)) bool {
	defer ss.drop()
	ok, last := s.applyManifest(owner, m, ss), "apply"
	if other := s.otherHealthy(owner); ok && other != nil {
		phase("apply")
		ok, last = s.replicate(owner, other, m, ss), "replicate"
	}
	if err := ss.flush(); err != nil {
		ok = false
		s.event(Event{Op: last + "-failed", Side: s.roleOf(owner), Detail: fmt.Sprintf("sync: %v", err)})
	}
	phase(last)
	return ok
}

// objFiles lists an op's final file names on a side: head, then
// segments.
func (s *Store) objFiles(sd *side, op manifestOp) []string {
	head := s.objPath(sd, Kind(op.Kind), op.Key)
	files := []string{head}
	for i := range op.Segs {
		files = append(files, segPath(head, i))
	}
	return files
}

// applyManifest renames and appends a committed manifest into place on
// the side that owns its staging area; ss's next flush makes it durable.
// Idempotent: a staged file already renamed on a previous pass is
// verified in place instead. Callers hold s.mu.
func (s *Store) applyManifest(owner *side, m *manifest, ss *syncSet) bool {
	stagingDir := filepath.Join(owner.dir, vtstoreDir, "staging")
	w := s.writerFor(owner, ss)
	allOK := true
	for _, op := range m.Ops {
		switch op.Type {
		case "put":
			if !s.applyPut(w, stagingDir, m.Tx, op) {
				allOK = false
			}
		case "append":
			if err := w.line(op.Rel, op.Line); err != nil {
				allOK = false
				s.event(Event{Op: "apply-failed", Side: s.roleOf(owner), Detail: fmt.Sprintf("append %s: %v", op.Rel, err)})
			}
		}
	}
	return allOK
}

// applyPut moves one put's staged files into place and indexes it.
func (s *Store) applyPut(w *sideWriter, stagingDir, txid string, op manifestOp) bool {
	owner := w.sd
	dsts := s.objFiles(owner, op)
	shas := []string{op.SHA}
	for _, si := range op.Segs {
		shas = append(shas, si.SHA)
	}
	for j, name := range op.Staged {
		if j >= len(dsts) {
			return false
		}
		sp := filepath.Join(stagingDir, name)
		if _, err := os.Lstat(sp); err == nil {
			if err := retryOnce(func() error { return s.fs.rename(sp, dsts[j]) }); err != nil {
				s.event(Event{Op: "apply-failed", Side: s.roleOf(owner), Kind: op.Kind, Key: op.Key, Detail: err.Error()})
				return false
			}
			continue
		}
		// Staged file gone: a previous pass applied it. Verify in place.
		b, err := s.fs.readFile(dsts[j])
		if err != nil || sumHex(b) != shas[j] {
			s.event(Event{Op: "damaged", Side: s.roleOf(owner), Kind: op.Kind, Key: op.Key,
				Detail: "staged payload lost and final file invalid"})
			return false
		}
	}
	if err := w.index(indexEntry{
		Kind: op.Kind, Key: op.Key, SHA: op.SHA, Size: op.Size, Segs: len(op.Segs), Tx: txid,
	}); err != nil {
		s.event(Event{Op: "apply-failed", Side: s.roleOf(owner), Kind: op.Kind, Key: op.Key, Detail: err.Error()})
		return false
	}
	return true
}

// replicate copies a committed manifest's effects from the owner side to
// another side, verifying every payload's checksum on the way through;
// ss's next flush makes the copies durable. Callers hold s.mu.
func (s *Store) replicate(from, to *side, m *manifest, ss *syncSet) bool {
	w := s.writerFor(to, ss)
	allOK := true
	for _, op := range m.Ops {
		switch op.Type {
		case "put":
			if !s.replicatePut(from, w, m.Tx, op) {
				allOK = false
			}
		case "append":
			if err := w.line(op.Rel, op.Line); err != nil {
				allOK = false
				s.event(Event{Op: "replicate-failed", Side: s.roleOf(to), Detail: fmt.Sprintf("append %s: %v", op.Rel, err)})
			}
		}
	}
	return allOK
}

// replicatePut copies one object (head and segments) from a side to the
// writer's side and indexes it there. The written handle follows its
// inode across the rename into the writer's sync set.
func (s *Store) replicatePut(from *side, w *sideWriter, txid string, op manifestOp) bool {
	to := w.sd
	srcs := s.objFiles(from, op)
	dsts := s.objFiles(to, op)
	shas := []string{op.SHA}
	for _, si := range op.Segs {
		shas = append(shas, si.SHA)
	}
	for j := range srcs {
		b, err := s.fs.readFile(srcs[j])
		if err != nil || sumHex(b) != shas[j] {
			s.event(Event{Op: "replicate-failed", Side: s.roleOf(to), Kind: op.Kind, Key: op.Key,
				Detail: "source payload unreadable or corrupt"})
			return false
		}
		tmp := filepath.Join(to.dir, vtstoreDir, "staging", fmt.Sprintf("repl-%s-%s", txid, filepath.Base(dsts[j])))
		err = s.fs.writeFile(w.ss, tmp, b)
		if err == nil {
			err = s.fs.verify(w.ss, tmp, b, shas[j])
		}
		if err != nil {
			s.event(Event{Op: "replicate-failed", Side: s.roleOf(to), Kind: op.Kind, Key: op.Key, Detail: err.Error()})
			return false
		}
		if err := retryOnce(func() error { return s.fs.rename(tmp, dsts[j]) }); err != nil {
			os.Remove(tmp)
			s.event(Event{Op: "replicate-failed", Side: s.roleOf(to), Kind: op.Kind, Key: op.Key, Detail: err.Error()})
			return false
		}
	}
	return w.index(indexEntry{
		Kind: op.Kind, Key: op.Key, SHA: op.SHA, Size: op.Size, Segs: len(op.Segs), Tx: txid,
	}) == nil
}
