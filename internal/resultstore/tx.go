package resultstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"
)

// manifest is one batch's redo information: everything needed to roll
// it forward after the commit point, with each put's range in the
// primary's pack and end-to-end checksum.
type manifest struct {
	Tx  string
	Ops []manifestOp
}

type manifestOp struct {
	Type string `json:"type"` // "put" or "append"
	Kind string `json:"kind,omitempty"`
	Key  string `json:"key,omitempty"`
	SHA  string `json:"sha256,omitempty"` // payload checksum
	Size int64  `json:"size,omitempty"`
	Off  int64  `json:"off,omitempty"`  // payload offset in the primary's pack
	Rel  string `json:"rel,omitempty"`  // append target, slash-relative to the side dir
	Line []byte `json:"line,omitempty"` // append payload (one line, no newline)
}

// walRecord is one .vtstore/wal.jsonl line: a batch's manifest — Ops,
// with Sum the SHA-256 of Ops' exact bytes, so a torn or flipped record
// is told from a whole one — or, with Done, the note that the batch Tx
// is durable on every side.
type walRecord struct {
	Tx   string          `json:"tx"`
	Sum  string          `json:"sum,omitempty"`
	Ops  json.RawMessage `json:"ops,omitempty"`
	Done bool            `json:"done,omitempty"`
}

// txOp is one operation as its manifest records it, plus a put's payload.
type txOp struct {
	manifestOp
	payload []byte
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
// "stage" (pack appends, their fsync round, read-back verification),
// "commit" (the manifest line: append, fsync, read back — the commit
// point), "apply" (the primary's index and journal lines), "replicate"
// (mirror copy-through). The final fsync round, which covers both sides,
// and the done line are timed under the last phase. Observability-only;
// the harness tracer files these as store.* spans.
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
	op := manifestOp{Type: "put", Kind: string(kind), Key: key, SHA: sumHex(p), Size: int64(len(p))}
	t.ops = append(t.ops, txOp{op, p})
}

// Append stages one journal-style line append to rel (slash-relative to
// the store directory), replicated to the mirror like any object write.
func (t *Tx) Append(rel string, line []byte) {
	t.ops = append(t.ops, txOp{manifestOp: manifestOp{Type: "append", Rel: rel, Line: append([]byte(nil), line...)}})
}

// Commit makes the transaction durable: it joins the group commit (see
// the package doc) and returns when the batch carrying it has run the
// protocol — stage, append the manifest (the commit point), apply,
// replicate, mark done. An error return means the batch did not commit
// and was rolled back; it may be retried. After the commit point Commit
// returns nil even if an apply step failed — the manifest, left without
// its done line, re-applies on the next Open. If the
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
	var all []txOp
	for _, t := range batch {
		all = append(all, t.ops...)
	}
	var err error
	// set collects every handle the batch opens; nothing outlives this
	// call, however it ends (rollback, error, or a drill's simulated death).
	var set syncSet
	defer func() {
		set.drop()
		for i, t := range batch {
			t.err, t.phases = err, phases
			t.batch = TxBatch{Txs: len(batch), Ops: len(all), Syncs: set.syncs, Rounds: set.rounds, Lead: i == 0}
		}
	}()

	s.mu.Lock()
	defer s.mu.Unlock()
	sd := s.sides[0]
	s.txSeq++
	txid := fmt.Sprintf("tx-%d-%d", os.Getpid(), s.txSeq)

	// Stage: every payload lands in the primary's pack. A batch that
	// fails before its commit point leaves dead bytes there, nothing else.
	m := manifest{Tx: txid, Ops: make([]manifestOp, len(all))}
	pack := s.writerFor(sd, &set).app(packFile)
	for i, op := range all {
		m.Ops[i] = op.manifestOp
		if op.Type != "put" {
			continue
		}
		if m.Ops[i].Off, err = pack.write(op.payload, false); err != nil {
			err = fmt.Errorf("resultstore: stage %s-%s: %w", op.Kind, op.Key, err)
			return
		}
	}
	// I1: every payload is fsynced (one round for all of them) and
	// verified before the manifest is written. A re-append after a failed
	// verification is paid by the second flush, which is otherwise empty.
	serr := set.flush(s.fs)
	pack = s.writerFor(sd, &set).app(packFile)
	for i, op := range all {
		if serr == nil && op.Type == "put" {
			m.Ops[i].Off, serr = s.fs.verify(pack, m.Ops[i].Off, op.payload, op.SHA)
		}
	}
	if serr == nil {
		serr = set.flush(s.fs)
	}
	if serr != nil {
		err = fmt.Errorf("resultstore: stage %s: %w", txid, serr)
		return
	}
	phase("stage")

	// The commit point: the manifest line, fsynced and read back whole.
	// After it the batch is durable — recovery rolls it forward even if
	// everything below fails.
	if cerr := s.logManifest(&set, &m); cerr != nil {
		err = fmt.Errorf("resultstore: commit %s: %w", txid, cerr)
		return
	}
	phase("commit")
	s.counters.Commits += int64(len(batch))
	// I2: the done line goes only after every file the batch touched on
	// either side has been fsynced.
	if s.rollForward(&m, &set, phase) {
		s.walDone(txid)
	} else {
		// Leave the manifest without its done line: the next Open finishes
		// the apply.
		s.deferred = true
		s.event(Event{Op: "commit-deferred", Side: s.roleOf(sd), Detail: txid})
	}
}

// logManifest appends m to the write-ahead log, fsyncs it and reads it
// back. Whatever fails, the log is cut back to where the record began, so
// recovery never rolls forward a batch whose Commit reported an error.
func (s *Store) logManifest(set *syncSet, m *manifest) error {
	ops, err := json.Marshal(m.Ops)
	if err != nil {
		return err
	}
	rec, err := json.Marshal(walRecord{Tx: m.Tx, Sum: sumHex(ops), Ops: ops})
	if err != nil {
		return err
	}
	wal := s.fs.appender(set, s.walPath())
	off, err := wal.write(append(rec, '\n'), true)
	if err == nil {
		err = set.flush(s.fs)
	}
	if err == nil {
		var got []byte
		got, err = s.fs.readAt(wal.path, off, int64(len(rec)))
		if err == nil && !bytes.Equal(got, rec) {
			err = errors.New("manifest read back wrong")
		}
	}
	if err != nil && off >= 0 {
		os.Truncate(wal.path, off)
	}
	return err
}

// walDone appends the done line of a batch whose every side is durable.
// It is not fsynced: a done line lost to a crash only makes recovery
// re-apply a batch, which is idempotent.
func (s *Store) walDone(txid string) {
	var ss syncSet
	defer ss.drop()
	b, err := json.Marshal(walRecord{Tx: txid, Done: true})
	if err == nil {
		retryOnce(func() error { return s.fs.appender(&ss, s.walPath()).line(b) })
	}
}

// rollForward applies a committed manifest on the primary (index lines
// name the staged ranges, lines append), replicates it to the mirror,
// and pays both sides' durability in one round; phase is told where
// apply and replicate end. Applying is idempotent, and a mirror copy may
// be indexed before it is durable: the manifest stays undone until the
// round has returned, and rolling it forward again re-replicates every
// put. Callers hold s.mu.
func (s *Store) rollForward(m *manifest, ss *syncSet, phase func(string)) bool {
	defer ss.drop()
	p := s.sides[0]
	own, last := s.writerFor(p, ss), "apply"
	ok := s.runManifest(own, m, last, func(op manifestOp) error { return own.index(op.entry(m.Tx)) })
	if other := s.other(p); ok && other != nil {
		phase(last)
		mir := s.writerFor(other, ss)
		last = "replicate"
		ok = s.runManifest(mir, m, last, func(op manifestOp) error { return s.copyObject(p, mir, op.entry(m.Tx)) })
	}
	if err := ss.flush(s.fs); err != nil {
		ok = false
		s.event(Event{Op: last + "-failed", Side: s.roleOf(p), Detail: fmt.Sprintf("sync: %v", err)})
	}
	phase(last)
	return ok
}

// entry is the primary's index line for a put.
func (op manifestOp) entry(txid string) indexEntry {
	return indexEntry{Kind: op.Kind, Key: op.Key, SHA: op.SHA, Size: op.Size, Off: op.Off, Tx: txid}
}

// runManifest runs a manifest's operations against w's side, in order:
// put for each object, an append for each line. It keeps going past a
// failure, so one bad object does not hold back the rest of the batch.
func (s *Store) runManifest(w *sideWriter, m *manifest, pass string, put func(manifestOp) error) bool {
	allOK := true
	for _, op := range m.Ops {
		var err error
		switch op.Type {
		case "put":
			err = put(op)
		case "append":
			err = w.line(op.Rel, op.Line)
		}
		if err != nil {
			allOK = false
			s.event(Event{Op: pass + "-failed", Side: s.roleOf(w.sd), Kind: op.Kind, Key: op.Key,
				Detail: fmt.Sprintf("%s %s: %v", op.Type, op.Rel, err)})
		}
	}
	return allOK
}

// copyObject copies the object e names in from's pack to w's side,
// verified on both ends, and indexes the copy there: replication and
// heal-by-append alike.
func (s *Store) copyObject(from *side, w *sideWriter, e indexEntry) error {
	b, err := s.fs.readAt(from.path(packFile), e.Off, e.Size)
	if err != nil || sumHex(b) != e.SHA {
		return fmt.Errorf("source copy on the %s unreadable or corrupt", s.roleOf(from))
	}
	return w.put(e, b)
}
