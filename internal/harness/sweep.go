package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/resultstore"
	"repro/internal/sweepobs"
)

// Sweep is everything one sweep accumulates, as a value: the memo of the
// runs requested so far, the work counters, the workloads it has built
// (builds.go), the prefix-checkpoint cache, the one result store it may
// hold open (primary + mirror) behind its write-behind window, and the
// monitor and tracer that record it.
// Params.Sweep carries the handle down every call the way Params carries
// its span, and nothing a sweep learns lives at package scope, so two
// sweeps — or a fabric coordinator and its workers — share a process
// without sharing anything. A new Sweep is what a fresh process would
// start from; Sync is its durability barrier and Close ends it.
type Sweep struct {
	// Trace, when non-nil, records the sweep-lifecycle span tree: every
	// job emits plan → store lookup → fork → execute spans plus supervisor
	// events, and every store batch a store-tx span. Nil (the default)
	// disables tracing; every tracer hook is a nil-receiver no-op, so the
	// off path costs a nil check (the CI overhead gate's contract). Set it
	// before the sweep's first job.
	Trace *sweepobs.Tracer
	// Monitor receives live job begin/finish bookkeeping and serves the
	// sweep's /status and /metrics from its counters. Every sweep has
	// its own, attached by NewSweep.
	Monitor *Monitor

	wb *writeBehind
	// journaled is set once OpenJournal has adopted the store's
	// completion journal (journal.go): CommitOutcome then appends each
	// outcome's line to it.
	journaled bool

	mu      sync.Mutex
	memo    map[string]*memoEntry
	cfgJSON map[config.GPUConfig][]byte // see configJSON
	builds  map[buildKey]*built
	cks     map[string]*ckEntry // keyed by prefix fingerprint
	stats   RunMetrics

	// storeMu is not mu: opening a store can emit repair events, which
	// count under mu.
	storeMu        sync.Mutex
	opened, closed bool
	dir, mirror    string
	st             *resultstore.Store
}

// NewSweep returns an empty sweep with its own Monitor: nothing
// memoized, nothing counted, no store open.
func NewSweep() *Sweep {
	s := &Sweep{wb: newWriteBehind(), memo: map[string]*memoEntry{}, cfgJSON: map[config.GPUConfig][]byte{},
		builds: map[buildKey]*built{}, cks: map[string]*ckEntry{}}
	s.Monitor = newMonitor(s)
	return s
}

// Metrics returns a snapshot of the sweep's work counters.
func (s *Sweep) Metrics() RunMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.stats
	m.CacheHits = m.Requests - m.Executed
	return m
}

// count applies a counter update under the sweep's lock.
func (s *Sweep) count(f func(*RunMetrics)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.stats)
}

// store returns the result store backing p's cache directories, nil when
// p names none. The first Params to name a directory opens it — index
// replay plus WAL recovery — with its StoreFault; a directory that cannot
// be opened is an error, and the next call tries again. One sweep holds
// at most one store, so a Params naming another is an error, not a second
// handle.
func (s *Sweep) store(p Params) (*resultstore.Store, error) {
	if p.CacheDir == "" {
		return nil, nil
	}
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	switch {
	case s.closed:
		return nil, errors.New("harness: sweep is closed")
	case !s.opened:
		st, err := resultstore.Open(resultstore.Options{
			Dir:    p.CacheDir,
			Mirror: p.MirrorDir,
			Fault:  p.StoreFault,
			OnEvent: func(ev resultstore.Event) {
				if ev.Op == "repair" {
					s.count(func(m *RunMetrics) { m.StoreRepairs++ })
				}
			},
		})
		if err != nil {
			return nil, fmt.Errorf("harness: result store %s: %w", p.CacheDir, err)
		}
		s.opened, s.dir, s.mirror, s.st = true, p.CacheDir, p.MirrorDir, st
	case p.CacheDir != s.dir || p.MirrorDir != s.mirror:
		return nil, fmt.Errorf("harness: sweep holds result store %q (mirror %q), Params names %q (mirror %q): one sweep, one store",
			s.dir, s.mirror, p.CacheDir, p.MirrorDir)
	}
	return s.st, nil
}

// Sync is the sweep's durability barrier: it returns once every run
// outcome submitted so far is committed (on both sides of a mirrored
// store) or has been reported as failed to commit. Every sweep owner
// passes it before it reports results; until then up to writeBehindWindow
// outcomes may exist only in memory. If a commit died of a simulated
// process death (a store fault hook's panic value) the barrier re-raises it.
func (s *Sweep) Sync() {
	if dead := s.wb.wait(); dead != nil {
		panic(dead)
	}
}

// Close ends the sweep: the write-behind window drains and the store
// closes. A window poisoned by a simulated process death is
// simply dropped — closing is the reboot. Idempotent; the counters stay
// readable.
func (s *Sweep) Close() {
	s.wb.wait()
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.st != nil {
		s.st.Close()
		s.st = nil
	}
}

// OpenStore opens the result store p names, if any, so that a store
// directory that cannot be opened is a set-up error rather than a sweep
// without durability.
func (s *Sweep) OpenStore(p Params) error {
	_, err := s.store(p)
	return err
}

// OpenJournal opens p's result store and adopts the completion journal
// in its directory for the sweep shape p describes: on each side, a
// journal that starts with this sweep's header line is appended to, any
// other is rotated aside for a fresh one (resultstore.Store.Adopt). Only
// the header's bytes are read. The store opens first because its
// recovery may roll committed journal lines forward. Without a store
// there is no journal, and nothing is touched. Whether a sweep journals
// is its owner's choice: a fabric worker's local store has none.
func (s *Sweep) OpenJournal(p Params) error {
	st, err := s.store(p)
	if st == nil {
		return err
	}
	meta := JournalMeta{Version: journalVersion, Scale: p.Scale, Dilute: p.Dilute,
		Config: p.Config.Name, Sampling: p.Sampling.String()}
	hdr, _ := json.Marshal(journalHeader{Meta: meta}) // ints and strings always encode
	if err := st.Adopt(JournalFileName, hdr); err != nil {
		return fmt.Errorf("harness: journal: %w", err)
	}
	s.journaled = true
	return nil
}

// GetObject reads one raw store object (its JSON envelope bytes) by kind
// and cache key from the sweep's result store. The sweep fabric uses it
// on both sides of object sync: the coordinator serves checkpoints and
// results to workers, and a worker checks its local store before
// fetching. Returns resultstore.ErrNotFound when the object is absent
// and an error when no store is attached.
func (s *Sweep) GetObject(p Params, kind resultstore.Kind, key string) ([]byte, error) {
	st, err := s.attachedStore(p)
	if err != nil {
		return nil, err
	}
	return s.getObject(p, st, kind, key)
}

// PutObject writes one raw store object as a single transaction. The
// payload must be a valid store envelope for the kind: consumers re-verify
// the embedded content fingerprint on read (loadEnvelope), so a corrupt or
// mismatched sync is quarantined on first use, never trusted.
func (s *Sweep) PutObject(p Params, kind resultstore.Kind, key string, b []byte) error {
	st, err := s.attachedStore(p)
	if err != nil {
		return err
	}
	tx := st.Begin()
	tx.Put(kind, key, b)
	return p.commitStoreTx(tx)
}

// attachedStore is store for callers that cannot do without one.
func (s *Sweep) attachedStore(p Params) (*resultstore.Store, error) {
	st, err := s.store(p)
	if err == nil && st == nil {
		err = errors.New("harness: no result store attached")
	}
	return st, err
}
