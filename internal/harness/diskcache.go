package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/gpu"
	"repro/internal/resultstore"
)

// The disk layer of the memo cache is the transactional result store
// (internal/resultstore): results, checkpoints, and completion-journal
// lines commit as atomic transactions to Params.CacheDir and replicate
// to Params.MirrorDir.

// diskCacheVersion invalidates every on-disk entry when the fingerprint
// scheme or the Result layout changes meaning. Bump it whenever a change
// could make an old cached Result incorrect for the same fingerprint
// (new statistics fed by simulation state, changed kernel generators,
// reinterpreted config fields).
const diskCacheVersion = 1

// diskEntry is the JSON envelope of one cached run. The full fingerprint
// is stored (not just its hash) so version or scheme mismatches are
// detected by content, never assumed from the filename.
type diskEntry struct {
	Version     int         `json:"version"`
	Fingerprint string      `json:"fingerprint"`
	Result      *gpu.Result `json:"result"`
}

// cacheKey hashes a fingerprint into the stable hex id used for cache
// object names, completion-journal entries, and result-store keys, so a
// journal line can be correlated with its stored Result.
func cacheKey(fp string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("v%d|%s", diskCacheVersion, fp)))
	return hex.EncodeToString(sum[:16])
}

// Stores are opened once per (CacheDir, MirrorDir) pair and shared by
// every run of the sweep; ResetMetrics drops them, so tests that reset
// between invocations exercise a fresh open (index replay + WAL
// recovery) exactly like a new process would.
type storeHandle struct {
	st  *resultstore.Store
	err error
	wb  *writeBehind
}

// writeBehindWindow bounds, per store, the run outcomes a sweep has
// submitted but the store has not yet made durable. It is the most a
// process killed outright can lose (-resume re-executes exactly those
// jobs), and the depth at which a slot that outruns the disk starts to
// wait for it. Commits in the window coalesce into group-commit batches,
// so the window also caps a batch.
const writeBehindWindow = 32

// writeBehind runs store commits off the simulation slots: submit hands
// one commit to its own goroutine (bounded by the window) and returns the
// channel that closes when it has finished, wait is the durability
// barrier for all of them. A commit that panics — a crash drill's simulated
// process death — poisons the pipeline: wait reports the value and
// every later submit re-raises it, as the death of the process would
// have stopped the slot.
type writeBehind struct {
	mu       sync.Mutex
	changed  *sync.Cond // inflight dropped, or dead was set
	inflight int
	dead     any
}

func newWriteBehind() *writeBehind {
	w := &writeBehind{}
	w.changed = sync.NewCond(&w.mu)
	return w
}

// submit starts commit in the background, first waiting for room in
// the window; done closes when commit has returned (or died).
func (w *writeBehind) submit(commit func()) (done <-chan struct{}) {
	w.mu.Lock()
	for w.inflight >= writeBehindWindow && w.dead == nil {
		w.changed.Wait()
	}
	if w.dead != nil {
		w.mu.Unlock()
		panic(w.dead)
	}
	w.inflight++
	w.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		defer func() {
			r := recover()
			w.mu.Lock()
			w.inflight--
			if r != nil && w.dead == nil {
				w.dead = r
			}
			w.changed.Broadcast()
			w.mu.Unlock()
			close(finished)
		}()
		commit()
	}()
	return finished
}

// wait returns once every submitted commit has finished, with the panic
// value of one that died (nil normally).
func (w *writeBehind) wait() any {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.inflight > 0 {
		w.changed.Wait()
	}
	return w.dead
}

var (
	storesMu sync.Mutex
	stores   = map[string]*storeHandle{}
)

// storeFor returns the result store backing p's cache directories, nil
// when caching is off or the store cannot be opened (the sweep then
// runs uncached, like the old best-effort disk cache).
func storeFor(p Params) *resultstore.Store {
	if h := handleFor(p); h != nil {
		return h.st
	}
	return nil
}

// handleFor opens (once) the store for p's cache directories and
// returns its handle, nil when caching is off or the open failed.
func handleFor(p Params) *storeHandle {
	if p.CacheDir == "" {
		return nil
	}
	storesMu.Lock()
	defer storesMu.Unlock()
	k := p.CacheDir + "\x00" + p.MirrorDir
	h, ok := stores[k]
	if !ok {
		st, err := resultstore.Open(resultstore.Options{
			Dir:     p.CacheDir,
			Mirror:  p.MirrorDir,
			Fault:   p.StoreFault,
			OnEvent: storeEvent,
		})
		h = &storeHandle{st: st, err: err, wb: newWriteBehind()}
		if err != nil {
			h.st = nil
			fmt.Fprintf(os.Stderr, "harness: result store %s unavailable (running uncached): %v\n", p.CacheDir, err)
		}
		stores[k] = h
	}
	if h.st == nil {
		return nil
	}
	return h
}

// SyncStores is the sweep's durability barrier: it returns once every
// run outcome submitted so far is committed (on both sides of a
// mirrored store) or has been reported as failed to commit. Every sweep
// owner calls it before it reports results or exits; until then up to
// writeBehindWindow outcomes per store may exist only in memory. If a
// commit died of a simulated process death (faultinject.StoreKill) the
// barrier re-raises it.
func SyncStores() {
	storesMu.Lock()
	hs := make([]*storeHandle, 0, len(stores))
	for _, h := range stores {
		hs = append(hs, h)
	}
	storesMu.Unlock()
	for _, h := range hs {
		if dead := h.wb.wait(); dead != nil {
			panic(dead)
		}
	}
}

// storeEvent folds store audit events into the run metrics.
func storeEvent(ev resultstore.Event) {
	if ev.Op == "repair" {
		bumpMetric(func(m *RunMetrics) { m.StoreRepairs++ })
	}
}

// resetStores drains, closes and forgets every open store. Called by
// ResetMetrics (outside the metrics lock: opening a store can emit
// events that take it). A pipeline poisoned by a simulated process
// death is simply dropped: the reset is the reboot.
func resetStores() {
	storesMu.Lock()
	defer storesMu.Unlock()
	for _, h := range stores {
		h.wb.wait()
		if h.st != nil {
			h.st.Close()
		}
	}
	stores = map[string]*storeHandle{}
}

// storeRetryAttempts bounds the supervisor's retry-with-backoff for
// transient store I/O errors — a storage-layer ladder distinct from the
// safe-mode simulation retry in supervisor.go.
const storeRetryAttempts = 3

// storeRetry runs op, retrying transient store I/O errors with
// jittered exponential backoff (equal jitter over a 2ms/8ms base, so a
// fleet of workers hammering one store desynchronizes instead of
// retrying in lockstep). The sleep aborts when ctx is canceled —
// graceful shutdown must never block mid-backoff — returning the op
// error joined with the context error.
func storeRetry(ctx context.Context, op func() error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	backoff := 2 * time.Millisecond
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !resultstore.IsTransient(err) || attempt == storeRetryAttempts {
			return err
		}
		bumpMetric(func(m *RunMetrics) { m.StoreRetries++ })
		// Equal jitter: half the backoff is deterministic spacing, the
		// other half uniform random, keeping a minimum gap while
		// spreading concurrent retriers.
		d := backoff/2 + rand.N(backoff/2+1)
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return errors.Join(err, ctx.Err())
		}
		backoff *= 4
	}
}

// commitStoreTx commits through the store's group commit with bounded
// retry on transient I/O, and accounts for the batch the transaction
// rode in if this call led it: one store.tx span (attrs txs, ops, and
// the batch's fsync count and rounds as syncs, rounds) with the WAL
// phases the protocol timed itself (stage, commit, apply, replicate) as
// children, and one vtsweep_store_batch_txs observation.
// A batch outlives any one job, so the span hangs under the sweep-level
// span, not the job's.
func (p Params) commitStoreTx(tx *resultstore.Tx) error {
	err := storeRetry(p.ctx(), tx.Commit)
	b, ph := tx.Batch(), tx.Phases()
	if !b.Lead || len(ph) == 0 {
		return err
	}
	p.Monitor.noteStoreBatch(b.Txs)
	last := ph[len(ph)-1]
	id := p.Trace.Record(p.sweepSpan, "store.tx", "", "", ph[0].Start, last.Start.Add(last.Dur).Sub(ph[0].Start),
		"txs", strconv.Itoa(b.Txs), "ops", strconv.Itoa(b.Ops),
		"syncs", strconv.Itoa(b.Syncs), "rounds", strconv.Itoa(b.Rounds))
	for _, x := range ph {
		p.Trace.Record(id, "store."+x.Name, "", "", x.Start, x.Dur)
	}
	return err
}

// commitBestEffort is commitStoreTx for the memo path: a store that
// cannot be written must not fail the sweep, matching the old disk
// cache's contract.
func (p Params) commitBestEffort(tx *resultstore.Tx) {
	if err := p.commitStoreTx(tx); err != nil {
		fmt.Fprintf(os.Stderr, "harness: result store commit failed: %v\n", err)
	}
}

// StoreGetObject reads one raw store object (its JSON envelope bytes)
// by kind and cache key from p's result store. The sweep fabric uses it
// on both sides of object sync: the coordinator serves checkpoints and
// results to workers, and a worker checks its local store before
// fetching. Returns resultstore.ErrNotFound when the object is absent
// and an error when no store is attached.
func StoreGetObject(p Params, kind resultstore.Kind, key string) ([]byte, error) {
	st := storeFor(p)
	if st == nil {
		return nil, fmt.Errorf("harness: no result store attached")
	}
	var b []byte
	err := storeRetry(p.ctx(), func() error {
		var gerr error
		b, gerr = st.Get(kind, key)
		return gerr
	})
	return b, err
}

// StorePutObject writes one raw store object as a single transaction.
// The payload must be a valid store envelope for the kind: consumers
// re-verify the embedded content fingerprint on read (diskLoad,
// diskLoadCheckpoint), so a corrupt or mismatched sync is quarantined
// on first use, never trusted.
func StorePutObject(p Params, kind resultstore.Kind, key string, b []byte) error {
	st := storeFor(p)
	if st == nil {
		return fmt.Errorf("harness: no result store attached")
	}
	tx := st.Begin()
	tx.Put(kind, key, b)
	return p.commitStoreTx(tx)
}

// diskLoad returns the cached Result for the fingerprint, or nil. The
// store verifies content checksums and heals from the mirror before the
// payload reaches this envelope check; envelope-level mismatches (stale
// version, fingerprint collision) quarantine the object on every side
// so the re-simulation's rewrite is not shadowed.
func diskLoad(ctx context.Context, st *resultstore.Store, fp string) *gpu.Result {
	if st == nil {
		return nil
	}
	key := cacheKey(fp)
	var b []byte
	err := storeRetry(ctx, func() error {
		var gerr error
		b, gerr = st.Get(resultstore.KindResult, key)
		return gerr
	})
	if err != nil {
		if !errors.Is(err, resultstore.ErrNotFound) {
			fmt.Fprintf(os.Stderr, "harness: cache read %s: %v\n", key, err)
		}
		bumpMetric(func(m *RunMetrics) { m.StoreMisses++ })
		return nil
	}
	reject := func(reason string) {
		st.Quarantine(resultstore.KindResult, key, reason)
		bumpMetric(func(m *RunMetrics) { m.StoreMisses++ })
	}
	var e diskEntry
	if err := json.Unmarshal(b, &e); err != nil {
		reject(fmt.Sprintf("corrupt JSON: %v", err))
		return nil
	}
	switch {
	case e.Version != diskCacheVersion:
		reject(fmt.Sprintf("stale version %d (want %d)", e.Version, diskCacheVersion))
	case e.Fingerprint != fp:
		reject("fingerprint mismatch (filename hash collision or corruption)")
	case e.Result == nil:
		reject("entry has no result")
	default:
		bumpMetric(func(m *RunMetrics) { m.StoreHits++ })
		return e.Result
	}
	return nil
}
