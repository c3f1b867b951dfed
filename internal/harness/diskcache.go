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

// envelope is the JSON envelope of one stored object: a cached run's
// Result (vtsim) or a prefix group's Checkpoint (vtck), exactly one of
// the two. The full fingerprint is stored (not just its hash) so version
// or scheme mismatches are detected by content, never assumed from the
// key.
type envelope struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Result      *gpu.Result     `json:"result,omitempty"`
	Checkpoint  *gpu.Checkpoint `json:"checkpoint,omitempty"`
}

// put stages the envelope in tx under its fingerprint's cache key.
func (e envelope) put(tx *resultstore.Tx, kind resultstore.Kind) {
	if b, err := json.Marshal(e); err == nil {
		tx.Put(kind, CacheKey(e.Fingerprint), b)
	}
}

// CacheKey hashes a fingerprint into the stable hex id used for cache
// object names, completion-journal entries, result-store keys and fabric
// jobs, so a journal line can be correlated with its stored Result.
func CacheKey(fp string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("v%d|%s", diskCacheVersion, fp)))
	return hex.EncodeToString(sum[:16])
}

// writeBehindWindow bounds the run outcomes a sweep has submitted but its
// store has not yet made durable. It is the most a process killed outright
// can lose (-resume re-executes exactly those jobs), and the depth at
// which a slot that outruns the disk starts to wait for it. Commits in the window coalesce into group-commit batches,
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

// storeRetryAttempts bounds the retry-with-backoff for transient store
// I/O errors. A simulation is never retried (see supervisor.go).
const storeRetryAttempts = 3

// storeRetry runs op, retrying transient store I/O errors with
// jittered exponential backoff (equal jitter over a 2ms/8ms base, so a
// fleet of workers hammering one store desynchronizes instead of
// retrying in lockstep). The sleep aborts when ctx is canceled —
// graceful shutdown must never block mid-backoff — returning the op
// error joined with the context error.
func (s *Sweep) storeRetry(ctx context.Context, op func() error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	backoff := 2 * time.Millisecond
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !resultstore.IsTransient(err) || attempt == storeRetryAttempts {
			return err
		}
		s.count(func(m *RunMetrics) { m.StoreRetries++ })
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
	tr := p.Sweep.Trace
	err := p.Sweep.storeRetry(p.Context(), tx.Commit)
	b, ph := tx.Batch(), tx.Phases()
	if !b.Lead || len(ph) == 0 {
		return err
	}
	p.Sweep.Monitor.noteStoreBatch(b.Txs)
	last := ph[len(ph)-1]
	id := tr.Record(p.sweepSpan, "store.tx", "", "", ph[0].Start, last.Start.Add(last.Dur).Sub(ph[0].Start),
		"txs", strconv.Itoa(b.Txs), "ops", strconv.Itoa(b.Ops),
		"syncs", strconv.Itoa(b.Syncs), "rounds", strconv.Itoa(b.Rounds))
	for _, x := range ph {
		tr.Record(id, "store."+x.Name, "", "", x.Start, x.Dur)
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

// getObject reads one raw store object with bounded retry on transient
// I/O.
func (s *Sweep) getObject(p Params, st *resultstore.Store, kind resultstore.Kind, key string) (b []byte, err error) {
	err = s.storeRetry(p.Context(), func() error {
		var gerr error
		b, gerr = st.Get(kind, key)
		return gerr
	})
	return b, err
}

// loadEnvelope returns the stored Result (kind KindResult) or Checkpoint
// (KindCheckpoint) envelope for the fingerprint fp, whose cache key is
// key, or nil, counting the store hit or miss and recording the lookup
// as a span of the given kind under the job. The store verifies content checksums and heals from the
// mirror before the payload reaches this envelope check; envelope-level
// mismatches (stale version or checkpoint format, fingerprint collision,
// no payload) quarantine the object on every side, so the re-simulation's
// rewrite is not shadowed and the caller falls back to simulating.
func (s *Sweep) loadEnvelope(p Params, st *resultstore.Store, kind resultstore.Kind, span string, j Job, fp, key string) *envelope {
	sid := s.Trace.Begin(p.span, span, j.Workload, j.Variant)
	defer s.Trace.End(sid)
	var e envelope
	b, err := s.getObject(p, st, kind, key)
	var uerr error
	if err == nil {
		uerr = json.Unmarshal(b, &e)
	}
	reject := ""
	switch {
	case err != nil:
		if !errors.Is(err, resultstore.ErrNotFound) {
			fmt.Fprintf(os.Stderr, "harness: cache read %s: %v\n", key, err)
		}
	case uerr != nil:
		reject = fmt.Sprintf("corrupt JSON: %v", uerr)
	case e.Version != diskCacheVersion:
		reject = fmt.Sprintf("stale version %d (want %d)", e.Version, diskCacheVersion)
	case e.Fingerprint != fp:
		reject = "fingerprint mismatch (filename hash collision or corruption)"
	case (kind == resultstore.KindResult && e.Result == nil) || (kind == resultstore.KindCheckpoint && e.Checkpoint == nil):
		reject = "entry has no payload"
	case e.Checkpoint != nil && e.Checkpoint.Version != gpu.CheckpointVersion:
		reject = fmt.Sprintf("stale checkpoint format %d (want %d)", e.Checkpoint.Version, gpu.CheckpointVersion)
	}
	if reject != "" {
		st.Quarantine(kind, key, reject)
	}
	if err != nil || reject != "" {
		s.count(func(m *RunMetrics) { m.StoreMisses++ })
		s.Trace.SetAttr(sid, "outcome", "miss")
		return nil
	}
	s.count(func(m *RunMetrics) { m.StoreHits++ })
	s.Trace.SetAttr(sid, "outcome", "hit")
	if e.Checkpoint != nil {
		s.Trace.SetAttr(sid, "cycle", fmt.Sprint(e.Checkpoint.Cycle))
	}
	return &e
}
