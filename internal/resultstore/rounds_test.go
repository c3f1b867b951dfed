package resultstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/testsupport"
)

// Fsync-round tests: a batch collects its fsyncs and pays them in a
// handful of concurrent rounds. What a batch may cost and what a round
// may not change is pinned here — the disk operations and fsyncs per
// batch, the hook-visible operation order, and what a failed round
// leaves behind.

// syncSpy is a store hook that records the operation trace, counts
// every fsync (StoreHook.Syncs), and fails, once, the first fsync whose
// file path satisfies fail (nil: fail nothing).
type syncSpy struct {
	*testsupport.StoreHook
	fail   func(path string) bool
	failed atomic.Bool
}

func newSyncSpy(fail func(path string) bool) *syncSpy {
	return &syncSpy{StoreHook: testsupport.NewStoreRecorder(), fail: fail}
}

func (h *syncSpy) Sync(fh *os.File) error {
	err := h.StoreHook.Sync(fh)
	if h.fail != nil && h.fail(fh.Name()) && h.failed.CompareAndSwap(false, true) {
		return &os.PathError{Op: "sync", Path: fh.Name(), Err: syscall.EIO}
	}
	return err
}

// openUnder lists this process's open descriptors on files below dirs.
func openUnder(t *testing.T, dirs ...string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Logf("cannot list open descriptors (%v): handle check skipped", err)
		return nil
	}
	var open []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err != nil {
			continue
		}
		for _, d := range dirs {
			if target == d || strings.HasPrefix(target, d+string(filepath.Separator)) {
				open = append(open, target)
			}
		}
	}
	return open
}

// dirEntries lists the names in each of dirs.
func dirEntries(t *testing.T, dirs ...string) []string {
	t.Helper()
	var names []string
	for _, d := range dirs {
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			names = append(names, filepath.Join(d, e.Name()))
		}
	}
	return names
}

// TestGroupCommitSyncRounds is the disk-op budget that keeps a batch
// cheap. Once a store's first batch has created its files, a batch of K
// puts and K journal lines, any K, creates no file or directory, renames
// and removes nothing, writes only to the pack, the log, the index and
// the journal, and pays the same fsyncs — one per file it appended to:
// 7 mirrored (pack, log, index, journal; mirror pack, index, journal)
// and 4 alone — in three blocking rounds.
func TestGroupCommitSyncRounds(t *testing.T) {
	for _, mirrored := range []bool{true, false} {
		for _, k := range []int{1, 8, 12, 32} {
			name, syncs := fmt.Sprintf("mirrored-%d", k), 7
			if !mirrored {
				name, syncs = fmt.Sprintf("alone-%d", k), 4
			}
			t.Run(name, func(t *testing.T) {
				spy := newSyncSpy(nil)
				o := Options{Dir: t.TempDir(), Fault: spy}
				dirs := []string{o.Dir, filepath.Join(o.Dir, vtstoreDir)}
				if mirrored {
					o.Mirror = t.TempDir()
					dirs = append(dirs, o.Mirror)
				}
				s := mustOpen(t, o)
				// The first batch creates the side's files, commitAsBatch's
				// opener line included.
				warm := jobTx(s, "warm")
				warm.Append("openers.jsonl", []byte(`{"opener":true}`))
				mustCommit(t, warm)
				before, from := dirEntries(t, dirs...), len(spy.Trace())
				synced := spy.Syncs()

				var txs []*Tx
				for i := 0; i < k; i++ {
					txs = append(txs, jobTx(s, fmt.Sprintf("r%d", i)))
				}
				if k == 1 {
					mustCommit(t, txs[0])
				} else if errs, _ := commitAsBatch(t, s, txs); errors.Join(errs...) != nil {
					t.Fatalf("batch: %v", errs)
				}
				b := txs[0].Batch()
				if b.Txs != k || !b.Lead {
					t.Fatalf("batch info %+v, want the leader of %d transactions", b, k)
				}
				if b.Syncs != syncs || b.Rounds != 3 {
					t.Fatalf("%d fsyncs in %d rounds, want %d in 3", b.Syncs, b.Rounds, syncs)
				}
				// The count is the seam's, not only the set's own: a lone commit
				// is everything that was fsynced since the first batch.
				if n := int(spy.Syncs() - synced); k == 1 && n != syncs {
					t.Fatalf("the batch reports %d fsyncs, %d were issued", syncs, n)
				}
				allowed := []string{packFile, filepath.Join(vtstoreDir, walFile), indexFile, "journal.jsonl", "openers.jsonl"}
				for _, op := range spy.Trace()[from:] {
					class, rel, _ := strings.Cut(op, " ")
					for _, d := range []string{o.Dir, o.Mirror} {
						if d != "" && strings.HasPrefix(rel, d+string(filepath.Separator)) {
							rel = rel[len(d)+1:]
						}
					}
					if class != "read" && (class != "write" || !slices.Contains(allowed, rel)) {
						t.Fatalf("batch op %q: want only reads and appends to %v", op, allowed)
					}
				}
				if after := dirEntries(t, dirs...); !slices.Equal(after, before) {
					t.Fatalf("the batch changed directory entries:\nbefore %v\nafter  %v", before, after)
				}
				if rep := s.Verify(); rep.Healthy != k+1 || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
					t.Fatalf("verify: %+v", rep)
				}
			})
		}
	}
}

// TestGroupCommitStageSyncFailure fails the fsync of the primary's pack
// in the staging round of a three-put batch. The round discovers it
// after all three payloads are appended: every member gets the error,
// nothing indexes the staged ranges and no manifest is logged, no handle
// stays open, and the retries commit everything.
func TestGroupCommitStageSyncFailure(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	s := mustOpen(t, Options{Dir: p, Mirror: m,
		Fault: newSyncSpy(func(path string) bool { return path == filepath.Join(p, packFile) })})
	keys := []string{"s0", "s1", "s2"}
	var txs []*Tx
	for _, k := range keys {
		txs = append(txs, jobTx(s, k))
	}
	errs, panics := commitAsBatch(t, s, txs)
	for i := range txs {
		if panics[i] != nil || !errors.Is(errs[i], syscall.EIO) {
			t.Fatalf("member %d: err %v, panic %v; want the failed fsync's EIO", i, errs[i], panics[i])
		}
		if _, err := s.Get(KindResult, keys[i]); !errors.Is(err, ErrNotFound) {
			t.Fatalf("member %d visible after its batch rolled back: %v", i, err)
		}
	}
	if left := pendingTxs(t, p); len(left) != 0 || len(liveIndex(t, p))+len(liveIndex(t, m)) != 0 {
		t.Fatalf("rolled-back batch left pending %v, indexes %v %v", left, liveIndex(t, p), liveIndex(t, m))
	}
	if open := openUnder(t, p, m); len(open) != 0 {
		t.Fatalf("rolled-back batch left handles open: %v", open)
	}

	var wg sync.WaitGroup
	for i, tx := range txs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tx.Commit(); err != nil {
				t.Errorf("member %d retry: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if rep := s.Verify(); rep.Healthy != 3 || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
		t.Fatalf("verify after retried batch: %+v", rep)
	}
	for _, dir := range []string{p, m} {
		for _, k := range keys {
			want := []byte(`{"result":"` + strings.Repeat(k, 20) + `"}`)
			if b := packObject(t, dir, KindResult, k); !bytes.Equal(b, want) {
				t.Fatalf("%s: object %s after retry: %q", dir, k, b)
			}
		}
	}
	if left := pendingTxs(t, p); len(left) != 0 {
		t.Fatalf("batches left undone after the retried commits: %v", left)
	}
}

// TestGroupCommitFinalRoundSyncFailure fails one fsync of the round
// that follows apply and replicate. The batch is past its commit point,
// so Commit succeeds, but its manifest must stay undone (I2): no done
// line, and Close leaves the log for the next Open, which rolls it
// forward.
func TestGroupCommitFinalRoundSyncFailure(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	var mu sync.Mutex
	var events []string
	s := mustOpen(t, Options{Dir: p, Mirror: m, OnEvent: func(ev Event) {
		mu.Lock()
		events = append(events, ev.Op)
		mu.Unlock()
	}, Fault: newSyncSpy(func(path string) bool { return path == filepath.Join(p, indexFile) })})
	tx := jobTx(s, "late")
	mustCommit(t, tx)
	if got := strings.Join(events, ","); got != "apply-failed,commit-deferred" && got != "replicate-failed,commit-deferred" {
		t.Fatalf("events = %s, want a failed round and commit-deferred", got)
	}
	s.Close()
	if left := pendingTxs(t, p); len(left) != 1 {
		t.Fatalf("want exactly the deferred batch undone in the log, found %v", left)
	}
	if open := openUnder(t, p, m); len(open) != 0 {
		t.Fatalf("failed round left handles open: %v", open)
	}

	s2 := mustOpen(t, Options{Dir: p, Mirror: m})
	if c := s2.counts(); c.RecoveredCommits != 1 {
		t.Fatalf("reopen recovered %d commits, want 1", c.RecoveredCommits)
	}
	if left, recs := pendingTxs(t, p), walRecords(t, p); len(left) != 0 || len(recs) != 2 {
		t.Fatalf("log after roll-forward: %d records, pending %v", len(recs), left)
	}
	if _, err := s2.Get(KindResult, "late"); err != nil {
		t.Fatalf("object absent after roll-forward: %v", err)
	}
	if rep := s2.Verify(); rep.Healthy != 1 || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
		t.Fatalf("verify after roll-forward: %+v", rep)
	}
}

// normTrace rewrites a recorded op trace ("class path" lines) into its
// run-independent form: the primary directory becomes P, the mirror M.
func normTrace(trace []string, p, m string) []string {
	out := make([]string, len(trace))
	for i, ln := range trace {
		ln = strings.Replace(ln, " "+p+"/", " P/", 1)
		out[i] = strings.Replace(ln, " "+m+"/", " M/", 1)
	}
	return out
}

// TestGroupCommitOpTrace pins the protocol where it is defined: the
// order of hooked writes and reads of the two kill-point drills, op
// class and store-relative path, literally. The generated
// kill-point subtest names only say that something moved; this says
// what. Hook.Apply never sees an fsync, so regrouping fsyncs into
// rounds must leave both lists untouched.
func TestGroupCommitOpTrace(t *testing.T) {
	check := func(t *testing.T, got, want []string) {
		t.Helper()
		for i := 0; i < len(got) || i < len(want); i++ {
			g, w := "(nothing)", "(nothing)"
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("op %d is %q, want %q\nfull trace:\n%s", i, g, w, strings.Join(got, "\n"))
			}
		}
	}

	// The kill-point drill: one put of every kind and a line. ("blob" in
	// the name is the artifact, an object like the others.)
	t.Run("object+blob+line", func(t *testing.T) {
		p, m := t.TempDir(), t.TempDir()
		killDrillBase(t, p, m)
		rec := testsupport.NewStoreRecorder()
		s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: rec})
		if err := killDrillCommit(t, s); err != nil {
			t.Fatal(err)
		}
		check(t, normTrace(rec.Trace(), p, m), []string{
			"write P/objects.pack",
			"write P/objects.pack",
			"write P/objects.pack",
			"read P/objects.pack",
			"read P/objects.pack",
			"read P/objects.pack",
			"write P/.vtstore/wal.jsonl",
			"read P/.vtstore/wal.jsonl",
			"write P/store-index.jsonl",
			"write P/store-index.jsonl",
			"write P/store-index.jsonl",
			"write P/journal.jsonl",
			"read P/objects.pack",
			"write M/objects.pack",
			"read M/objects.pack",
			"write M/store-index.jsonl",
			"read P/objects.pack",
			"write M/objects.pack",
			"read M/objects.pack",
			"write M/store-index.jsonl",
			"read P/objects.pack",
			"write M/objects.pack",
			"read M/objects.pack",
			"write M/store-index.jsonl",
			"write M/journal.jsonl",
			"write P/.vtstore/wal.jsonl",
		})
	})

	t.Run("opener+batch-of-3", func(t *testing.T) {
		p, m := t.TempDir(), t.TempDir()
		killDrillBase(t, p, m)
		rec := testsupport.NewStoreRecorder()
		s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: rec})
		var txs []*Tx
		for _, k := range []string{"k0", "k1", "k2"} {
			txs = append(txs, jobTx(s, k))
		}
		if errs, _ := commitAsBatch(t, s, txs); errors.Join(errs...) != nil {
			t.Fatal(errs)
		}
		check(t, normTrace(rec.Trace(), p, m), []string{
			"write P/.vtstore/wal.jsonl",
			"read P/.vtstore/wal.jsonl",
			"write P/openers.jsonl",
			"write M/openers.jsonl",
			"write P/.vtstore/wal.jsonl",
			"write P/objects.pack",
			"write P/objects.pack",
			"write P/objects.pack",
			"read P/objects.pack",
			"read P/objects.pack",
			"read P/objects.pack",
			"write P/.vtstore/wal.jsonl",
			"read P/.vtstore/wal.jsonl",
			"write P/store-index.jsonl",
			"write P/journal.jsonl",
			"write P/store-index.jsonl",
			"write P/journal.jsonl",
			"write P/store-index.jsonl",
			"write P/journal.jsonl",
			"read P/objects.pack",
			"write M/objects.pack",
			"read M/objects.pack",
			"write M/store-index.jsonl",
			"write M/journal.jsonl",
			"read P/objects.pack",
			"write M/objects.pack",
			"read M/objects.pack",
			"write M/store-index.jsonl",
			"write M/journal.jsonl",
			"read P/objects.pack",
			"write M/objects.pack",
			"read M/objects.pack",
			"write M/store-index.jsonl",
			"write M/journal.jsonl",
			"write P/.vtstore/wal.jsonl",
		})
	})
}
