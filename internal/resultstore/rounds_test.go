package resultstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/faultinject"
)

// Fsync-round tests: a batch collects its fsyncs and pays them in a
// handful of concurrent rounds. What a round may not change is pinned
// here — the number of fsyncs per batch, the hook-visible operation
// order, and what a failed round leaves behind.

// hookSync installs a syncFile that counts every fsync and fails, once,
// the first one whose file path satisfies fail (nil: fail nothing).
func hookSync(t *testing.T, fail func(path string) bool) *atomic.Int64 {
	t.Helper()
	orig := syncFile
	t.Cleanup(func() { syncFile = orig })
	var calls atomic.Int64
	var failed atomic.Bool
	syncFile = func(fh *os.File) error {
		calls.Add(1)
		if fail != nil && fail(fh.Name()) && failed.CompareAndSwap(false, true) {
			return &os.PathError{Op: "sync", Path: fh.Name(), Err: syscall.EIO}
		}
		return orig(fh)
	}
	return &calls
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

// walDebris lists what is left under .vtstore/{staging,wal} of dirs.
func walDebris(dirs ...string) []string {
	var left []string
	for _, d := range dirs {
		l, _ := filepath.Glob(filepath.Join(d, vtstoreDir, "*", "*"))
		left = append(left, l...)
	}
	return left
}

// TestGroupCommitSyncRounds: rounds change when a batch's fsyncs are
// issued, never how many there are. K objects cost 2K+8 fsyncs mirrored
// and K+5 alone — the serial protocol's count — in a number of blocking
// rounds that does not grow with K.
func TestGroupCommitSyncRounds(t *testing.T) {
	for _, tc := range []struct {
		name          string
		mirrored      bool
		k             int
		syncs, rounds int
	}{
		{"mirrored-12", true, 12, 2*12 + 8, 5},
		{"alone-12", false, 12, 12 + 5, 4},
		{"mirrored-1", true, 1, 10, 5},
		{"alone-1", false, 1, 6, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := Options{Dir: t.TempDir()}
			if tc.mirrored {
				o.Mirror = t.TempDir()
			}
			s := mustOpen(t, o)
			calls := hookSync(t, nil)
			var txs []*Tx
			for i := 0; i < tc.k; i++ {
				txs = append(txs, jobTx(s, "r"+strings.Repeat("x", i)))
			}
			if tc.k == 1 {
				mustCommit(t, txs[0])
			} else if errs, _ := commitAsBatch(t, s, txs); errors.Join(errs...) != nil {
				t.Fatalf("batch: %v", errs)
			}
			b := txs[0].Batch()
			if b.Txs != tc.k || !b.Lead {
				t.Fatalf("batch info %+v, want the leader of %d transactions", b, tc.k)
			}
			if b.Syncs != tc.syncs || b.Rounds < 1 || b.Rounds > tc.rounds {
				t.Fatalf("%d fsyncs in %d rounds, want exactly %d in at most %d", b.Syncs, b.Rounds, tc.syncs, tc.rounds)
			}
			// The count is the seam's, not only the set's own: a lone commit
			// is everything that was fsynced since the store opened.
			if n := int(calls.Load()); tc.k == 1 && n != tc.syncs {
				t.Fatalf("the batch reports %d fsyncs, %d were issued", tc.syncs, n)
			}
			if rep := s.Verify(); rep.Healthy != tc.k || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
				t.Fatalf("verify: %+v", rep)
			}
		})
	}
}

// TestGroupCommitStageSyncFailure fails the fsync of the second staged
// file of a three-put batch. The round discovers it after all three
// files exist: every member gets the error, nothing is left staged on
// either side, no handle stays open, and the retries commit everything.
func TestGroupCommitStageSyncFailure(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	s := mustOpen(t, Options{Dir: p, Mirror: m})
	// Manifest ops are put, append per member: the second put is op 2.
	hookSync(t, func(path string) bool {
		return strings.Contains(path, "staging") && strings.HasSuffix(path, "-2.0")
	})
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
	if left := walDebris(p, m); len(left) != 0 {
		t.Fatalf("rolled-back batch left debris: %v", left)
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
			if b, err := os.ReadFile(filepath.Join(dir, "vtsim-"+k+".json")); err != nil || !bytes.Equal(b, want) {
				t.Fatalf("%s: object %s after retry: %v %q", dir, k, err, b)
			}
		}
	}
	if left := walDebris(p, m); len(left) != 0 {
		t.Fatalf("debris after the retried commits: %v", left)
	}
}

// TestGroupCommitFinalRoundSyncFailure fails one fsync of the round
// that follows apply and replicate. The batch is past its commit point,
// so Commit succeeds, but the commit record must outlive the round
// (I2): it stays for the next Open, which rolls it forward.
func TestGroupCommitFinalRoundSyncFailure(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	var mu sync.Mutex
	var events []string
	s := mustOpen(t, Options{Dir: p, Mirror: m, OnEvent: func(ev Event) {
		mu.Lock()
		events = append(events, ev.Op)
		mu.Unlock()
	}})
	hookSync(t, func(path string) bool { return path == filepath.Join(p, indexFile) })
	tx := jobTx(s, "late")
	mustCommit(t, tx)
	if got := strings.Join(events, ","); got != "apply-failed,commit-deferred" && got != "replicate-failed,commit-deferred" {
		t.Fatalf("events = %s, want a failed round and commit-deferred", got)
	}
	left := walDebris(p, m)
	if len(left) != 1 || !strings.HasSuffix(left[0], ".commit") {
		t.Fatalf("want exactly the surviving commit record, found %v", left)
	}
	if open := openUnder(t, p, m); len(open) != 0 {
		t.Fatalf("failed round left handles open: %v", open)
	}

	s2 := mustOpen(t, Options{Dir: p, Mirror: m})
	if c := s2.counts(); c.RecoveredCommits != 1 {
		t.Fatalf("reopen recovered %d commits, want 1", c.RecoveredCommits)
	}
	if left := walDebris(p, m); len(left) != 0 {
		t.Fatalf("debris after roll-forward: %v", left)
	}
	if _, err := s2.Get(KindResult, "late"); err != nil {
		t.Fatalf("object absent after roll-forward: %v", err)
	}
	if rep := s2.Verify(); rep.Healthy != 1 || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
		t.Fatalf("verify after roll-forward: %+v", rep)
	}
}

var txidRE = regexp.MustCompile(`tx-\d+-\d+`)

// normTrace rewrites a recorded op trace ("class path" lines) into its
// run-independent form: the primary directory becomes P, the mirror M,
// and every transaction id "tx".
func normTrace(trace []string, p, m string) []string {
	out := make([]string, len(trace))
	for i, ln := range trace {
		ln = strings.Replace(ln, " "+p+"/", " P/", 1)
		ln = strings.Replace(ln, " "+m+"/", " M/", 1)
		out[i] = txidRE.ReplaceAllString(ln, "tx")
	}
	return out
}

// TestGroupCommitOpTrace pins the protocol where it is defined: the
// order of hooked writes, renames and reads of the two kill-point
// drills, op class and store-relative path, literally. The generated
// kill-point subtest names only say that something moved; this says
// what. The fault hook never sees an fsync, so regrouping fsyncs into
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
		rec := faultinject.NewStoreRecorder()
		s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: rec})
		if err := killDrillCommit(t, s); err != nil {
			t.Fatal(err)
		}
		check(t, normTrace(rec.Trace(), p, m), []string{
			"write P/.vtstore/staging/tx-0.0",
			"write P/.vtstore/staging/tx-1.0",
			"write P/.vtstore/staging/tx-2.0",
			"write P/.vtstore/wal/tx.redo",
			"rename P/.vtstore/wal/tx.commit",
			"rename P/vtsim-job-a.json",
			"write P/store-index.jsonl",
			"rename P/vtart-job-b.json",
			"write P/store-index.jsonl",
			"rename P/vtck-job-c.json",
			"write P/store-index.jsonl",
			"write P/journal.jsonl",
			"read P/vtsim-job-a.json",
			"write M/.vtstore/staging/repl-tx-vtsim-job-a.json",
			"rename M/vtsim-job-a.json",
			"write M/store-index.jsonl",
			"read P/vtart-job-b.json",
			"write M/.vtstore/staging/repl-tx-vtart-job-b.json",
			"rename M/vtart-job-b.json",
			"write M/store-index.jsonl",
			"read P/vtck-job-c.json",
			"write M/.vtstore/staging/repl-tx-vtck-job-c.json",
			"rename M/vtck-job-c.json",
			"write M/store-index.jsonl",
			"write M/journal.jsonl",
		})
	})

	t.Run("opener+batch-of-3", func(t *testing.T) {
		p, m := t.TempDir(), t.TempDir()
		killDrillBase(t, p, m)
		rec := faultinject.NewStoreRecorder()
		s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: rec})
		var txs []*Tx
		for _, k := range []string{"k0", "k1", "k2"} {
			txs = append(txs, jobTx(s, k))
		}
		if errs, _ := commitAsBatch(t, s, txs); errors.Join(errs...) != nil {
			t.Fatal(errs)
		}
		check(t, normTrace(rec.Trace(), p, m), []string{
			"write P/.vtstore/wal/tx.redo",
			"rename P/.vtstore/wal/tx.commit",
			"write P/openers.jsonl",
			"write M/openers.jsonl",
			"write P/.vtstore/staging/tx-0.0",
			"write P/.vtstore/staging/tx-2.0",
			"write P/.vtstore/staging/tx-4.0",
			"write P/.vtstore/wal/tx.redo",
			"rename P/.vtstore/wal/tx.commit",
			"rename P/vtsim-k0.json",
			"write P/store-index.jsonl",
			"write P/journal.jsonl",
			"rename P/vtsim-k1.json",
			"write P/store-index.jsonl",
			"write P/journal.jsonl",
			"rename P/vtsim-k2.json",
			"write P/store-index.jsonl",
			"write P/journal.jsonl",
			"read P/vtsim-k0.json",
			"write M/.vtstore/staging/repl-tx-vtsim-k0.json",
			"rename M/vtsim-k0.json",
			"write M/store-index.jsonl",
			"write M/journal.jsonl",
			"read P/vtsim-k1.json",
			"write M/.vtstore/staging/repl-tx-vtsim-k1.json",
			"rename M/vtsim-k1.json",
			"write M/store-index.jsonl",
			"write M/journal.jsonl",
			"read P/vtsim-k2.json",
			"write M/.vtstore/staging/repl-tx-vtsim-k2.json",
			"rename M/vtsim-k2.json",
			"write M/store-index.jsonl",
			"write M/journal.jsonl",
		})
	})
}
