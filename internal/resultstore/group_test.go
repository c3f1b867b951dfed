package resultstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testsupport"
)

// Group-commit tests: concurrent Commit calls coalesce into batches that
// land whole or not at all, a definite-miss Get never waits behind one,
// and a batch that fails or dies does so for every member.

// jobTx builds the transaction shape the harness commits per run: one
// Result object plus its journal line.
func jobTx(s *Store, key string) *Tx {
	tx := s.Begin()
	tx.Put(KindResult, key, []byte(`{"result":"`+strings.Repeat(key, 20)+`"}`))
	tx.Append("journal.jsonl", []byte(`{"fp":"`+key+`","status":"ok"}`))
	return tx
}

// lineCounts counts, per value of the JSON field named by marker, the
// lines of a JSONL file that carry it.
func lineCounts(t *testing.T, path, marker string) map[string]int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, ln := range strings.Split(string(b), "\n") {
		i := strings.Index(ln, marker)
		if i < 0 {
			continue
		}
		rest := ln[i+len(marker):]
		out[rest[:strings.IndexByte(rest, '"')]]++
	}
	return out
}

func TestGroupCommitConcurrent(t *testing.T) {
	const writers, perWriter = 8, 12
	p, m := t.TempDir(), t.TempDir()
	rec := testsupport.NewStoreRecorder()
	s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: rec})

	txs := make([][]*Tx, writers)
	var wg sync.WaitGroup
	// Hold the commit lock until one writer leads and every other writer
	// has queued behind it, so at least one batch coalesces however fast
	// the disk answers (a test store skips the fsync syscall).
	s.mu.Lock()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := jobTx(s, fmt.Sprintf("g%d-%d", g, i))
				if err := tx.Commit(); err != nil {
					t.Errorf("commit g%d-%d: %v", g, i, err)
				}
				txs[g] = append(txs[g], tx)
			}
		}(g)
	}
	waitQueue(t, s, "a leader and every other writer queued", func() bool { return s.committing && len(s.queue) == writers-1 })
	s.mu.Unlock()
	wg.Wait()

	// Every transaction rode in exactly one batch: the leaders' sizes add
	// up to the total, and the phases each member reports tile its batch.
	total, batches := 0, 0
	for _, ts := range txs {
		for _, tx := range ts {
			b := tx.Batch()
			if b.Txs < 1 || b.Ops != 2*b.Txs {
				t.Fatalf("bogus batch info: %+v", b)
			}
			if b.Lead {
				total += b.Txs
				batches++
			}
			ph := tx.Phases()
			if len(ph) != 4 {
				t.Fatalf("phases = %v, want stage,commit,apply,replicate", ph)
			}
			for i := 1; i < len(ph); i++ {
				if gap := ph[i].Start.Sub(ph[i-1].Start.Add(ph[i-1].Dur)); gap < -time.Microsecond || gap > time.Microsecond {
					t.Fatalf("phase %s starts %v after the previous one ends", ph[i].Name, gap)
				}
			}
		}
	}
	if total != writers*perWriter {
		t.Fatalf("batch leaders account for %d transactions, want %d", total, writers*perWriter)
	}
	// Coalescing happened: fewer manifests than transactions, one per
	// batch (each read back once).
	manifests := 0
	for _, op := range rec.Trace() {
		if op == "read "+filepath.Join(p, vtstoreDir, walFile) {
			manifests++
		}
	}
	if manifests != batches || manifests >= writers*perWriter {
		t.Fatalf("%d manifests for %d batches of %d transactions: commits did not coalesce", manifests, batches, writers*perWriter)
	}
	if c := s.counts(); c.Commits != writers*perWriter {
		t.Fatalf("Commits = %d, want %d", c.Commits, writers*perWriter)
	}

	// On both sides: every put indexed exactly once, every line once.
	for _, dir := range []string{p, m} {
		idx := lineCounts(t, filepath.Join(dir, indexFile), `"key":"`)
		jl := lineCounts(t, filepath.Join(dir, "journal.jsonl"), `"fp":"`)
		for g := 0; g < writers; g++ {
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("g%d-%d", g, i)
				if idx[k] != 1 || jl[k] != 1 {
					t.Fatalf("%s: key %s has %d index lines and %d journal lines, want 1 and 1", dir, k, idx[k], jl[k])
				}
			}
		}
	}
	if rep := s.Verify(); rep.Healthy != writers*perWriter || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
		t.Fatalf("verify after concurrent commits: %+v", rep)
	}
	if left := pendingTxs(t, p); len(left) != 0 {
		t.Fatalf("batches left undone after clean commits: %v", left)
	}
}

// TestGetMissDoesNotWaitForCommit holds a commit inside its first pack
// append — the commit lock is taken, the disk has stopped answering — and
// asks for an object nobody has computed: the sweep slot's question, which
// must be answered from the in-memory index alone.
func TestGetMissDoesNotWaitForCommit(t *testing.T) {
	hook := (&testsupport.StoreSpec{Op: testsupport.StoreOpWrite, N: 0, Kind: testsupport.StoreStall}).StoreHook()
	s := mustOpen(t, Options{Dir: t.TempDir(), Mirror: t.TempDir(), Fault: hook})
	committed := make(chan error, 1)
	go func() { committed <- jobTx(s, "slow").Commit() }()
	<-hook.Stalled()

	missed := make(chan error, 1)
	go func() {
		_, err := s.Get(KindResult, "never-computed")
		missed <- err
	}()
	select {
	case err := <-missed:
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("miss returned %v, want ErrNotFound", err)
		}
	case <-committed:
		t.Fatal("the stalled commit finished before the miss was answered")
	case <-time.After(10 * time.Second):
		t.Fatal("a definite miss waited behind the in-flight commit")
	}

	hook.Release()
	if err := <-committed; err != nil {
		t.Fatalf("stalled commit: %v", err)
	}
	if _, err := s.Get(KindResult, "slow"); err != nil {
		t.Fatalf("object absent after its commit was released: %v", err)
	}
	if c := s.counts(); c.Gets != 2 || c.Misses != 1 || c.Hits != 1 {
		t.Fatalf("counters lost the lock-free miss: %+v", c)
	}
}

// waitQueue polls the group-commit queue state until cond holds.
func waitQueue(t *testing.T, s *Store, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.qmu.Lock()
		ok := cond()
		s.qmu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// commitAsBatch forces txs into one group-commit batch, in order: with
// the commit lock held by the test, an opener transaction becomes the
// leader and waits for the lock, txs queue behind it one by one, and
// releasing the lock lets the opener commit alone and txs[0] lead the
// rest. It returns, per transaction, the Commit error or the panic value
// Commit raised.
func commitAsBatch(t *testing.T, s *Store, txs []*Tx) (errs []error, panics []any) {
	t.Helper()
	errs, panics = make([]error, len(txs)), make([]any, len(txs))
	var wg sync.WaitGroup
	s.mu.Lock()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }() // a kill inside the opener is the members' to report
		opener := s.Begin()
		opener.Append("openers.jsonl", []byte(`{"opener":true}`))
		opener.Commit()
	}()
	waitQueue(t, s, "the opener to take the lead", func() bool { return s.committing })
	for i, tx := range txs {
		wg.Add(1)
		go func(i int, tx *Tx) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			errs[i] = tx.Commit()
		}(i, tx)
		waitQueue(t, s, "a member to queue", func() bool { return len(s.queue) == i+1 })
	}
	s.mu.Unlock()
	wg.Wait()
	return errs, panics
}

// TestBatchTransientEIORetried fails one pack append of a three-member
// batch with a transient error: the batch rolls back as a whole, every
// member's Commit reports the retryable error, and when each retries —
// as the harness's storeRetry does — everything commits exactly once.
func TestBatchTransientEIORetried(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	// Writes 0-3 are the opener's (manifest, its line on both sides, done),
	// 4-6 the batch's pack appends: fail the second of those.
	hook := (&testsupport.StoreSpec{Op: testsupport.StoreOpWrite, N: 5, Kind: testsupport.StoreEIO}).StoreHook()
	s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: hook})
	keys := []string{"e0", "e1", "e2"}
	var txs []*Tx
	for _, k := range keys {
		txs = append(txs, jobTx(s, k))
	}
	errs, panics := commitAsBatch(t, s, txs)
	if !hook.Fired() {
		t.Fatal("injected EIO never fired")
	}
	for i := range txs {
		if panics[i] != nil {
			t.Fatalf("member %d panicked: %v", i, panics[i])
		}
		if !IsTransient(errs[i]) {
			t.Fatalf("member %d: err = %v, want the batch's transient error", i, errs[i])
		}
		if b := txs[i].Batch(); b.Txs != 3 {
			t.Fatalf("member %d rode in a batch of %d, want 3", i, b.Txs)
		}
		if _, err := s.Get(KindResult, keys[i]); !errors.Is(err, ErrNotFound) {
			t.Fatalf("member %d visible after its batch rolled back: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	for i, tx := range txs {
		wg.Add(1)
		go func(i int, tx *Tx) {
			defer wg.Done()
			if err := tx.Commit(); err != nil {
				t.Errorf("member %d retry: %v", i, err)
			}
		}(i, tx)
	}
	wg.Wait()
	for _, dir := range []string{p, m} {
		idx := lineCounts(t, filepath.Join(dir, indexFile), `"key":"`)
		jl := lineCounts(t, filepath.Join(dir, "journal.jsonl"), `"fp":"`)
		for _, k := range keys {
			if idx[k] != 1 || jl[k] != 1 {
				t.Fatalf("%s: %s committed %d/%d times (index/journal), want once", dir, k, idx[k], jl[k])
			}
		}
	}
	if rep := s.Verify(); rep.Healthy != 3 || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
		t.Fatalf("verify after retried batch: %+v", rep)
	}
}

// TestKillPointBatchAllOrNothing extends the kill-point sweep to a
// multi-transaction batch: inject every fault kind at each filesystem
// operation of a three-member batch (and of the opener before it),
// reopen, and all three transactions are there or none is. In a process
// that dies, every member's Commit and any later one re-raise the kill;
// in one that lives, every member reports the batch's one outcome.
func TestKillPointBatchAllOrNothing(t *testing.T) {
	keys := []string{"k0", "k1", "k2"}
	drill := func(t *testing.T, s *Store) ([]error, []any) {
		var txs []*Tx
		for _, k := range keys {
			txs = append(txs, jobTx(s, k))
		}
		return commitAsBatch(t, s, txs)
	}

	p, m := t.TempDir(), t.TempDir()
	killDrillBase(t, p, m)
	rec := testsupport.NewStoreRecorder()
	s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: rec})
	if errs, panics := drill(t, s); errors.Join(errs...) != nil || panics[0] != nil {
		t.Fatalf("clean batch: %v %v", errs, panics)
	}
	trace := rec.Trace()
	if n := strings.Count(strings.Join(trace, "\n"), "read "+filepath.Join(p, vtstoreDir, walFile)); n != 2 {
		t.Fatalf("drill logged %d manifests, want 2 (opener + one batch):\n%s", n, strings.Join(trace, "\n"))
	}

	for point := range trace {
		for _, kind := range faultKinds {
			t.Run(fmt.Sprintf("op%02d-%s", point, kind), func(t *testing.T) {
				p, m := t.TempDir(), t.TempDir()
				killDrillBase(t, p, m)
				hook := (&testsupport.StoreSpec{Op: testsupport.StoreOpAny, N: point, Kind: kind}).StoreHook()
				s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: hook})
				errs, panics := drill(t, s)
				if !hook.Fired() {
					t.Fatal("the fault did not fire")
				}
				_, killed := panics[0].(*testsupport.StoreKill)
				for i := range keys {
					if _, ok := panics[i].(*testsupport.StoreKill); ok != killed || (!killed && panics[i] != nil) {
						t.Fatalf("member %d: Commit returned %v (panic %v); member 0 died=%v", i, errs[i], panics[i], killed)
					}
					if !errors.Is(errs[i], errs[0]) {
						t.Fatalf("member %d returned %v, member 0 %v: want the batch's one outcome", i, errs[i], errs[0])
					}
				}
				if killed {
					func() {
						defer func() {
							if _, ok := recover().(*testsupport.StoreKill); !ok {
								t.Error("a commit submitted after the kill did not re-raise it")
							}
						}()
						jobTx(s, "late").Commit()
					}()
				} else {
					s.Close()
				}

				s2 := mustOpen(t, Options{Dir: p, Mirror: m})
				if b, err := s2.Get(KindResult, "base"); err != nil || !bytes.Equal(b, killBasePayload) {
					t.Fatalf("pre-existing object damaged: %v", err)
				}
				journal, _ := os.ReadFile(filepath.Join(p, "journal.jsonl"))
				landed := 0
				for _, k := range keys {
					b, err := s2.Get(KindResult, k)
					if err != nil && !errors.Is(err, ErrNotFound) {
						t.Fatalf("get %s: %v", k, err)
					}
					if line := strings.Contains(string(journal), `"fp":"`+k+`"`); line != (err == nil) {
						t.Fatalf("torn transaction %s: object present=%v, journal line=%v", k, err == nil, line)
					}
					if want := []byte(`{"result":"` + strings.Repeat(k, 20) + `"}`); err == nil && !bytes.Equal(b, want) {
						t.Fatalf("%s served %q, want %q", k, b, want)
					}
					if err == nil {
						landed++
					}
				}
				if landed != 0 && landed != len(keys) {
					t.Fatalf("torn batch: %d of %d members landed", landed, len(keys))
				}
				if !killed && (landed > 0) != (errs[0] == nil) {
					t.Fatalf("the batch's Commit returned %v but %d members landed", errs[0], landed)
				}
				if _, err := s2.Get(KindResult, "late"); !errors.Is(err, ErrNotFound) {
					t.Fatalf("a commit made after the kill reached the disk: %v", err)
				}
				recoveredClean(t, s2, killed)
				servedOnlyIndexed(t, s2)
			})
		}
	}
}

// TestCloseIsABarrier: Close returns only after queued commits finished,
// and refuses later ones.
func TestCloseIsABarrier(t *testing.T) {
	hook := (&testsupport.StoreSpec{Op: testsupport.StoreOpWrite, N: 0, Kind: testsupport.StoreStall}).StoreHook()
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Fault: hook})
	var wg sync.WaitGroup
	for i, k := range []string{"c0", "c1", "c2"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			if err := jobTx(s, k).Commit(); err != nil {
				t.Errorf("commit %s: %v", k, err)
			}
		}(k)
		if i == 0 {
			<-hook.Stalled() // c0 leads and is held; the others queue
		} else {
			waitQueue(t, s, "a commit to queue", func() bool { return len(s.queue) == i })
		}
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a commit was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	hook.Release()
	<-closed
	wg.Wait()
	if err := jobTx(s, "after-close").Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after Close: %v, want ErrClosed", err)
	}
	if recs := walRecords(t, dir); len(recs) != 0 {
		t.Fatalf("Close left %d records in the log", len(recs))
	}
	s2 := mustOpen(t, Options{Dir: dir})
	for _, k := range []string{"c0", "c1", "c2"} {
		if _, err := s2.Get(KindResult, k); err != nil {
			t.Fatalf("%s not durable after Close: %v", k, err)
		}
	}
}
