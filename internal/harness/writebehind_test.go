package harness

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/resultstore"
)

// TestSyncMakesOutcomesDurable: after the sweep's barrier, a
// process that knows nothing but the directories — a fresh
// resultstore.Open — serves every submitted outcome from either side, and
// both journals name it.
func TestSyncMakesOutcomesDurable(t *testing.T) {
	p := inSweep(t, Params{Scale: 1, Config: config.Small(), Dilute: 60, Workers: 4,
		CacheDir: filepath.Join(t.TempDir(), "primary"), MirrorDir: filepath.Join(t.TempDir(), "mirror")})
	jobs := policyJobs([]string{"vecadd", "bfs", "spmv", "nw"},
		[]config.Policy{config.PolicyBaseline, config.PolicyVT})
	keys := drillKeys(t, p, jobs)
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}
	if _, err := runMany(p, jobs); err != nil {
		t.Fatal(err)
	}
	p.Sweep.Sync()

	for _, side := range []struct{ dir, mirror string }{{p.CacheDir, p.MirrorDir}, {p.MirrorDir, ""}} {
		st, err := resultstore.Open(resultstore.Options{Dir: side.dir, Mirror: side.mirror})
		if err != nil {
			t.Fatal(err)
		}
		ok := journalOKSet(t, filepath.Join(side.dir, JournalFileName))
		for i, k := range keys {
			if _, err := st.Get(resultstore.KindResult, k); err != nil {
				t.Errorf("%s: job %d not servable after the barrier: %v", side.dir, i, err)
			}
			if !ok[k] {
				t.Errorf("%s: job %d missing from the journal after the barrier", side.dir, i)
			}
		}
		if rep := st.Verify(); rep.Healthy != len(keys) || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
			t.Errorf("%s: verify after the barrier: %+v", side.dir, rep)
		}
		st.Close()
	}
}

// TestWriteBehindWindow: the window bounds the commits in flight (the
// submitter that would exceed it waits for room), the barrier waits for
// all of them, and a commit that dies poisons the pipeline.
func TestWriteBehindWindow(t *testing.T) {
	w := newWriteBehind()
	release := make(chan struct{})
	var running, peak, done atomic.Int32
	commit := func() {
		n := running.Add(1)
		for {
			if old := peak.Load(); n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		<-release
		running.Add(-1)
		done.Add(1)
	}
	for i := 0; i < writeBehindWindow; i++ {
		w.submit(commit) // never blocks: there is room
	}
	overflow := make(chan struct{})
	go func() {
		w.submit(commit)
		close(overflow)
	}()
	select {
	case <-overflow:
		t.Fatalf("submit %d went through a full window of %d", writeBehindWindow+1, writeBehindWindow)
	case <-time.After(20 * time.Millisecond):
	}
	release <- struct{}{} // one commit finishes: exactly one slot of room
	select {
	case <-overflow:
	case <-time.After(10 * time.Second):
		t.Fatal("submit still blocked after the window drained by one")
	}
	close(release)
	if dead := w.wait(); dead != nil {
		t.Fatalf("clean pipeline reports %v", dead)
	}
	if done.Load() != writeBehindWindow+1 || running.Load() != 0 {
		t.Fatalf("barrier returned with %d of %d commits done", done.Load(), writeBehindWindow+1)
	}
	if peak.Load() > writeBehindWindow {
		t.Fatalf("%d commits in flight at once, window is %d", peak.Load(), writeBehindWindow)
	}

	// A commit that panics is reported by the barrier and re-raised by
	// every later submit, from whichever goroutine.
	w.submit(func() { panic("simulated death") })
	if dead := w.wait(); dead != "simulated death" {
		t.Fatalf("barrier reports %v, want the commit's panic value", dead)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != "simulated death" {
					t.Errorf("submit after death recovered %v", r)
				}
			}()
			w.submit(func() { t.Error("a commit ran after the pipeline died") })
		}()
	}
	wg.Wait()
}
