package resultstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// The kill-point property test: enumerate every filesystem operation a
// representative transaction performs (staged writes, the redo record,
// the commit-point rename, apply renames, index and journal appends,
// and mirror replication), then re-run the same transaction once per
// operation with a randomized crash fault injected exactly there.
// Reopening the directories afterwards must always yield a valid store
// in which the transaction is either fully visible or fully absent —
// the all-or-nothing claim, proven at every point a process can die.

var (
	killBasePayload = []byte(`{"base":"committed before the drill"}`)
	killPayloadA    = []byte(strings.Repeat(`{"job":"a"}`, 30))
	killArtifactB   = []byte(strings.Repeat("telemetry-ring-bytes-", 40))
	killCheckpointC = []byte(strings.Repeat(`{"machine":"state"}`, 60))
	killLineB       = []byte(`{"fp":"job-b","status":"ok"}`)
)

// killDrillCommit runs the drill's target transaction against s: one
// object of every kind the store holds, and a journal line.
func killDrillCommit(t *testing.T, s *Store) error {
	t.Helper()
	tx := s.Begin()
	tx.Put(KindResult, "job-a", killPayloadA)
	tx.Put(KindArtifact, "job-b", killArtifactB)
	tx.Put(KindCheckpoint, "job-c", killCheckpointC)
	tx.Append("journal.jsonl", killLineB)
	return tx.Commit()
}

// killDrillBase seeds a committed object so every kill point also
// checks that prior state survives untouched.
func killDrillBase(t *testing.T, p, m string) {
	t.Helper()
	s := mustOpen(t, Options{Dir: p, Mirror: m})
	tx := s.Begin()
	tx.Put(KindResult, "base", killBasePayload)
	tx.Append("journal.jsonl", []byte(`{"fp":"base","status":"ok"}`))
	mustCommit(t, tx)
	s.Close()
}

func TestKillPointAllOrNothing(t *testing.T) {
	// Pass 1: record the operation trace of a clean run of the drill.
	p, m := t.TempDir(), t.TempDir()
	killDrillBase(t, p, m)
	rec := faultinject.NewStoreRecorder()
	s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: rec})
	if err := killDrillCommit(t, s); err != nil {
		t.Fatalf("clean drill commit: %v", err)
	}
	trace := rec.Trace()
	if len(trace) < 15 {
		t.Fatalf("suspiciously short op trace (%d ops): %v", len(trace), trace)
	}

	// Pass 2: one subtest per operation, crash kind randomized but
	// deterministic per point.
	kinds := []faultinject.StoreFaultKind{
		faultinject.StoreCrash, faultinject.StoreCrashAfter, faultinject.StoreTruncate,
	}
	rng := rand.New(rand.NewSource(8))
	for i := range trace {
		kind := kinds[rng.Intn(len(kinds))]
		opName := strings.Fields(trace[i])[0]
		t.Run(fmt.Sprintf("op%02d-%s-%s", i, opName, kind), func(t *testing.T) {
			runKillPoint(t, i, kind)
		})
	}
}

// servedOnlyIndexed Gets every object that has a file on any side of s
// and fails if one is served whose SHA-256 is not its indexed one.
func servedOnlyIndexed(t *testing.T, s *Store) {
	t.Helper()
	for _, sd := range s.sides {
		files, err := filepath.Glob(filepath.Join(sd.dir, "vt*-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			kind, key, ok := strings.Cut(strings.TrimSuffix(filepath.Base(f), ".json"), "-")
			if !ok {
				continue
			}
			b, err := s.Get(Kind(kind), key)
			if errors.Is(err, ErrNotFound) {
				continue
			}
			if err != nil {
				t.Fatalf("get %s-%s: %v", kind, key, err)
			}
			e, indexed := s.sides[0].index[objKey{Kind(kind), key}]
			if !indexed || sumHex(b) != e.SHA {
				t.Fatalf("%s-%s served with SHA-256 %s; its index line (present=%v) says %s",
					kind, key, sumHex(b), indexed, e.SHA)
			}
		}
	}
}

func runKillPoint(t *testing.T, point int, kind faultinject.StoreFaultKind) {
	p, m := t.TempDir(), t.TempDir()
	killDrillBase(t, p, m)
	hook := (&faultinject.StoreSpec{Op: faultinject.StoreOpAny, N: point, Kind: kind}).StoreHook()
	s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: hook})
	killed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*faultinject.StoreKill); !ok {
					panic(r)
				}
				killed = true
			}
		}()
		if err := killDrillCommit(t, s); err != nil {
			t.Errorf("commit returned error instead of dying: %v", err)
		}
	}()
	if !killed || !hook.Fired() {
		t.Fatalf("kill fault did not fire (killed=%v fired=%v)", killed, hook.Fired())
	}

	// Simulated reboot: abandon the dead instance, reopen and recover.
	s2 := mustOpen(t, Options{Dir: p, Mirror: m})

	// Prior committed state is untouched.
	if b, err := s2.Get(KindResult, "base"); err != nil || !bytes.Equal(b, killBasePayload) {
		t.Fatalf("pre-existing object damaged by crash at point %d: %v", point, err)
	}

	// All-or-nothing: the result, the artifact, the checkpoint and the
	// journal line agree — all present with exact bytes, or all absent.
	aGot, aErr := s2.Get(KindResult, "job-a")
	bGot, bErr := s2.Get(KindArtifact, "job-b")
	cGot, cErr := s2.Get(KindCheckpoint, "job-c")
	journal, _ := os.ReadFile(filepath.Join(p, "journal.jsonl"))
	lineVisible := strings.Contains(string(journal), `"fp":"job-b"`)
	committed := aErr == nil
	if aErr != nil && !errors.Is(aErr, ErrNotFound) {
		t.Fatalf("get job-a: %v", aErr)
	}
	if committed && !bytes.Equal(aGot, killPayloadA) {
		t.Fatalf("committed object has wrong bytes")
	}
	if (bErr == nil) != committed {
		t.Fatalf("torn transaction: object committed=%v but artifact err=%v", committed, bErr)
	}
	if committed && !bytes.Equal(bGot, killArtifactB) {
		t.Fatalf("committed artifact has wrong bytes")
	}
	if (cErr == nil) != committed {
		t.Fatalf("torn transaction: object committed=%v but checkpoint err=%v", committed, cErr)
	}
	if committed && !bytes.Equal(cGot, killCheckpointC) {
		t.Fatalf("committed checkpoint has wrong bytes")
	}
	if lineVisible != committed {
		t.Fatalf("torn transaction: object committed=%v but journal line visible=%v", committed, lineVisible)
	}

	// The recovered store audits clean: nothing damaged, nothing torn.
	if rep := s2.Verify(); len(rep.Damaged) != 0 || len(rep.Unrecoverable) != 0 {
		t.Fatalf("verify after recovery: %+v", rep)
	}

	// Nothing is served unverified: whatever a Get returns, for any
	// object file the crash left on either side, hashes to the checksum
	// the primary's index records for it.
	servedOnlyIndexed(t, s2)

	// Recovery is idempotent: a second reopen changes nothing.
	s3 := mustOpen(t, Options{Dir: p, Mirror: m})
	aGot2, aErr2 := s3.Get(KindResult, "job-a")
	if (aErr2 == nil) != committed || (committed && !bytes.Equal(aGot2, killPayloadA)) {
		t.Fatalf("second recovery changed visibility: committed=%v err=%v", committed, aErr2)
	}
}
