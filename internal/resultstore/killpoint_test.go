package resultstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/testsupport"
)

// The kill-point property test: enumerate every filesystem operation a
// representative transaction performs (pack appends and their read-back,
// the manifest line and its read-back, index and journal appends, mirror
// replication, the done line), then re-run the same transaction once per
// operation and fault kind with the fault injected exactly there: the
// process dies before it, dies after it, tears it, flips a bit in it, or
// sees it fail once with EIO. Reopening the directories afterwards must
// always yield a valid store in which the transaction is either fully
// visible or fully absent, every byte served bit-identical — the
// all-or-nothing claim, proven at every point a process can die or a
// write can go wrong.

var (
	killBasePayload = []byte(`{"base":"committed before the drill"}`)
	killPayloadA    = []byte(strings.Repeat(`{"job":"a"}`, 30))
	killArtifactB   = []byte(strings.Repeat("telemetry-ring-bytes-", 40))
	killCheckpointC = []byte(strings.Repeat(`{"machine":"state"}`, 60))
	killLineB       = []byte(`{"fp":"job-b","status":"ok"}`)
)

// faultKinds are the faults the kill-point sweeps inject at every
// operation: the three deaths, and the two a process lives through.
var faultKinds = []testsupport.StoreFaultKind{
	testsupport.StoreCrash, testsupport.StoreCrashAfter, testsupport.StoreTruncate,
	testsupport.StoreBitFlip, testsupport.StoreEIO,
}

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
	rec := testsupport.NewStoreRecorder()
	s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: rec})
	if err := killDrillCommit(t, s); err != nil {
		t.Fatalf("clean drill commit: %v", err)
	}
	trace := rec.Trace()
	if len(trace) < 15 {
		t.Fatalf("suspiciously short op trace (%d ops): %v", len(trace), trace)
	}

	// Pass 2: one subtest per operation and fault kind.
	for i := range trace {
		opName := strings.Fields(trace[i])[0]
		for _, kind := range faultKinds {
			t.Run(fmt.Sprintf("op%02d-%s-%s", i, opName, kind), func(t *testing.T) {
				runKillPoint(t, i, kind)
			})
		}
	}
}

// recoveredClean asserts that a reopened store audits clean. A fault the
// process lived through may have flipped a bit in a line the protocol
// does not read back, on one side: Repair restores an index or journal
// line the other side holds, and a journal line flipped into another
// valid line leaves two sides that disagree, which the audit reports
// rather than hides.
func recoveredClean(t *testing.T, s *Store, killed bool) {
	t.Helper()
	rep := s.Verify()
	if !killed && len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
		s.Repair()
		rep = s.Verify()
		rep.Damaged = slices.DeleteFunc(rep.Damaged, func(d string) bool { return strings.Contains(d, "journal.jsonl: lacks 1 lines") })
	}
	if len(rep.Damaged) != 0 || len(rep.Unrecoverable) != 0 {
		t.Fatalf("verify after recovery: %+v", rep)
	}
}

// servedOnlyIndexed Gets every object an index line on either side's
// disk has ever named and fails if one is served whose SHA-256 is not
// the one a live index line records for it.
func servedOnlyIndexed(t *testing.T, s *Store) {
	t.Helper()
	for _, sd := range s.sides {
		b, _ := os.ReadFile(filepath.Join(sd.dir, indexFile))
		for _, ln := range strings.Split(string(b), "\n") {
			var e indexEntry
			if json.Unmarshal([]byte(ln), &e) != nil || e.Kind == "" {
				continue
			}
			k := objKey{Kind(e.Kind), e.Key}
			got, err := s.Get(k.kind, k.key)
			if errors.Is(err, ErrNotFound) {
				continue
			}
			if err != nil {
				t.Fatalf("get %s-%s: %v", k.kind, k.key, err)
			}
			p, m := s.sides[0].index[k], s.sides[len(s.sides)-1].index[k]
			if sumHex(got) != p.SHA && sumHex(got) != m.SHA {
				t.Fatalf("%s-%s served with SHA-256 %s; the live index lines say %q and %q", k.kind, k.key, sumHex(got), p.SHA, m.SHA)
			}
		}
	}
}

func runKillPoint(t *testing.T, point int, kind testsupport.StoreFaultKind) {
	p, m := t.TempDir(), t.TempDir()
	killDrillBase(t, p, m)
	hook := (&testsupport.StoreSpec{Op: testsupport.StoreOpAny, N: point, Kind: kind}).StoreHook()
	s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: hook})
	killed := false
	var commitErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*testsupport.StoreKill); !ok {
					panic(r)
				}
				killed = true
			}
		}()
		commitErr = killDrillCommit(t, s)
	}()
	if !hook.Fired() {
		t.Fatal("the fault did not fire")
	}
	if !killed {
		// The process lived: it shuts down cleanly.
		s.Close()
	}

	// Reboot: abandon the instance, reopen and recover.
	s2 := mustOpen(t, Options{Dir: p, Mirror: m})

	// Prior committed state is untouched.
	if b, err := s2.Get(KindResult, "base"); err != nil || !bytes.Equal(b, killBasePayload) {
		t.Fatalf("pre-existing object damaged by a fault at point %d: %v", point, err)
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
	// A Commit that returned says what happened: nil is all, an error none.
	if !killed && committed != (commitErr == nil) {
		t.Fatalf("Commit returned %v but the transaction committed=%v", commitErr, committed)
	}

	// The recovered store audits clean: nothing damaged, nothing torn.
	recoveredClean(t, s2, killed)

	// Nothing is served unverified: whatever a Get returns, for any
	// object an index line on either side ever named, hashes to the
	// checksum a live index line records for it.
	servedOnlyIndexed(t, s2)

	// Recovery is idempotent: a second reopen changes nothing.
	s3 := mustOpen(t, Options{Dir: p, Mirror: m})
	aGot2, aErr2 := s3.Get(KindResult, "job-a")
	if (aErr2 == nil) != committed || (committed && !bytes.Equal(aGot2, killPayloadA)) {
		t.Fatalf("second recovery changed visibility: committed=%v err=%v", committed, aErr2)
	}
}
