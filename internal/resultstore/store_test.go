package resultstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func mustCommit(t *testing.T, tx *Tx) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func mustOpen(t *testing.T, o Options) *Store {
	t.Helper()
	s, err := Open(o)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	payload := []byte(`{"version":1,"fingerprint":"x","result":{}}`)
	tx := s.Begin()
	tx.Put(KindResult, "abc123", payload)
	mustCommit(t, tx)

	if _, err := os.Stat(filepath.Join(dir, "vtsim-abc123.json")); err != nil {
		t.Fatalf("object file not at its kind-key name: %v", err)
	}
	got, err := s.Get(KindResult, "abc123")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q", got)
	}
	// Reopen: index replays, object still verified.
	s2 := mustOpen(t, Options{Dir: dir})
	got, err = s2.Get(KindResult, "abc123")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get after reopen: %v %q", err, got)
	}
	c := s2.Counters()
	if c.Hits != 1 {
		t.Fatalf("want 1 verified hit, got %+v", c)
	}
	// No WAL or staging debris after a clean commit.
	for _, sub := range []string{"wal", "staging"} {
		left, _ := filepath.Glob(filepath.Join(dir, vtstoreDir, sub, "*"))
		if len(left) != 0 {
			t.Fatalf("%s not empty after commit: %v", sub, left)
		}
	}
}

// TestLegacyCompatRead is the compat read inverted: a cache directory
// written by a pre-store build — object files, no index — is not
// served. An unindexed file is unverifiable, therefore corrupt: alone it
// is quarantined and reported missing, so the caller recomputes and the
// rewrite indexes it; beside an indexed, checksum-matching copy on the
// other side it is healed from that copy, whatever its own bytes say.
func TestLegacyCompatRead(t *testing.T) {
	payload := []byte(`{"version":1,"fingerprint":"y","result":{}}`)
	t.Run("no mirror: quarantined and recomputed", func(t *testing.T) {
		dir := t.TempDir()
		obj := filepath.Join(dir, "vtsim-deadbeef.json")
		if err := os.WriteFile(obj, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, Options{Dir: dir})
		if got, err := s.Get(KindResult, "deadbeef"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("unindexed file served: %v %q", err, got)
		}
		if _, err := os.Stat(obj + ".corrupt"); err != nil {
			t.Fatalf("unindexed file not quarantined: %v", err)
		}
		if c := s.Counters(); c.Hits != 0 || c.Misses != 1 || c.Quarantines != 1 {
			t.Fatalf("want one miss and one quarantine, got %+v", c)
		}
		if inv := s.Inventory(); inv[2].Kind != "vtsim" || inv[2].Objects != 0 {
			t.Fatalf("inventory counts an unindexed file: %+v", inv)
		}
		// The caller's recomputation is an ordinary, indexed put.
		tx := s.Begin()
		tx.Put(KindResult, "deadbeef", payload)
		mustCommit(t, tx)
		if got, err := s.Get(KindResult, "deadbeef"); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("rewrite not served: %v %q", err, got)
		}
	})
	t.Run("mirror: healed, bytes equal", func(t *testing.T) {
		p, m := t.TempDir(), t.TempDir()
		s := mustOpen(t, Options{Dir: p, Mirror: m})
		tx := s.Begin()
		tx.Put(KindResult, "deadbeef", payload)
		mustCommit(t, tx)
		s.Close()
		// The primary loses its index and keeps a file nobody vouches
		// for — with different bytes, so serving it would show.
		if err := os.Remove(filepath.Join(p, indexFile)); err != nil {
			t.Fatal(err)
		}
		obj := filepath.Join(p, "vtsim-deadbeef.json")
		if err := os.WriteFile(obj, []byte(`{"version":1,"fingerprint":"y","result":{"cycles":1}}`), 0o644); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, Options{Dir: p, Mirror: m})
		got, err := s.Get(KindResult, "deadbeef")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read beside a healthy mirror: %v %q", err, got)
		}
		if c := s.Counters(); c.Hits != 1 || c.Repairs != 1 {
			t.Fatalf("want one hit and one repair, got %+v", c)
		}
		if healed, err := os.ReadFile(obj); err != nil || !bytes.Equal(healed, payload) {
			t.Fatalf("primary not healed bit-identically: %v %q", err, healed)
		}
		if rep := s.Verify(); rep.Healthy != 1 || len(rep.Damaged) != 0 {
			t.Fatalf("verify after heal: %+v", rep)
		}
	})
}

func TestAtRestCorruptionRepairsFromMirror(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	s := mustOpen(t, Options{Dir: p, Mirror: m})
	payload := []byte(strings.Repeat("result-bytes ", 100))
	tx := s.Begin()
	tx.Put(KindResult, "k1", payload)
	mustCommit(t, tx)

	objP := filepath.Join(p, "vtsim-k1.json")
	objM := filepath.Join(m, "vtsim-k1.json")
	if pb, _ := os.ReadFile(objP); !bytes.Equal(pb, payload) {
		t.Fatal("primary object wrong before corruption")
	}
	if mb, _ := os.ReadFile(objM); !bytes.Equal(mb, payload) {
		t.Fatal("mirror copy missing or wrong")
	}
	// Flip a bit at rest on the primary.
	corrupted := append([]byte(nil), payload...)
	corrupted[17] ^= 0x40
	if err := os.WriteFile(objP, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(KindResult, "k1")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get should heal and serve clean bytes: %v", err)
	}
	// Repair must be bit-identical.
	pb, _ := os.ReadFile(objP)
	if !bytes.Equal(pb, payload) {
		t.Fatal("primary not repaired bit-identically")
	}
	c := s.Counters()
	if c.Repairs != 1 || c.FailoverReads != 1 {
		t.Fatalf("want 1 repair + 1 failover read, got %+v", c)
	}
	// Audit log recorded the repair.
	audit, _ := os.ReadFile(filepath.Join(p, auditFile))
	if !strings.Contains(string(audit), `"op":"repair"`) {
		t.Fatalf("audit log missing repair event: %s", audit)
	}
}

func TestCorruptionWithoutMirrorQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	tx := s.Begin()
	tx.Put(KindResult, "k2", []byte("payload-without-replica"))
	mustCommit(t, tx)
	obj := filepath.Join(dir, "vtsim-k2.json")
	if err := os.WriteFile(obj, []byte("payload-without-rePlica"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(KindResult, "k2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after quarantine, got %v", err)
	}
	if _, err := os.Stat(obj + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	if _, err := os.Stat(obj); !os.IsNotExist(err) {
		t.Fatal("corrupt object still in place")
	}
	// The drop line must survive reopen: no resurrected index entry.
	s2 := mustOpen(t, Options{Dir: dir})
	if _, err := s2.Get(KindResult, "k2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("quarantined object resurrected after reopen: %v", err)
	}
	if rep := s2.Verify(); len(rep.Unrecoverable) != 0 || len(rep.Damaged) != 0 {
		t.Fatalf("verify not clean after quarantine: %+v", rep)
	}
}

func TestAppendReplication(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	s := mustOpen(t, Options{Dir: p, Mirror: m})
	for i := 0; i < 3; i++ {
		tx := s.Begin()
		tx.Append("journal.jsonl", []byte(fmt.Sprintf(`{"fp":"f%d","status":"ok"}`, i)))
		mustCommit(t, tx)
	}
	pb, _ := os.ReadFile(filepath.Join(p, "journal.jsonl"))
	mb, _ := os.ReadFile(filepath.Join(m, "journal.jsonl"))
	if len(pb) == 0 || !bytes.Equal(pb, mb) {
		t.Fatalf("journal not replicated identically:\nprimary %q\nmirror  %q", pb, mb)
	}
	if n := strings.Count(string(pb), "\n"); n != 3 {
		t.Fatalf("want 3 journal lines, got %d", n)
	}
}

func TestBlobSegmentsRoundTrip(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	s := mustOpen(t, Options{Dir: p, Mirror: m, SegmentSize: 64})
	blob := []byte(strings.Repeat("0123456789abcdef", 20)) // 320 B -> 5 segments
	tx := s.Begin()
	if err := tx.PutBlob(KindArtifact, "trace1", bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	segs, _ := filepath.Glob(filepath.Join(p, "vtart-trace1.json.seg*"))
	if len(segs) != 5 {
		t.Fatalf("want 5 segments, got %v", segs)
	}
	got, err := s.GetBlob(KindArtifact, "trace1")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("blob round trip: %v (%d bytes)", err, len(got))
	}
	// Corrupt one segment on the primary: streaming read must heal it
	// from the mirror and still return clean bytes.
	if err := os.WriteFile(segs[2], []byte("garbage segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = s.GetBlob(KindArtifact, "trace1")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("blob read after segment corruption: %v", err)
	}
	sb, _ := os.ReadFile(segs[2])
	if !bytes.Equal(sb, blob[2*64:3*64]) {
		t.Fatal("segment not repaired bit-identically")
	}
}

func TestFailoverReinstateFlipRoundTrip(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	s := mustOpen(t, Options{Dir: p, Mirror: m})
	tx := s.Begin()
	tx.Put(KindResult, "before", []byte("committed-before-outage"))
	tx.Append("journal.jsonl", []byte(`{"fp":"before","status":"ok"}`))
	mustCommit(t, tx)

	if err := s.Failover(); err != nil {
		t.Fatal(err)
	}
	// During the outage, commits land on the mirror only.
	tx = s.Begin()
	tx.Put(KindResult, "during", []byte("committed-during-outage"))
	tx.Append("journal.jsonl", []byte(`{"fp":"during","status":"ok"}`))
	mustCommit(t, tx)
	if _, err := os.Stat(filepath.Join(p, "vtsim-during.json")); !os.IsNotExist(err) {
		t.Fatal("failed primary received a write during outage")
	}
	if got, err := s.Get(KindResult, "during"); err != nil || string(got) != "committed-during-outage" {
		t.Fatalf("read during outage: %v", err)
	}

	if err := s.Reinstate(); err != nil {
		t.Fatal(err)
	}
	// Reinstate must have back-filled the primary: object and journal.
	if b, err := os.ReadFile(filepath.Join(p, "vtsim-during.json")); err != nil || string(b) != "committed-during-outage" {
		t.Fatalf("primary not repair-synced on reinstate: %v", err)
	}
	pj, _ := os.ReadFile(filepath.Join(p, "journal.jsonl"))
	mj, _ := os.ReadFile(filepath.Join(m, "journal.jsonl"))
	if !bytes.Equal(pj, mj) || !strings.Contains(string(pj), `"fp":"during"`) {
		t.Fatalf("journal not synced on reinstate:\nprimary %q\nmirror  %q", pj, mj)
	}

	if err := s.Flip(); err != nil {
		t.Fatal(err)
	}
	if sides := s.Sides(); sides[0].Dir != m || sides[0].Role != "primary" {
		t.Fatalf("flip did not swap roles: %+v", sides)
	}
	// Every committed object must survive the full round trip.
	for _, key := range []string{"before", "during"} {
		if _, err := s.Get(KindResult, key); err != nil {
			t.Fatalf("object %s lost after failover/reinstate/flip: %v", key, err)
		}
	}
	if rep := s.Verify(); rep.Healthy != rep.Checked || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
		t.Fatalf("verify not clean after round trip: %+v", rep)
	}
}

func TestTransientEIORetries(t *testing.T) {
	dir := t.TempDir()
	// Fail the first write with a transient error: Commit itself absorbs
	// nothing pre-commit-point, so the transaction must roll back, report
	// a retryable error, and succeed when retried.
	hook := (&faultinject.StoreSpec{Op: faultinject.StoreOpWrite, N: 0, Kind: faultinject.StoreEIO}).StoreHook()
	s := mustOpen(t, Options{Dir: dir, Fault: hook})
	tx := s.Begin()
	tx.Put(KindResult, "eio", []byte("eventually-durable"))
	err := tx.Commit()
	if err == nil {
		t.Fatal("want first commit to fail with injected EIO")
	}
	if !IsTransient(err) {
		t.Fatalf("injected EIO should classify as transient: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("retried commit: %v", err)
	}
	if got, err := s.Get(KindResult, "eio"); err != nil || string(got) != "eventually-durable" {
		t.Fatalf("object absent after retried commit: %v", err)
	}
}

func TestWritePathBitFlipHealedByVerifiedWrite(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	// Flip a bit in the very first staged payload write. The read-back
	// verification inside the commit protocol must catch and rewrite it,
	// so the commit succeeds with clean bytes on both sides.
	hook := (&faultinject.StoreSpec{Op: faultinject.StoreOpWrite, N: 0, Kind: faultinject.StoreBitFlip}).StoreHook()
	s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: hook})
	payload := []byte("bytes that must land intact on disk")
	tx := s.Begin()
	tx.Put(KindResult, "flip", payload)
	mustCommit(t, tx)
	if !hook.Fired() {
		t.Fatal("bit-flip fault never fired")
	}
	for _, d := range []string{p, m} {
		b, err := os.ReadFile(filepath.Join(d, "vtsim-flip.json"))
		if err != nil || !bytes.Equal(b, payload) {
			t.Fatalf("flipped write not healed in %s: %v %q", d, err, b)
		}
	}
}

func TestReplicateBitFlipHealed(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	// Find the write op that lands the mirror's replica copy, then rerun
	// with a bit-flip injected exactly there.
	rec := faultinject.NewStoreRecorder()
	s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: rec})
	tx := s.Begin()
	tx.Put(KindResult, "rk", []byte("replicated payload"))
	mustCommit(t, tx)
	mirrorWrite := -1
	writes := 0
	for _, line := range rec.Trace() {
		if !strings.HasPrefix(line, "write ") {
			continue
		}
		if mirrorWrite < 0 && strings.HasPrefix(strings.TrimPrefix(line, "write "), m) {
			mirrorWrite = writes
		}
		writes++
	}
	if mirrorWrite < 0 {
		t.Fatalf("no mirror write in trace: %v", rec.Trace())
	}

	p2, m2 := t.TempDir(), t.TempDir()
	hook := (&faultinject.StoreSpec{Op: faultinject.StoreOpWrite, N: mirrorWrite, Kind: faultinject.StoreBitFlip}).StoreHook()
	s2 := mustOpen(t, Options{Dir: p2, Mirror: m2, Fault: hook})
	tx = s2.Begin()
	tx.Put(KindResult, "rk", []byte("replicated payload"))
	mustCommit(t, tx)
	if !hook.Fired() {
		t.Fatal("mirror bit-flip fault never fired")
	}
	mb, err := os.ReadFile(filepath.Join(m2, "vtsim-rk.json"))
	if err != nil || string(mb) != "replicated payload" {
		t.Fatalf("mirror copy not healed: %v %q", err, mb)
	}
	if rep := s2.Verify(); rep.Healthy != rep.Checked {
		t.Fatalf("verify after healed replicate: %+v", rep)
	}
}

func TestTornAppendDoesNotSwallowNextLine(t *testing.T) {
	// A crashed writer can leave a torn, newline-less tail. The next
	// append must not concatenate onto it: the healing newline isolates
	// the damage to the torn line itself.
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(path, []byte("{\"fp\":\"complete\",\"status\":\"ok\"}\n{\"fp\":\"torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ss syncSet
	a := fsio{}.appender(&ss, path)
	if err := errors.Join(a.write([]byte(`{"fp":"next","status":"ok"}`)), ss.flush()); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines (good, torn, good), got %d: %q", len(lines), b)
	}
	if lines[2] != `{"fp":"next","status":"ok"}` {
		t.Fatalf("appended line damaged: %q", lines[2])
	}
}

func TestCommitPhaseTimings(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Mirror: t.TempDir()})
	tx := s.Begin()
	if tx.Phases() != nil {
		t.Fatalf("phases before commit: %v", tx.Phases())
	}
	tx.Put(KindResult, "abc", []byte(`{"x":1}`))
	tx.Append("journal.jsonl", []byte(`{"line":1}`))
	mustCommit(t, tx)

	ph := tx.Phases()
	var names []string
	for _, p := range ph {
		names = append(names, p.Name)
		if p.Start.IsZero() || p.Dur < 0 {
			t.Fatalf("phase %s has bogus timing: %+v", p.Name, p)
		}
	}
	want := []string{"stage", "commit", "apply", "replicate"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("phases = %v, want %v", names, want)
	}
	// Phases tile: each starts where the previous ended (same captured
	// instant), so summed durations cover the whole protocol. Allow a
	// microsecond of wall-vs-monotonic rounding.
	for i := 1; i < len(ph); i++ {
		gap := ph[i].Start.Sub(ph[i-1].Start.Add(ph[i-1].Dur))
		if gap < -time.Microsecond || gap > time.Microsecond {
			t.Fatalf("phase %s start gap %v from previous end", ph[i].Name, gap)
		}
	}

	// A second commit on the same Tx (retry semantics) replaces the
	// timings instead of appending.
	mustCommit(t, tx)
	if n := len(tx.Phases()); n != 4 {
		t.Fatalf("phases after recommit = %d, want 4", n)
	}

	// Without a mirror there is no replicate phase.
	s2 := mustOpen(t, Options{Dir: t.TempDir()})
	tx2 := s2.Begin()
	tx2.Put(KindResult, "solo", []byte(`{}`))
	mustCommit(t, tx2)
	names = names[:0]
	for _, p := range tx2.Phases() {
		names = append(names, p.Name)
	}
	if strings.Join(names, ",") != "stage,commit,apply" {
		t.Fatalf("unmirrored phases = %v", names)
	}
}
