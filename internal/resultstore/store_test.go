package resultstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// counts returns a snapshot of the operation counters, lock-free misses
// included: what the tests observe the store through.
func (s *Store) counts() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counters
	n := s.lockFreeMisses.Load()
	c.Gets += n
	c.Misses += n
	return c
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
	c := s2.counts()
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
		if c := s.counts(); c.Hits != 0 || c.Misses != 1 || c.Quarantines != 1 {
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
		if c := s.counts(); c.Hits != 1 || c.Repairs != 1 {
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
	for _, tc := range []struct {
		name    string
		kind    Kind
		payload []byte
	}{
		{"result", KindResult, []byte(strings.Repeat("result-bytes ", 100))},
		// An artifact is an object like any other, however large: one file,
		// one checksum, healed whole.
		{"artifact over 1 MiB", KindArtifact, []byte(strings.Repeat("sweep-trace-span ", 70000))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, m := t.TempDir(), t.TempDir()
			s := mustOpen(t, Options{Dir: p, Mirror: m})
			payload := tc.payload
			tx := s.Begin()
			tx.Put(tc.kind, "k1", payload)
			mustCommit(t, tx)

			objP := filepath.Join(p, string(tc.kind)+"-k1.json")
			objM := filepath.Join(m, string(tc.kind)+"-k1.json")
			if pb, _ := os.ReadFile(objP); !bytes.Equal(pb, payload) {
				t.Fatal("primary object wrong before corruption")
			}
			if mb, _ := os.ReadFile(objM); !bytes.Equal(mb, payload) {
				t.Fatal("mirror copy missing or wrong")
			}
			if got, err := s.Get(tc.kind, "k1"); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("round trip: %v (%d bytes)", err, len(got))
			}
			// Flip a bit at rest, mid-file, on the primary.
			corrupted := append([]byte(nil), payload...)
			corrupted[len(corrupted)/2] ^= 0x40
			if err := os.WriteFile(objP, corrupted, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(tc.kind, "k1")
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("get should heal and serve clean bytes: %v", err)
			}
			// Repair must be bit-identical.
			pb, _ := os.ReadFile(objP)
			if !bytes.Equal(pb, payload) {
				t.Fatal("primary not repaired bit-identically")
			}
			c := s.counts()
			if c.Repairs != 1 || c.FailoverReads != 1 {
				t.Fatalf("want 1 repair + 1 failover read, got %+v", c)
			}
			// Audit log recorded the repair.
			audit, _ := os.ReadFile(filepath.Join(p, auditFile))
			if !strings.Contains(string(audit), `"op":"repair"`) {
				t.Fatalf("audit log missing repair event: %s", audit)
			}
			if segs, _ := filepath.Glob(filepath.Join(p, "*.seg*")); len(segs) != 0 {
				t.Fatalf("object stored as more than one file: %v", segs)
			}
		})
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

// TestRepairRebuildsLostSide is the whole-side-loss drill: a mirrored
// store loses one directory outright; Verify names what is gone, journal
// included, and Repair rebuilds the side from the survivor — every
// object bit-identical and the journal byte-equal, so a sweep can resume
// from either directory.
func TestRepairRebuildsLostSide(t *testing.T) {
	for _, lost := range []string{"primary", "mirror"} {
		t.Run(lost+" lost", func(t *testing.T) {
			p, m := filepath.Join(t.TempDir(), "p"), filepath.Join(t.TempDir(), "m")
			s := mustOpen(t, Options{Dir: p, Mirror: m})
			header := s.Begin()
			header.Append("journal.jsonl", []byte(`{"meta":{"version":1}}`))
			mustCommit(t, header)
			keys := []string{"a", "b", "c"}
			for _, k := range keys {
				mustCommit(t, jobTx(s, k))
			}
			art := s.Begin()
			art.Put(KindArtifact, "sweeptrace", []byte(`{"schema_version":1}`))
			mustCommit(t, art)
			s.Close()

			gone, kept := p, m
			if lost == "mirror" {
				gone, kept = m, p
			}
			if err := os.RemoveAll(gone); err != nil {
				t.Fatal(err)
			}
			s = mustOpen(t, Options{Dir: p, Mirror: m})
			rep := s.Verify()
			if want := lost + " journal.jsonl: lacks 4 lines the"; !slices.ContainsFunc(rep.Damaged, func(d string) bool { return strings.HasPrefix(d, want) }) {
				t.Fatalf("verify does not report the lost journal (%q...): %+v", want, rep)
			}
			if len(rep.Damaged) != len(keys)+2 || rep.Healthy != 0 {
				t.Fatalf("verify of a lost side: %+v", rep)
			}
			if _, err := os.Stat(filepath.Join(gone, "journal.jsonl")); !os.IsNotExist(err) {
				t.Fatalf("verify modified the store: %v", err)
			}

			rep = s.Repair()
			if rep.Repaired != len(keys)+1 || len(rep.Backfilled) != 1 || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
				t.Fatalf("repair: %+v", rep)
			}
			names, _ := filepath.Glob(filepath.Join(kept, "*.json*"))
			compared := 0
			for _, name := range names {
				base := filepath.Base(name)
				if base == indexFile || base == auditFile {
					continue
				}
				want, _ := os.ReadFile(name)
				if got, err := os.ReadFile(filepath.Join(gone, base)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s not rebuilt byte-equal: %v\n got %q\nwant %q", base, err, got, want)
				}
				compared++
			}
			if compared != len(keys)+2 { // results, artifact, journal
				t.Fatalf("survivor holds %v", names)
			}
			if rep := s.Verify(); rep.Healthy != len(keys)+1 || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
				t.Fatalf("verify after repair: %+v", rep)
			}
			// The rebuilt side stands on its own.
			s.Close()
			alone := mustOpen(t, Options{Dir: gone})
			for _, k := range keys {
				if _, err := alone.Get(KindResult, k); err != nil {
					t.Fatalf("rebuilt side alone does not serve %s: %v", k, err)
				}
			}
		})
	}
}

// TestBackfillOnlyAppends: the journal back-fill is one-directional and
// append-only. A side whose lines are a subset of the other's is brought
// up by appending; lines a crash tore or a roll-forward replayed are not
// differences; and when each side holds a line the other lacks, both are
// reported and neither file is touched.
func TestBackfillOnlyAppends(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	write := func(dir, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	read := func(dir string) string {
		b, _ := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
		return string(b)
	}
	const l1, l2, l3 = `{"fp":"1"}` + "\n", `{"fp":"2"}` + "\n", `{"fp":"3"}` + "\n"
	s := mustOpen(t, Options{Dir: p, Mirror: m})

	// Replayed and torn lines on one side: nothing to report, nothing to do.
	write(p, l1+`{"fp":"2`+"\n"+l2+l2)
	write(m, l1+l2)
	if rep := s.Repair(); len(rep.Backfilled) != 0 || len(rep.Damaged) != 0 {
		t.Fatalf("replayed and torn lines counted as differences: %+v", rep)
	}

	// The mirror is stale: it gains the line it lacks, at its end.
	write(p, l1+l2+l3)
	write(m, l1+l2)
	if rep := s.Verify(); len(rep.Damaged) != 1 || !strings.HasPrefix(rep.Damaged[0], "mirror journal.jsonl: lacks 1 lines") {
		t.Fatalf("verify of a stale mirror: %+v", rep)
	}
	if rep := s.Repair(); len(rep.Backfilled) != 1 || len(rep.Damaged) != 0 || read(m) != l1+l2+l3 || read(p) != l1+l2+l3 {
		t.Fatalf("stale mirror not brought up: %+v\nmirror %q", rep, read(m))
	}

	// Each side holds a line the other lacks: reported, left alone.
	write(p, l1+l2)
	write(m, l1+l3)
	if rep := s.Repair(); len(rep.Backfilled) != 0 || len(rep.Damaged) != 2 || read(p) != l1+l2 || read(m) != l1+l3 {
		t.Fatalf("diverged journals were touched: %+v\nprimary %q\nmirror %q", rep, read(p), read(m))
	}
}

// TestOlderBuildSegmentedRecordsSkipped: a store directory last written
// by a build that split artifacts into value segments still opens. Its
// segmented index line names nothing servable, a commit record it left
// behind rolls forward without its segmented put, and both are noted in
// the audit log; the plain put in the same record lands.
func TestOlderBuildSegmentedRecordsSkipped(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, Options{Dir: dir}).Close() // lay out .vtstore
	staging, wal := filepath.Join(dir, vtstoreDir, "staging"), filepath.Join(dir, vtstoreDir, "wal")
	plain := []byte(`{"result":"from the older build"}`)
	head := []byte(`{"resultstore_blob":1,"size":3,"segments":[{"sha256":"` + sumHex([]byte("abc")) + `","size":3}]}`)
	files := map[string][]byte{
		filepath.Join(staging, "tx-9-1-0.0"):      plain,
		filepath.Join(staging, "tx-9-1-1.0"):      head,
		filepath.Join(staging, "tx-9-1-1.1"):      []byte("abc"),
		filepath.Join(dir, "vtart-old.json"):      head,
		filepath.Join(dir, "vtart-old.json.seg0"): []byte("abc"),
		filepath.Join(dir, indexFile):             []byte(`{"kind":"vtart","key":"old","sha256":"` + sumHex(head) + `","size":3,"segs":1,"tx":"tx-9-0"}` + "\n"),
		filepath.Join(wal, "tx-9-1.commit"): []byte(`{"tx":"tx-9-1","ops":[` +
			`{"type":"put","kind":"vtsim","key":"plain","sha256":"` + sumHex(plain) + `","size":33,"staged":["tx-9-1-0.0"]},` +
			`{"type":"put","kind":"vtart","key":"trace","sha256":"` + sumHex(head) + `","size":3,"segs":[{"sha256":"` + sumHex([]byte("abc")) + `","size":3}],"staged":["tx-9-1-1.0","tx-9-1-1.1"]}]}`),
	}
	for path, b := range files {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var skipped []string
	s := mustOpen(t, Options{Dir: dir, OnEvent: func(ev Event) {
		if ev.Op == "skip-segmented" {
			skipped = append(skipped, ev.Kind+"-"+ev.Key)
		}
	}})
	if got := strings.Join(skipped, ","); got != "vtart-trace,vtart-old" {
		t.Fatalf("skip-segmented events for %q, want the record's put then the index line", got)
	}
	if c := s.counts(); c.RecoveredCommits != 1 {
		t.Fatalf("commit record not rolled forward: %+v", c)
	}
	if got, err := s.Get(KindResult, "plain"); err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("plain put of the older build's record: %v %q", err, got)
	}
	for _, key := range []string{"old", "trace"} {
		if got, err := s.Get(KindArtifact, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("segmented object %s served: %v %q", key, err, got)
		}
	}
	if left := walDebris(dir); len(left) != 0 {
		t.Fatalf("debris after recovery: %v", left)
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
