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
	"sync"
	"testing"
	"time"

	"repro/internal/testsupport"
)

func mustCommit(t *testing.T, tx *Tx) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// mustOpen opens a store for a test. A test that names no Fault gets
// testsupport.PassThrough, which skips the fsync syscall: every crash
// these tests drive is simulated inside the process, where the page cache
// survives it.
func mustOpen(t *testing.T, o Options) *Store {
	t.Helper()
	if o.Fault == nil {
		o.Fault = testsupport.PassThrough()
	}
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

// liveIndex replays one side's store-index.jsonl the way the store
// does: the latest line per object wins, a drop line deletes, and a line
// without an offset names nothing.
func liveIndex(t *testing.T, dir string) map[objKey]indexEntry {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	live := map[objKey]indexEntry{}
	for _, ln := range strings.Split(string(b), "\n") {
		e := indexEntry{Off: -1}
		if json.Unmarshal([]byte(ln), &e) != nil {
			continue
		}
		if k := (objKey{Kind(e.Kind), e.Key}); e.Drop {
			delete(live, k)
		} else if e.Off >= 0 {
			live[k] = e
		}
	}
	return live
}

// packObject reads an object off one side's disk, without a store: the
// objects.pack range its live index line names (nil when none does).
func packObject(t *testing.T, dir string, kind Kind, key string) []byte {
	t.Helper()
	e, ok := liveIndex(t, dir)[objKey{kind, key}]
	if !ok {
		return nil
	}
	f, err := os.Open(filepath.Join(dir, packFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, e.Size)
	if _, err := f.ReadAt(b, e.Off); err != nil {
		t.Fatalf("%s-%s: range %d+%d: %v", kind, key, e.Off, e.Size, err)
	}
	return b
}

// flipAtRest flips one bit in the middle of an object's range in one
// side's pack: at-rest corruption.
func flipAtRest(t *testing.T, dir string, kind Kind, key string) {
	t.Helper()
	e, ok := liveIndex(t, dir)[objKey{kind, key}]
	if !ok {
		t.Fatalf("%s-%s is not indexed in %s", kind, key, dir)
	}
	f, err := os.OpenFile(filepath.Join(dir, packFile), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, e.Off+e.Size/2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, e.Off+e.Size/2); err != nil {
		t.Fatal(err)
	}
}

// pendingTxs lists the batches a primary's write-ahead log holds a
// manifest for and no done line: what the next Open rolls forward.
func pendingTxs(t *testing.T, dir string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, vtstoreDir, walFile))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var pending []string
	for _, ln := range strings.Split(string(b), "\n") {
		var r walRecord
		if json.Unmarshal([]byte(ln), &r) != nil {
			continue
		}
		if i := slices.Index(pending, r.Tx); r.Done && i >= 0 {
			pending = slices.Delete(pending, i, i+1)
		} else if !r.Done && sumHex(r.Ops) == r.Sum {
			pending = append(pending, r.Tx)
		}
	}
	return pending
}

// walSize is the size of a primary's write-ahead log (0 when absent).
func walSize(dir string) int64 {
	fi, err := os.Stat(filepath.Join(dir, vtstoreDir, walFile))
	if err != nil {
		return 0
	}
	return fi.Size()
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	payload := []byte(`{"version":1,"fingerprint":"x","result":{}}`)
	tx := s.Begin()
	tx.Put(KindResult, "abc123", payload)
	mustCommit(t, tx)

	if b := packObject(t, dir, KindResult, "abc123"); !bytes.Equal(b, payload) {
		t.Fatalf("pack range named by the index line holds %q", b)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "vt*")); len(files) != 0 {
		t.Fatalf("an object became a file of its own: %v", files)
	}
	got, err := s.Get(KindResult, "abc123")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q", got)
	}
	// Every logged batch is done, and a clean Close empties the log.
	if left := pendingTxs(t, dir); len(left) != 0 || walSize(dir) == 0 {
		t.Fatalf("log after a clean commit: %d bytes, pending %v", walSize(dir), left)
	}
	s.Close()
	if n := walSize(dir); n != 0 {
		t.Fatalf("log holds %d bytes after a clean Close", n)
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
}

// TestLegacyCompatRead: a directory in an older build's layout — one
// file per object, index lines without an offset, a commit record under
// .vtstore/wal — is never served and never touched. A Get misses so the
// caller recomputes, and the rewrite is an ordinary object in the pack.
func TestLegacyCompatRead(t *testing.T) {
	payload := []byte(`{"version":1,"fingerprint":"y","result":{}}`)
	older := map[string]string{
		"vtsim-deadbeef.json": string(payload),
		indexFile:             `{"kind":"vtsim","key":"deadbeef","sha256":"` + sumHex(payload) + `","size":44,"tx":"tx-9-1"}` + "\n",
		filepath.Join(vtstoreDir, "wal", "tx-9-2.commit"): `{"tx":"tx-9-2","ops":[{"type":"put","kind":"vtsim","key":"deadbeef","staged":["tx-9-2-0.0"]}]}`,
	}
	for _, mirrored := range []bool{false, true} {
		name := "no mirror: not served, left untouched"
		if mirrored {
			name = "mirror: not served on either side, left untouched"
		}
		t.Run(name, func(t *testing.T) {
			sides := []string{t.TempDir()}
			o := Options{Dir: sides[0]}
			if mirrored {
				o.Mirror = t.TempDir()
				sides = append(sides, o.Mirror)
			}
			for _, d := range sides {
				for rel, body := range older {
					os.MkdirAll(filepath.Dir(filepath.Join(d, rel)), 0o755)
					if err := os.WriteFile(filepath.Join(d, rel), []byte(body), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			s := mustOpen(t, o)
			if got, err := s.Get(KindResult, "deadbeef"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("older layout served: %v %q", err, got)
			}
			if c := s.counts(); c.Hits != 0 || c.Misses != 1 || c.Quarantines != 0 || c.RecoveredCommits != 0 {
				t.Fatalf("want one miss and nothing else, got %+v", c)
			}
			if rep := s.Verify(); rep.Checked != 0 || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
				t.Fatalf("verify counts the older layout: %+v", rep)
			}
			// The caller's recomputation is an ordinary put, served after a
			// reopen.
			tx := s.Begin()
			tx.Put(KindResult, "deadbeef", payload)
			mustCommit(t, tx)
			s.Close()
			s = mustOpen(t, Options{Dir: o.Dir, Mirror: o.Mirror})
			if got, err := s.Get(KindResult, "deadbeef"); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("rewrite not served: %v %q", err, got)
			}
			// The older files are as they were; the index only grew.
			for _, d := range sides {
				for rel, body := range older {
					if got, err := os.ReadFile(filepath.Join(d, rel)); err != nil || !strings.HasPrefix(string(got), body) {
						t.Fatalf("%s/%s was touched: %v %q", d, rel, err, got)
					}
				}
			}
		})
	}
}

func TestAtRestCorruptionRepairsFromMirror(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    Kind
		payload []byte
	}{
		{"result", KindResult, []byte(strings.Repeat("result-bytes ", 100))},
		// An artifact is an object like any other, however large: one
		// range, one checksum, healed whole.
		{"artifact over 1 MiB", KindArtifact, []byte(strings.Repeat("sweep-trace-span ", 70000))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, m := t.TempDir(), t.TempDir()
			s := mustOpen(t, Options{Dir: p, Mirror: m})
			payload := tc.payload
			tx := s.Begin()
			tx.Put(tc.kind, "k1", payload)
			mustCommit(t, tx)

			if !bytes.Equal(packObject(t, p, tc.kind, "k1"), payload) {
				t.Fatal("primary object wrong before corruption")
			}
			if !bytes.Equal(packObject(t, m, tc.kind, "k1"), payload) {
				t.Fatal("mirror copy missing or wrong")
			}
			if got, err := s.Get(tc.kind, "k1"); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("round trip: %v (%d bytes)", err, len(got))
			}
			// Flip a bit at rest, mid-range, on the primary.
			flipAtRest(t, p, tc.kind, "k1")
			got, err := s.Get(tc.kind, "k1")
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("get should heal and serve clean bytes: %v", err)
			}
			// Repair must be bit-identical: the healthy copy, appended and
			// re-indexed.
			if !bytes.Equal(packObject(t, p, tc.kind, "k1"), payload) {
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
			if files, _ := filepath.Glob(filepath.Join(p, "vt*")); len(files) != 0 {
				t.Fatalf("an object became a file of its own: %v", files)
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
	flipAtRest(t, dir, KindResult, "k2")
	packBefore, _ := os.ReadFile(filepath.Join(dir, packFile))
	if _, err := s.Get(KindResult, "k2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after quarantine, got %v", err)
	}
	// Quarantine is a drop line: the index no longer names the range,
	// whose bytes stay in the pack as they are.
	if _, live := liveIndex(t, dir)[objKey{KindResult, "k2"}]; live {
		t.Fatal("quarantined object still indexed")
	}
	if packAfter, _ := os.ReadFile(filepath.Join(dir, packFile)); !bytes.Equal(packAfter, packBefore) {
		t.Fatal("quarantine rewrote the pack")
	}
	if c := s.counts(); c.Quarantines != 1 {
		t.Fatalf("want one quarantine, got %+v", c)
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

// TestAdoptHeaderLine pins what adopting an append target's header costs
// and keeps, over a mirrored store, counted through the hook: a fresh
// store creates each side's file and pays its fsync and its directory's
// (four); a store whose files start with the header writes and fsyncs
// nothing; a foreign header and then a torn one are each rotated aside,
// the second rotation clobbering nothing; and every rotation is one
// audit event naming the file it made.
func TestAdoptHeaderLine(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	const rel = "journal.jsonl"
	hdrA, hdrB := []byte(`{"meta":{"scale":1}}`), []byte(`{"meta":{"scale":2}}`)
	entry := []byte(`{"fp":"f0","status":"ok"}`)
	read := func(dir string) string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	rotations := func() []Event {
		t.Helper()
		var evs []Event
		b, _ := os.ReadFile(filepath.Join(p, auditFile))
		for _, ln := range strings.Split(string(b), "\n") {
			var ev Event
			if json.Unmarshal([]byte(ln), &ev) == nil && ev.Op == "rotate" {
				evs = append(evs, ev)
			}
		}
		return evs
	}
	// adopt runs one Adopt in a store of its own and returns its hook.
	adopt := func(hdr []byte) *testsupport.StoreHook {
		t.Helper()
		h := testsupport.NewStoreRecorder()
		s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: h})
		defer s.Close()
		if err := s.Adopt(rel, hdr); err != nil {
			t.Fatal(err)
		}
		return h
	}
	// writes counts the hooked writes and renames under dir.
	writes := func(h *testsupport.StoreHook, dir string) (n int) {
		for _, op := range h.Trace() {
			if !strings.HasPrefix(op, "read ") && strings.Contains(op, dir+string(filepath.Separator)) {
				n++
			}
		}
		return n
	}

	// A fresh store: both files and both directories made durable.
	if h := adopt(hdrA); h.Syncs() != 4 || writes(h, p) != 1 || writes(h, m) != 1 {
		t.Fatalf("fresh store: %d fsyncs and trace %q, want 4 fsyncs and one write per side", h.Syncs(), h.Trace())
	}
	for _, dir := range []string{p, m} {
		if got := read(dir); got != string(hdrA)+"\n" {
			t.Fatalf("%s: fresh file holds %q", dir, got)
		}
	}

	// The header matches, entries follow: nothing written, nothing fsynced.
	s := mustOpen(t, Options{Dir: p, Mirror: m})
	tx := s.Begin()
	tx.Append(rel, entry)
	mustCommit(t, tx)
	s.Close()
	kept := read(p)
	if h := adopt(hdrA); h.Syncs() != 0 || writes(h, p)+writes(h, m) != 0 {
		t.Fatalf("matching header: %d fsyncs and trace %q, want no write and no fsync", h.Syncs(), h.Trace())
	}
	if read(p) != kept || read(m) != kept {
		t.Fatal("adopting a matching header changed a side")
	}

	// A foreign header: both sides rotated to .old, entries and all.
	if h := adopt(hdrB); h.Syncs() != 4 {
		t.Fatalf("foreign header: %d fsyncs, want 4", h.Syncs())
	}
	for _, dir := range []string{p, m} {
		if got, _ := os.ReadFile(filepath.Join(dir, rel+".old")); string(got) != kept {
			t.Fatalf("%s: the foreign journal was not rotated aside intact: %q", dir, got)
		}
		if got := read(dir); got != string(hdrB)+"\n" {
			t.Fatalf("%s: after rotation the file holds %q", dir, got)
		}
	}
	if evs := rotations(); len(evs) != 2 || evs[0].Detail != rel+".old" || evs[1].Detail != rel+".old" {
		t.Fatalf("foreign header: rotate events %+v, want one per side naming %s.old", evs, rel)
	}

	// A torn header on the primary (a crash inside its write): rotated to
	// .old.1, leaving .old and the matching mirror alone.
	torn := string(hdrB[:len(hdrB)/2])
	if err := os.WriteFile(filepath.Join(p, rel), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	if h := adopt(hdrB); h.Syncs() != 2 || writes(h, m) != 0 {
		t.Fatalf("torn primary header: %d fsyncs and trace %q, want 2 and no write to the mirror", h.Syncs(), h.Trace())
	}
	if got, _ := os.ReadFile(filepath.Join(p, rel+".old.1")); string(got) != torn {
		t.Fatalf("the torn header was not rotated to .old.1: %q", got)
	}
	if got, _ := os.ReadFile(filepath.Join(p, rel+".old")); string(got) != kept {
		t.Fatalf("the second rotation clobbered .old: %q", got)
	}
	if read(p) != string(hdrB)+"\n" || read(m) != string(hdrB)+"\n" {
		t.Fatal("after the torn header's rotation the sides do not start with the header alone")
	}
	if evs := rotations(); len(evs) != 3 || evs[2].Side != "primary" || evs[2].Detail != rel+".old.1" {
		t.Fatalf("torn header: rotate events %+v, want one more, the primary's, naming %s.old.1", evs, rel)
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
			survivor := liveIndex(t, kept)
			if len(survivor) != len(keys)+1 || len(liveIndex(t, gone)) != len(survivor) {
				t.Fatalf("survivor indexes %d objects, the rebuilt side %d", len(survivor), len(liveIndex(t, gone)))
			}
			for k := range survivor {
				if want, got := packObject(t, kept, k.kind, k.key), packObject(t, gone, k.kind, k.key); !bytes.Equal(got, want) {
					t.Fatalf("%s-%s not rebuilt byte-equal:\n got %q\nwant %q", k.kind, k.key, got, want)
				}
			}
			want, _ := os.ReadFile(filepath.Join(kept, "journal.jsonl"))
			if got, err := os.ReadFile(filepath.Join(gone, "journal.jsonl")); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("journal not rebuilt byte-equal: %v\n got %q\nwant %q", err, got, want)
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

func TestTransientEIORetries(t *testing.T) {
	dir := t.TempDir()
	// Fail the first write with a transient error: Commit itself absorbs
	// nothing pre-commit-point, so the transaction must roll back, report
	// a retryable error, and succeed when retried.
	hook := (&testsupport.StoreSpec{Op: testsupport.StoreOpWrite, N: 0, Kind: testsupport.StoreEIO}).StoreHook()
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
	hook := (&testsupport.StoreSpec{Op: testsupport.StoreOpWrite, N: 0, Kind: testsupport.StoreBitFlip}).StoreHook()
	s := mustOpen(t, Options{Dir: p, Mirror: m, Fault: hook})
	payload := []byte("bytes that must land intact on disk")
	tx := s.Begin()
	tx.Put(KindResult, "flip", payload)
	mustCommit(t, tx)
	if !hook.Fired() {
		t.Fatal("bit-flip fault never fired")
	}
	for _, d := range []string{p, m} {
		if b := packObject(t, d, KindResult, "flip"); !bytes.Equal(b, payload) {
			t.Fatalf("flipped write not healed in %s: %q", d, b)
		}
	}
}

func TestReplicateBitFlipHealed(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	// Find the write op that lands the mirror's replica copy, then rerun
	// with a bit-flip injected exactly there.
	rec := testsupport.NewStoreRecorder()
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
	hook := (&testsupport.StoreSpec{Op: testsupport.StoreOpWrite, N: mirrorWrite, Kind: testsupport.StoreBitFlip}).StoreHook()
	s2 := mustOpen(t, Options{Dir: p2, Mirror: m2, Fault: hook})
	tx = s2.Begin()
	tx.Put(KindResult, "rk", []byte("replicated payload"))
	mustCommit(t, tx)
	if !hook.Fired() {
		t.Fatal("mirror bit-flip fault never fired")
	}
	if mb := packObject(t, m2, KindResult, "rk"); string(mb) != "replicated payload" {
		t.Fatalf("mirror copy not healed: %q", mb)
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
	a := fsio{osHook{}}.appender(&ss, path)
	if err := errors.Join(a.line([]byte(`{"fp":"next","status":"ok"}`)), ss.flush(fsio{osHook{}})); err != nil {
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

// TestPackReadHandleFollowsWrites: reads go through one held pack handle
// per side, and whatever this store writes on a side — an append, a heal,
// a pack that Repair or a commit recreates after the file was lost — is
// read back
// byte-exact from that side afterwards, never through a handle on bytes
// the directory no longer holds. A stale handle shows as a failover read
// or a second repair, or, for the lost pack, as a Repair that finds
// nothing to do.
func TestPackReadHandleFollowsWrites(t *testing.T) {
	p, m := t.TempDir(), t.TempDir()
	s := mustOpen(t, Options{Dir: p, Mirror: m})
	defer s.Close()
	payloads := map[string][]byte{}
	put := func(key string) {
		t.Helper()
		payloads[key] = []byte(strings.Repeat(key+"-payload ", 40))
		tx := s.Begin()
		tx.Put(KindResult, key, payloads[key])
		mustCommit(t, tx)
	}
	// readAll reads every object back and fails on wrong bytes or on any
	// read the primary did not serve by itself.
	readAll := func(step string) {
		t.Helper()
		before := s.counts()
		for key, want := range payloads {
			if got, err := s.Get(KindResult, key); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: %s read back %q, %v", step, key, got, err)
			}
		}
		if c := s.counts(); c.FailoverReads != before.FailoverReads || c.Repairs != before.Repairs || c.Quarantines != before.Quarantines {
			t.Fatalf("%s: reads were not served by the primary: %+v, before %+v", step, c, before)
		}
	}
	held := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.sides[0].pack != nil
	}

	put("a")
	readAll("first read")
	if !held() {
		t.Fatal("a read did not leave the primary's pack handle open")
	}

	put("b")
	readAll("after an append")

	flipAtRest(t, p, KindResult, "a")
	if got, err := s.Get(KindResult, "a"); err != nil || !bytes.Equal(got, payloads["a"]) {
		t.Fatalf("heal: %q, %v", got, err)
	}
	if c := s.counts(); c.Repairs != 1 {
		t.Fatalf("the flipped copy was not healed onto the primary: %+v", c)
	}
	readAll("after a heal")

	if err := os.Remove(filepath.Join(p, packFile)); err != nil {
		t.Fatal(err)
	}
	if rep := s.Repair(); rep.Repaired != len(payloads) || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
		t.Fatalf("repair of a lost primary pack: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(p, packFile)); err != nil {
		t.Fatalf("repair did not recreate the primary pack: %v", err)
	}
	readAll("after Repair recreated the pack")
	for key, want := range payloads {
		if got := packObject(t, p, KindResult, key); !bytes.Equal(got, want) {
			t.Fatalf("%s not rebuilt byte-exact on the primary: %q", key, got)
		}
	}

	// A commit that finds the pack gone stages into a new one, at offset
	// 0, where the lost pack held other bytes.
	if err := os.Remove(filepath.Join(p, packFile)); err != nil {
		t.Fatal(err)
	}
	payloads = map[string][]byte{}
	put("c")
	readAll("after a commit recreated the pack")

	// Readers share the handle while commits drop it under them.
	want := payloads["c"]
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got, err := s.Get(KindResult, "c"); err != nil || !bytes.Equal(got, want) {
					t.Errorf("concurrent read of c: %q, %v", got, err)
					return
				}
			}
		}()
	}
	for _, key := range []string{"d", "e", "f"} {
		put(key)
	}
	wg.Wait()
	readAll("after concurrent reads and commits")
}
