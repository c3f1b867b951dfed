package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/resultstore"
	"repro/internal/testsupport"
)

// Harness-level drills for the transactional result store: crash-fault
// sweeps through real ExecuteJob/CommitOutcome commits, mirror repair
// through the cache path, and the journal's rotation and concurrent-
// append contracts. The store's own kill-point property test lives in
// internal/resultstore; these tests prove the same guarantees hold
// end-to-end through the harness.

// TestJournalRotateNoClobber is the regression test for the rotation
// clobbering bug: two successive foreign-journal rotations used to both
// target path+".old", silently destroying the first superseded sweep's
// bytes. Every rotation must land on a fresh name.
func TestJournalRotateNoClobber(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	open := func(scale int) {
		if err := adoptJournal(path, JournalMeta{Scale: scale, Dilute: 60, Config: "small"}); err != nil {
			t.Fatalf("open scale=%d: %v", scale, err)
		}
	}
	open(1) // original sweep
	open(2) // foreign: rotates scale=1 to .old
	open(3) // foreign again: must NOT clobber .old

	wantScale := func(p string, scale int) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("rotated journal missing: %v", err)
		}
		want := fmt.Sprintf(`"scale":%d`, scale)
		if !strings.Contains(string(b), want) {
			t.Fatalf("%s does not hold the scale=%d sweep:\n%s", p, scale, b)
		}
	}
	wantScale(path+".old", 1)
	wantScale(path+".old.1", 2)
	wantScale(path, 3)
}

// TestJournalConcurrentAppendsNoInterleave commits outcomes from two
// goroutines of one sweep at once, as two slots finishing together do.
// Every journal line reaches the file through a store transaction, and a
// group-commit batch may interleave the two writers' lines but never the
// bytes within one, so every line on both sides must parse as a complete
// entry from exactly one writer.
func TestJournalConcurrentAppendsNoInterleave(t *testing.T) {
	p := inSweep(t, Params{Scale: 1, Config: testsupport.Small(), Dilute: 60, CacheDir: t.TempDir(), MirrorDir: t.TempDir()})
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}

	const perWriter = 200
	var wg sync.WaitGroup
	for _, tag := range []string{"aaaa", "bbbb"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A long recognizable payload makes any byte interleaving
			// corrupt the JSON or pollute the tag.
			filler := strings.Repeat(tag, 100)
			for i := 0; i < perWriter; i++ {
				CommitOutcome(p, "", Outcome{Entry: JournalEntry{
					FP: fmt.Sprintf("%s-%03d", tag, i), Workload: "vecadd",
					Status: "ok", Error: filler,
				}})
			}
		}()
	}
	wg.Wait()
	p.Sweep.Sync()

	for _, dir := range []string{p.CacheDir, p.MirrorDir} {
		raw, err := os.ReadFile(filepath.Join(dir, JournalFileName))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		if len(lines) != 1+2*perWriter {
			t.Fatalf("%s: journal holds %d lines, want header + %d entries", dir, len(lines), 2*perWriter)
		}
		for i, ln := range lines[1:] {
			var e JournalEntry
			if err := json.Unmarshal([]byte(ln), &e); err != nil {
				t.Fatalf("%s: line %d is not one complete entry (byte interleaving?): %v\n%s", dir, i+1, err, ln)
			}
			tag := e.FP[:4]
			if tag != "aaaa" && tag != "bbbb" {
				t.Fatalf("%s: line %d carries a mixed fp %q", dir, i+1, e.FP)
			}
			if e.Error != strings.Repeat(tag, 100) {
				t.Fatalf("%s: line %d mixes payloads from both writers", dir, i+1)
			}
		}
	}
}

// TestJournalOpenReadsOnlyTheHeader: opening a journal whose header
// matches reads nothing past that line. A sweep over a journal with
// entries and a torn tail still appends whole lines through
// CommitOutcome; a re-run over the full store executes nothing; and a
// mirror journal whose header matches is neither rewritten nor touched —
// same size, same mtime — by either open.
func TestJournalOpenReadsOnlyTheHeader(t *testing.T) {
	p := Params{Scale: 1, Config: testsupport.Small(), Dilute: 60, CacheDir: t.TempDir(), MirrorDir: t.TempDir()}
	jobs := policyJobs([]string{"vecadd"},
		[]config.Policy{config.PolicyBaseline, config.PolicyVT, config.PolicyIdeal})
	keys := drillKeys(t, p, jobs)
	primary := filepath.Join(p.CacheDir, JournalFileName)
	mirror := filepath.Join(p.MirrorDir, JournalFileName)
	open := func() Params {
		t.Helper()
		p := inSweep(t, p)
		if err := p.Sweep.OpenJournal(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	run := func(p Params, jobs ...Job) {
		t.Helper()
		for _, j := range jobs {
			if _, err := runDurable(p, j); err != nil {
				t.Fatal(err)
			}
		}
		p.Sweep.Close()
	}
	// untouched asserts the mirror journal still has the size and mtime
	// it had when settle ran.
	var size int64
	var mtime time.Time
	settle := func() {
		t.Helper()
		mtime = time.Now().Add(-time.Hour).Truncate(time.Second)
		if err := os.Chtimes(mirror, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(mirror)
		if err != nil {
			t.Fatal(err)
		}
		size = fi.Size()
	}
	untouched := func(when string) {
		t.Helper()
		fi, err := os.Stat(mirror)
		if err != nil || fi.Size() != size || !fi.ModTime().Equal(mtime) {
			t.Fatalf("%s: the matching mirror journal was touched: %v (size %d -> %d, mtime %v -> %v)",
				when, err, size, fi.Size(), mtime, fi.ModTime())
		}
	}

	run(open(), jobs[:2]...)
	// A crashed writer's torn tail on the primary.
	f, err := os.OpenFile(primary, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fp":"` + keys[2][:8]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	settle()
	next := open()
	untouched("open over entries and a torn tail")
	run(next, jobs[2])
	for _, path := range []string{primary, mirror} {
		if got := journalOKSet(t, path); len(got) != len(keys) {
			t.Fatalf("%s records %d jobs as ok after the append over a torn tail, want %d", path, len(got), len(keys))
		}
	}

	settle()
	rerun := open()
	untouched("re-run open")
	run(rerun, jobs...)
	if m := rerun.Sweep.Metrics(); m.Executed != 0 {
		t.Fatalf("the re-run re-executed %d jobs", m.Executed)
	}
	untouched("a re-run that executed nothing")
}

// drillJobs is the crash-drill sweep shape: one workload under two
// policies, heavily diluted, with distinct fingerprints. The Params are
// unbound: every drill phase is a sweep of its own.
func drillJobs() (Params, []Job) {
	p := Params{Scale: 1, Config: testsupport.Small(), Dilute: 60}
	jobs := policyJobs([]string{"vecadd"},
		[]config.Policy{config.PolicyBaseline, config.PolicyVT})
	return p, jobs
}

// drillKeys returns the cache keys (journal FPs) of the drill jobs.
func drillKeys(t *testing.T, p Params, jobs []Job) []string {
	p.Sweep = NewSweep()
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		_, key, err := FingerprintKey(p, j)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
	}
	return keys
}

// journalStatuses parses a journal file into each FP's recorded
// statuses, in file order. A torn line is skipped, as every reader skips
// it; a missing file records nothing.
func journalStatuses(t *testing.T, path string) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return out
		}
		t.Fatal(err)
	}
	for _, ln := range strings.Split(string(raw), "\n") {
		var e JournalEntry
		if json.Unmarshal([]byte(ln), &e) != nil || e.FP == "" {
			continue
		}
		out[e.FP] = append(out[e.FP], e.Status)
	}
	return out
}

// journalOKSet returns the FPs whose latest recorded status in the
// journal file at path is "ok". Duplicate lines (the store's
// at-least-once append replay after roll-forward recovery) collapse
// naturally.
func journalOKSet(t *testing.T, path string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for fp, sts := range journalStatuses(t, path) {
		if sts[len(sts)-1] == "ok" {
			out[fp] = true
		}
	}
	return out
}

// runDrillSweep executes the drill jobs sequentially through ExecuteJob in a
// sweep of their own — journaled when p names a store — and ends at the
// durability barrier, stopping at a simulated process death
// (*testsupport.StoreKill) like a real crash would:
// outcomes commit write-behind, so the death surfaces at whichever comes
// first of the next store read, the next submit, and the barrier. Either
// way the sweep is closed on return (the reboot). Returns whether the
// sweep was killed, the per-job results gathered before death, and the
// sweep's counters.
func runDrillSweep(t *testing.T, p Params, jobs []Job) (killed bool, results []*gpu.Result, m RunMetrics) {
	p = inSweep(t, p)
	defer func() { m = p.Sweep.Metrics() }()
	defer p.Sweep.Close()
	if p.CacheDir != "" {
		if err := p.Sweep.OpenJournal(p); err != nil {
			t.Fatalf("open journal: %v", err)
		}
	}
	results = make([]*gpu.Result, len(jobs))
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(*testsupport.StoreKill); !ok {
				panic(rec)
			}
			killed = true
		}
	}()
	for i, j := range jobs {
		r, err := ExecuteJob(p, j)
		if err != nil {
			t.Fatalf("%s/%s: %v", j.Workload, j.Variant, err)
		}
		results[i] = r.Result
	}
	p.Sweep.Sync()
	return false, results, m
}

// TestStoreCrashDrillResume is the satellite-3 property test, end to end
// through the harness: enumerate every store filesystem operation of a
// two-job journaled sweep commit sequence, then re-run the sweep once
// per operation with a kill injected exactly there. After every kill,
// reopening the store recovers to a consistent state (Verify clean, a
// journal "ok" line if and only if its Result is servable) and a re-run
// over the same store re-executes exactly the jobs whose commits had not
// landed.
func TestStoreCrashDrillResume(t *testing.T) {
	base, jobs := drillJobs()
	keys := drillKeys(t, base, jobs)

	// Reference results from an uncached clean sweep.
	_, refs, _ := runDrillSweep(t, base, jobs)

	// Pass 1: record the operation trace of a clean cached sweep.
	recorder := testsupport.NewStoreRecorder()
	rp := base
	rp.CacheDir = filepath.Join(t.TempDir(), "primary")
	rp.MirrorDir = filepath.Join(t.TempDir(), "mirror")
	rp.StoreFault = recorder
	runDrillSweep(t, rp, jobs)
	trace := recorder.Trace()
	if len(trace) < 15 {
		t.Fatalf("trace too short to be a real commit sequence (%d ops):\n%s",
			len(trace), strings.Join(trace, "\n"))
	}

	kinds := []testsupport.StoreFaultKind{
		testsupport.StoreCrash, testsupport.StoreCrashAfter, testsupport.StoreTruncate,
	}
	for point := 0; point < len(trace); point++ {
		kind := kinds[point%len(kinds)]
		t.Run(fmt.Sprintf("op%02d-%s", point, kind), func(t *testing.T) {
			p := base
			p.CacheDir = filepath.Join(t.TempDir(), "primary")
			p.MirrorDir = filepath.Join(t.TempDir(), "mirror")
			spec := testsupport.StoreSpec{Op: testsupport.StoreOpAny, N: point, Kind: kind}
			hook := spec.StoreHook()
			p.StoreFault = hook

			killed, _, _ := runDrillSweep(t, p, jobs)
			if !killed || !hook.Fired() {
				t.Fatalf("kill point %d did not fire (killed=%v fired=%v)", point, killed, hook.Fired())
			}

			// Rebooted (the killed sweep is closed, every cache and handle
			// dropped with it): validate the recovered on-disk state directly.
			st, err := resultstore.Open(resultstore.Options{Dir: p.CacheDir, Mirror: p.MirrorDir, Fault: testsupport.PassThrough()})
			if err != nil {
				t.Fatalf("reopen after kill: %v", err)
			}
			okSet := journalOKSet(t, filepath.Join(p.CacheDir, JournalFileName))
			for i, k := range keys {
				_, gerr := st.Get(resultstore.KindResult, k)
				if okSet[k] && gerr != nil {
					t.Errorf("job %d: journal says ok but the Result is not servable: %v", i, gerr)
				}
				if !okSet[k] && gerr == nil {
					t.Errorf("job %d: Result cached but the journal never heard of it", i)
				}
			}
			rep := st.Verify()
			if len(rep.Damaged) > 0 || len(rep.Unrecoverable) > 0 {
				t.Fatalf("store inconsistent after recovery: %+v", rep)
			}
			st.Close()
			if t.Failed() {
				return
			}

			// Re-run: exactly the uncommitted jobs re-execute, and the sweep
			// converges to the reference results with every job journaled ok.
			committed := 0
			for _, k := range keys {
				if okSet[k] {
					committed++
				}
			}
			p.StoreFault = nil
			killed, res, m := runDrillSweep(t, p, jobs)
			if killed {
				t.Fatal("re-run sweep died with no fault installed")
			}
			if m.Executed != len(jobs)-committed {
				t.Fatalf("re-run executed %d jobs, want exactly the %d uncommitted ones (metrics %+v)",
					m.Executed, len(jobs)-committed, m)
			}
			for i := range jobs {
				if !reflect.DeepEqual(res[i], refs[i]) {
					t.Fatalf("job %d: re-run result differs from the reference run", i)
				}
			}
			finalOK := journalOKSet(t, filepath.Join(p.CacheDir, JournalFileName))
			for i, k := range keys {
				if !finalOK[k] {
					t.Fatalf("job %d missing from the journal after the re-run", i)
				}
			}
		})
	}
}

// TestHarnessMirrorRepair drives replication and heal-on-read through
// the cache path: a journaled run replicates its Result and journal
// line to the mirror; at-rest corruption of the primary object is then
// healed bit-identically during an ordinary cached sweep.
func TestHarnessMirrorRepair(t *testing.T) {
	p, jobs := drillJobs()
	j := jobs[0]
	p.CacheDir = filepath.Join(t.TempDir(), "primary")
	p.MirrorDir = filepath.Join(t.TempDir(), "mirror")

	p = inSweep(t, p)
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}
	fresh, err := runDurable(p, j)
	if err != nil {
		t.Fatal(err)
	}

	// The Result object and the journal entry line replicated.
	objKey, pb := onlyObject(t, p.CacheDir, resultstore.KindResult)
	mb, ok := storeObjects(t, p.MirrorDir, resultstore.KindResult)[objKey]
	if !ok {
		t.Fatal("mirror replica missing")
	}
	if string(pb) != string(mb) {
		t.Fatal("mirror replica is not bit-identical to the primary object")
	}
	key := drillKeys(t, p, jobs)[0]
	if ok := journalOKSet(t, filepath.Join(p.MirrorDir, JournalFileName)); !ok[key] {
		t.Fatal("journal entry line did not replicate to the mirror")
	}

	// Flip a byte of the primary at rest; the next cached sweep must heal
	// it from the mirror and serve the verified payload without
	// re-simulating.
	p = reboot(t, p) // unjournaled this time
	flipObject(t, p.CacheDir, resultstore.KindResult, objKey)
	cached, err := ExecuteJob(p, j)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Sweep.Metrics()
	if m.Executed != 0 || m.StoreHits != 1 || m.StoreRepairs != 1 {
		t.Fatalf("corruption was not healed as a cache hit: %+v", m)
	}
	if !reflect.DeepEqual(fresh, cached.Result) {
		t.Fatal("healed result differs from the original")
	}
	if healed := storeObjects(t, p.CacheDir, resultstore.KindResult)[objKey]; string(healed) != string(mb) {
		t.Fatal("repair did not restore the primary bit-identically from the mirror")
	}

	// Lose a whole side, either one: Repair rebuilds its objects and its
	// journal from the survivor, and a re-run over the pair adopts that
	// journal and executes nothing.
	for _, lost := range []string{p.CacheDir, p.MirrorDir} {
		p.Sweep.Close()
		if err := os.RemoveAll(lost); err != nil {
			t.Fatal(err)
		}
		st, err := resultstore.Open(resultstore.Options{Dir: p.CacheDir, Mirror: p.MirrorDir, Fault: testsupport.PassThrough()})
		if err != nil {
			t.Fatal(err)
		}
		rep := st.Repair()
		st.Close()
		if rep.Repaired != 1 || len(rep.Backfilled) != 1 || len(rep.Damaged)+len(rep.Unrecoverable) != 0 {
			t.Fatalf("repair after losing %s: %+v", lost, rep)
		}
		pj, _ := os.ReadFile(filepath.Join(p.CacheDir, JournalFileName))
		mj, _ := os.ReadFile(filepath.Join(p.MirrorDir, JournalFileName))
		if len(pj) == 0 || string(pj) != string(mj) {
			t.Fatalf("journals differ after losing %s and repairing:\nprimary %q\nmirror  %q", lost, pj, mj)
		}
		if !journalOKSet(t, filepath.Join(p.CacheDir, JournalFileName))[key] {
			t.Fatalf("the rebuilt journal does not record the job as ok")
		}
		p = inSweep(t, p)
		if err := p.Sweep.OpenJournal(p); err != nil {
			t.Fatalf("re-run after losing %s: %v", lost, err)
		}
		if _, err := runDurable(p, j); err != nil {
			t.Fatal(err)
		}
		if m := p.Sweep.Metrics(); m.Executed != 0 || m.StoreHits != 1 {
			t.Fatalf("re-run after losing %s re-simulated: %+v", lost, m)
		}
	}
}

// TestHarnessLegacyCacheDirCompat: a store directory an older build left
// — one vtsim-<key>.json per object, index lines without an offset, a
// commit record under .vtstore/wal — is never served and never touched,
// and its journal is adopted, not rotated aside: the job it records as ok
// is re-simulated because the pack lacks it, and the rewrite is an
// ordinary object the next run hits.
func TestHarnessLegacyCacheDirCompat(t *testing.T) {
	p, jobs := drillJobs()
	j := jobs[0]
	p.CacheDir = t.TempDir()
	p = inSweep(t, p)
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatal(err)
	}
	fresh, err := runDurable(p, j)
	if err != nil {
		t.Fatal(err)
	}
	p.Sweep.Close()
	key, body := onlyObject(t, p.CacheDir, resultstore.KindResult)
	journal, err := os.ReadFile(filepath.Join(p.CacheDir, JournalFileName))
	if err != nil {
		t.Fatal(err)
	}
	e := storeIndex(t, p.CacheDir, resultstore.KindResult)[key]
	older := map[string]string{
		JournalFileName:              string(journal),
		"vtsim-" + key + ".json":     string(body),
		"store-index.jsonl":          fmt.Sprintf(`{"kind":"vtsim","key":%q,"sha256":%q,"size":%d,"tx":"tx-9-1"}`+"\n", key, e.SHA, e.Size),
		".vtstore/wal/tx-9-2.commit": `{"tx":"tx-9-2","ops":[]}`,
	}
	p.CacheDir = t.TempDir()
	for rel, b := range older {
		path := filepath.Join(p.CacheDir, filepath.FromSlash(rel))
		os.MkdirAll(filepath.Dir(path), 0o755)
		if err := os.WriteFile(path, []byte(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	p = inSweep(t, p)
	if err := p.Sweep.OpenJournal(p); err != nil {
		t.Fatalf("re-run over the older layout: %v", err)
	}
	if _, err := os.Stat(filepath.Join(p.CacheDir, JournalFileName+".old")); !os.IsNotExist(err) {
		t.Fatalf("the older journal was rotated aside (stat: %v)", err)
	}
	rerun, err := runDurable(p, j)
	if err != nil {
		t.Fatal(err)
	}
	if m := p.Sweep.Metrics(); m.Executed != 1 || m.StoreHits != 0 || m.StoreMisses != 1 {
		t.Fatalf("the older layout was served, not recomputed: %+v", m)
	}
	if !reflect.DeepEqual(fresh, rerun) {
		t.Fatal("recomputation differs from the original run")
	}
	for rel, b := range older {
		got, err := os.ReadFile(filepath.Join(p.CacheDir, filepath.FromSlash(rel)))
		if err != nil || !strings.HasPrefix(string(got), b) {
			t.Fatalf("%s was touched: %v", rel, err)
		}
	}

	p = reboot(t, p)
	if _, err := ExecuteJob(p, j); err != nil {
		t.Fatal(err)
	}
	if m := p.Sweep.Metrics(); m.Executed != 0 || m.StoreHits != 1 {
		t.Fatalf("rewritten entry not served as a verified hit: %+v", m)
	}
}

// TestHarnessTransientStoreRetry injects a one-shot EIO into the first
// store write of a cached run: the bounded retry-with-backoff must
// absorb it (counted in StoreRetries), the commit must land, and a
// fresh invocation must hit the cache.
func TestHarnessTransientStoreRetry(t *testing.T) {
	p, jobs := drillJobs()
	j := jobs[0]
	p.CacheDir = t.TempDir()
	spec := testsupport.StoreSpec{Op: testsupport.StoreOpWrite, N: 0, Kind: testsupport.StoreEIO}
	hook := spec.StoreHook()
	p.StoreFault = hook

	p = inSweep(t, p)
	if _, err := runDurable(p, j); err != nil {
		t.Fatal(err)
	}
	if m := p.Sweep.Metrics(); m.StoreRetries != 1 {
		t.Fatalf("transient EIO not absorbed by the retry ladder: %+v", m)
	}
	if !hook.Fired() {
		t.Fatal("injected EIO never fired")
	}

	p.StoreFault = nil
	p = reboot(t, p)
	if _, err := ExecuteJob(p, j); err != nil {
		t.Fatal(err)
	}
	if m := p.Sweep.Metrics(); m.Executed != 0 || m.StoreHits != 1 {
		t.Fatalf("retried commit did not land: %+v", m)
	}
}
