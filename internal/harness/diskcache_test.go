package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/resultstore"
	"repro/internal/testsupport"
)

// The result store keeps every object as a byte range of one
// objects.pack per side, named by its store-index.jsonl line. These
// helpers read and damage a side's objects through those two files
// alone, the way an operator with jq and dd would, never through a store.

// indexLine is one store-index.jsonl line.
type indexLine struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
	SHA  string `json:"sha256"`
	Size int64  `json:"size"`
	Off  int64  `json:"off"`
	Drop bool   `json:"drop"`
}

// storeIndex replays one side's index: the latest line per object of
// kind, by key; a drop line deletes.
func storeIndex(t testing.TB, dir string, kind resultstore.Kind) map[string]indexLine {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "store-index.jsonl"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	live := map[string]indexLine{}
	for _, ln := range strings.Split(string(b), "\n") {
		var e indexLine
		if json.Unmarshal([]byte(ln), &e) != nil || e.Kind != string(kind) {
			continue
		}
		if e.Drop {
			delete(live, e.Key)
		} else {
			live[e.Key] = e
		}
	}
	return live
}

// storeObjects returns the live objects of kind on one side, by key: the
// objects.pack range each live index line names.
func storeObjects(t testing.TB, dir string, kind resultstore.Kind) map[string][]byte {
	t.Helper()
	objs := map[string][]byte{}
	for key, e := range storeIndex(t, dir, kind) {
		f, err := os.Open(filepath.Join(dir, "objects.pack"))
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, e.Size)
		_, err = f.ReadAt(b, e.Off)
		f.Close()
		if err != nil {
			t.Fatalf("%s-%s: range %d+%d: %v", kind, key, e.Off, e.Size, err)
		}
		objs[key] = b
	}
	return objs
}

// onlyObject returns the one live object of kind on a side.
func onlyObject(t testing.TB, dir string, kind resultstore.Kind) (key string, body []byte) {
	t.Helper()
	objs := storeObjects(t, dir, kind)
	if len(objs) != 1 {
		t.Fatalf("%s holds %d %s objects, want 1", dir, len(objs), kind)
	}
	for key, body = range objs {
	}
	return key, body
}

// appendIndex appends lines to a side's index.
func appendIndex(t testing.TB, dir string, lines ...indexLine) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "store-index.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, e := range lines {
		b, _ := json.Marshal(e)
		if _, err := f.Write(append(b, '\n')); err != nil {
			t.Fatal(err)
		}
	}
}

// replaceObject appends body to a side's pack and indexes it under kind
// and key with its true checksum: an entry some other build wrote, which
// the store serves and only the harness's envelope check can refuse.
func replaceObject(t testing.TB, dir string, kind resultstore.Kind, key string, body []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "objects.pack"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err == nil {
		_, err = f.Write(body)
	}
	if err = errors.Join(err, f.Close()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	appendIndex(t, dir, indexLine{Kind: string(kind), Key: key, SHA: hex.EncodeToString(sum[:]), Size: int64(len(body)), Off: fi.Size()})
}

// flipObject flips one bit in the middle of an object's range in a
// side's pack: at-rest corruption, which the store's checksum catches.
func flipObject(t testing.TB, dir string, kind resultstore.Kind, key string) {
	t.Helper()
	e, ok := storeIndex(t, dir, kind)[key]
	if !ok {
		t.Fatalf("%s-%s is not indexed in %s", kind, key, dir)
	}
	f, err := os.OpenFile(filepath.Join(dir, "objects.pack"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, e.Off+e.Size/2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x04
	if _, err := f.WriteAt(b, e.Off+e.Size/2); err != nil {
		t.Fatal(err)
	}
}

// dropObjects appends a drop line for every live object of kind on a
// side: a store that lost them.
func dropObjects(t testing.TB, dir string, kind resultstore.Kind) {
	t.Helper()
	for key := range storeIndex(t, dir, kind) {
		appendIndex(t, dir, indexLine{Kind: string(kind), Key: key, Drop: true})
	}
}

// drops counts the drop lines a side's index holds for key: one per
// quarantine.
func drops(t testing.TB, dir, key string) int {
	t.Helper()
	b, _ := os.ReadFile(filepath.Join(dir, "store-index.jsonl"))
	n := 0
	for _, ln := range strings.Split(string(b), "\n") {
		var e indexLine
		if json.Unmarshal([]byte(ln), &e) == nil && e.Drop && e.Key == key {
			n++
		}
	}
	return n
}

// runDurable is ExecuteJob followed by the sweep's durability barrier, for
// tests that inspect the store directory right after a run: outcomes
// commit write-behind, so until Sync the files may not exist yet.
func runDurable(p Params, j Job) (*gpu.Result, error) {
	out, err := ExecuteJob(p, j)
	p.Sweep.Sync()
	return out.Result, err
}

// TestDiskCacheRoundTrip verifies that a memoized run persisted to disk is
// served back on a later invocation (a fresh sweep over the directory) as
// a cache hit, bit-identical to the freshly computed Result.
func TestDiskCacheRoundTrip(t *testing.T) {
	p := inSweep(t, Params{Scale: 1, Config: testsupport.Small(), Dilute: 60, CacheDir: t.TempDir()})
	j := Job{Workload: "vecadd"}

	fresh, err := runDurable(p, j)
	if err != nil {
		t.Fatal(err)
	}
	if m := p.Sweep.Metrics(); m.Executed != 1 || m.SimCycles == 0 {
		t.Fatalf("first run: executed=%d simcycles=%d, want a real simulation", m.Executed, m.SimCycles)
	}
	onlyObject(t, p.CacheDir, resultstore.KindResult)

	p = reboot(t, p) // a fresh process: only the disk knows the result
	cached, err := ExecuteJob(p, j)
	if err != nil {
		t.Fatal(err)
	}
	if m := p.Sweep.Metrics(); m.Executed != 0 || m.CacheHits != 1 || m.SimCycles != 0 {
		t.Fatalf("second run: executed=%d hits=%d simcycles=%d, want disk hit only",
			m.Executed, m.CacheHits, m.SimCycles)
	}
	if !reflect.DeepEqual(fresh, cached.Result) {
		t.Fatalf("disk round-trip altered the result:\nfresh:  %+v\ncached: %+v", fresh, cached.Result)
	}
}

// quarantineReasons returns the reasons the primary's audit log gives
// for quarantining key, oldest first.
func quarantineReasons(t testing.TB, dir, key string) []string {
	t.Helper()
	b, _ := os.ReadFile(filepath.Join(dir, "store-audit.jsonl"))
	var out []string
	for _, ln := range strings.Split(string(b), "\n") {
		var ev resultstore.Event
		if json.Unmarshal([]byte(ln), &ev) == nil && ev.Op == "quarantine" && ev.Key == key && ev.Side == "primary" {
			out = append(out, ev.Detail)
		}
	}
	return out
}

// TestDiskCacheVersionInvalidation verifies that objects another build
// wrote under this build's key are misses, not wrong answers: a record of
// an earlier envelope version, and a JSON envelope of the kind builds
// before the binary record wrote. Each is quarantined for the check its
// header fails, and the job re-simulates.
func TestDiskCacheVersionInvalidation(t *testing.T) {
	j := Job{Workload: "vecadd"}
	older := []struct {
		name, reason string
		mangle       func(body []byte) []byte
	}{
		{"earlier-version", fmt.Sprintf("stale version %d (want %d)", diskCacheVersion-1, diskCacheVersion), func(body []byte) []byte {
			body[envelopeVersionAt] = diskCacheVersion - 1
			return body
		}},
		{"json-envelope", "wrong magic", func([]byte) []byte {
			return []byte(`{"version":1,"fingerprint":"vecadd|s1|d60|{}","result":{"Cycles":1}}`)
		}},
	}
	for _, tc := range older {
		t.Run(tc.name, func(t *testing.T) {
			p := inSweep(t, Params{Scale: 1, Config: testsupport.Small(), Dilute: 60, CacheDir: t.TempDir()})
			if _, err := runDurable(p, j); err != nil {
				t.Fatal(err)
			}
			key, b := onlyObject(t, p.CacheDir, resultstore.KindResult)
			replaceObject(t, p.CacheDir, resultstore.KindResult, key, tc.mangle(bytes.Clone(b)))

			p = reboot(t, p)
			if _, err := ExecuteJob(p, j); err != nil {
				t.Fatal(err)
			}
			if m := p.Sweep.Metrics(); m.Executed != 1 {
				t.Fatalf("stale entry was served: executed=%d, want re-simulation", m.Executed)
			}
			if r := quarantineReasons(t, p.CacheDir, key); len(r) != 1 || !strings.HasPrefix(r[0], tc.reason) {
				t.Fatalf("quarantined for %q, want once for %q", r, tc.reason)
			}
		})
	}
}

// TestDiskCacheQuarantine verifies that an unusable entry the store
// serves — its checksum matches what some other writer indexed — is
// quarantined by the harness (a drop line on the index, keeping the
// rejection observable in store-index.jsonl and the audit log) while the
// caller re-simulates and writes a fresh entry. Each mangle trips exactly
// the envelope check it names, as the audit log's reason shows.
func TestDiskCacheQuarantine(t *testing.T) {
	base := Params{Scale: 1, Config: testsupport.Small(), Dilute: 60, CacheDir: t.TempDir()}
	j := Job{Workload: "vecadd"}

	corruptions := []struct {
		name, reason string
		mangle       func(body []byte) []byte
	}{
		// Truncated mid-write.
		{"torn", "truncated record", func(body []byte) []byte { return body[:len(body)/2] }},
		{"stale-version", fmt.Sprintf("stale version %d (want %d)", diskCacheVersion+1, diskCacheVersion), func(body []byte) []byte {
			body[envelopeVersionAt] = diskCacheVersion + 1
			return body
		}},
		// Another build of the payload types: same version, other layout.
		{"stale-layout", "stale layout", func(body []byte) []byte {
			body[envelopeLayoutAt] ^= 0xff
			return body
		}},
		// A well-formed record answering another fingerprint of the same
		// length.
		{"wrong-fingerprint", "fingerprint mismatch", func(body []byte) []byte {
			at := bytes.Index(body, []byte("vecadd|"))
			if at < 0 {
				t.Fatal("fingerprint not found in cache entry")
			}
			copy(body[at:], "tamper")
			return body
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			p := inSweep(t, base)
			if _, err := runDurable(p, j); err != nil {
				t.Fatal(err)
			}
			key, body := onlyObject(t, p.CacheDir, resultstore.KindResult)
			replaceObject(t, p.CacheDir, resultstore.KindResult, key, tc.mangle(bytes.Clone(body)))
			quarantined := drops(t, p.CacheDir, key)
			reasons := len(quarantineReasons(t, p.CacheDir, key))

			p = reboot(t, p)
			if _, err := runDurable(p, j); err != nil {
				t.Fatal(err)
			}
			if m := p.Sweep.Metrics(); m.Executed != 1 {
				t.Fatalf("bad entry was served: executed=%d, want re-simulation", m.Executed)
			}
			if n := drops(t, p.CacheDir, key) - quarantined; n != 1 {
				t.Fatalf("found %d new drop lines for the entry, want 1", n)
			}
			if r := quarantineReasons(t, p.CacheDir, key)[reasons:]; len(r) != 1 || !strings.HasPrefix(r[0], tc.reason) {
				t.Fatalf("quarantined for %q, want once for %q", r, tc.reason)
			}
			// The re-simulation rewrote a healthy entry, bit-identical to the
			// first.
			if _, again := onlyObject(t, p.CacheDir, resultstore.KindResult); !bytes.Equal(again, body) {
				t.Fatalf("rewritten entry differs from the original")
			}
			p = reboot(t, p)
			if _, err := ExecuteJob(p, j); err != nil {
				t.Fatal(err)
			}
			if m := p.Sweep.Metrics(); m.Executed != 0 || m.CacheHits != 1 {
				t.Fatalf("rewritten entry not served: %+v", m)
			}
		})
	}
}
