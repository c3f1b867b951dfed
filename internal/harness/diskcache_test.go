package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
)

// runDurable is memoRun followed by the sweep's durability barrier, for
// tests that inspect the store directory right after a run: outcomes
// commit write-behind, so until Sync the files may not exist yet.
func runDurable(p Params, j Job) (*gpu.Result, error) {
	out, err := memoRun(p, j)
	p.Sweep.Sync()
	return out.Result, err
}

// TestDiskCacheRoundTrip verifies that a memoized run persisted to disk is
// served back on a later invocation (a fresh sweep over the directory) as
// a cache hit, bit-identical to the freshly computed Result.
func TestDiskCacheRoundTrip(t *testing.T) {
	p := inSweep(t, Params{Scale: 1, Config: config.Small(), Dilute: 60, CacheDir: t.TempDir()})
	j := Job{Workload: "vecadd"}

	fresh, err := runDurable(p, j)
	if err != nil {
		t.Fatal(err)
	}
	if m := p.Sweep.Metrics(); m.Executed != 1 || m.SimCycles == 0 {
		t.Fatalf("first run: executed=%d simcycles=%d, want a real simulation", m.Executed, m.SimCycles)
	}
	files, err := filepath.Glob(filepath.Join(p.CacheDir, "vtsim-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache dir holds %d entries (err=%v), want 1", len(files), err)
	}

	p = reboot(t, p) // a fresh process: only the disk knows the result
	cached, err := memoRun(p, j)
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

// TestDiskCacheVersionInvalidation verifies stale-envelope rejection: an
// entry whose version or fingerprint does not match is a miss, not a wrong
// answer.
func TestDiskCacheVersionInvalidation(t *testing.T) {
	p := inSweep(t, Params{Scale: 1, Config: config.Small(), Dilute: 60, CacheDir: t.TempDir()})
	j := Job{Workload: "vecadd"}

	if _, err := runDurable(p, j); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(p.CacheDir, "vtsim-*.json"))
	if len(files) != 1 {
		t.Fatalf("cache dir holds %d entries, want 1", len(files))
	}
	// Corrupt the envelope: a version bump must read as a miss.
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], append([]byte(nil),
		[]byte(`{"version":-1,`+string(b[len(`{"version":1,`):]))...), 0o644); err != nil {
		t.Fatal(err)
	}

	p = reboot(t, p)
	if _, err := memoRun(p, j); err != nil {
		t.Fatal(err)
	}
	if m := p.Sweep.Metrics(); m.Executed != 1 {
		t.Fatalf("stale entry was served: executed=%d, want re-simulation", m.Executed)
	}
}

// TestDiskCacheQuarantine verifies that unusable cache files are moved
// aside as *.corrupt — keeping corruption observable — while the caller
// re-simulates and writes a fresh entry.
func TestDiskCacheQuarantine(t *testing.T) {
	base := Params{Scale: 1, Config: config.Small(), Dilute: 60, CacheDir: t.TempDir()}
	j := Job{Workload: "vecadd"}

	corruptions := []struct {
		name   string
		mangle func(path string, body []byte)
	}{
		{"torn", func(path string, body []byte) {
			// Truncated mid-write: invalid JSON.
			os.WriteFile(path, body[:len(body)/2], 0o644)
		}},
		{"stale-version", func(path string, body []byte) {
			os.WriteFile(path, append([]byte(nil),
				[]byte(`{"version":-1,`+string(body[len(`{"version":1,`):]))...), 0o644)
		}},
		{"wrong-fingerprint", func(path string, body []byte) {
			mangled := strings.Replace(string(body), `"fingerprint":"vecadd`,
				`"fingerprint":"tampered`, 1)
			if mangled == string(body) {
				t.Fatal("fingerprint substring not found in cache entry")
			}
			os.WriteFile(path, []byte(mangled), 0o644)
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			p := inSweep(t, base)
			if _, err := runDurable(p, j); err != nil {
				t.Fatal(err)
			}
			files, _ := filepath.Glob(filepath.Join(p.CacheDir, "vtsim-*.json"))
			if len(files) != 1 {
				t.Fatalf("cache dir holds %d entries, want 1", len(files))
			}
			body, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			tc.mangle(files[0], body)

			p = reboot(t, p)
			if _, err := runDurable(p, j); err != nil {
				t.Fatal(err)
			}
			if m := p.Sweep.Metrics(); m.Executed != 1 {
				t.Fatalf("bad entry was served: executed=%d, want re-simulation", m.Executed)
			}
			quarantined, _ := filepath.Glob(filepath.Join(p.CacheDir, "*.corrupt"))
			if len(quarantined) != 1 {
				t.Fatalf("found %d quarantined files, want 1", len(quarantined))
			}
			// The re-simulation rewrote a healthy entry alongside it.
			files, _ = filepath.Glob(filepath.Join(p.CacheDir, "vtsim-*.json"))
			if len(files) != 1 {
				t.Fatalf("cache dir holds %d fresh entries after rewrite, want 1", len(files))
			}
			p = reboot(t, p)
			if _, err := memoRun(p, j); err != nil {
				t.Fatal(err)
			}
			if m := p.Sweep.Metrics(); m.Executed != 0 || m.CacheHits != 1 {
				t.Fatalf("rewritten entry not served: %+v", m)
			}
			os.Remove(quarantined[0])
		})
	}
}
