package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestConfigDefaults(t *testing.T) {
	c := NewCollector(Config{})
	if c.cfg.Window != DefaultWindow || c.cfg.MaxWindows != DefaultMaxWindows ||
		c.cfg.MaxSpans != DefaultMaxSpans {
		t.Fatalf("zero Config did not select defaults: %+v", c.cfg)
	}
	if c = NewCollector(Config{MaxWindows: 3}); c.cfg.MaxWindows != 8 {
		t.Fatalf("MaxWindows floor: got %d, want 8", c.cfg.MaxWindows)
	}
	if c = NewCollector(Config{MaxWindows: 9}); c.cfg.MaxWindows%2 != 0 {
		t.Fatalf("MaxWindows must round to even, got %d", c.cfg.MaxWindows)
	}
}

func TestMergeWindows(t *testing.T) {
	a := Window{Cycle: 64, Cycles: 64, Issued: 10, SlotIdle: 5, ActiveWarps: 7}
	b := Window{Cycle: 128, Cycles: 64, Issued: 3, SlotIdle: 1, ActiveWarps: 2}
	m := MergeWindows(a, b)
	if m.Cycle != 128 || m.Cycles != 128 {
		t.Errorf("merged bounds: end %d len %d, want 128/128", m.Cycle, m.Cycles)
	}
	if m.Issued != 13 || m.SlotIdle != 6 {
		t.Errorf("deltas must sum: %+v", m)
	}
	if m.ActiveWarps != 2 {
		t.Errorf("gauges must come from the later window: %d", m.ActiveWarps)
	}
}

func TestHistBuckets(t *testing.T) {
	c := NewCollector(Config{})
	c.Begin(1, "k", "p")
	for _, lat := range []int64{0, 1, 2, 3, 4, 1 << 20} {
		c.histAdd(lat)
	}
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 1, histBuckets - 1: 1}
	for i, n := range c.hist {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	d := c.Dump()
	if len(d.SwapLatency) != 5 {
		t.Fatalf("dump buckets = %d, want 5", len(d.SwapLatency))
	}
	if last := d.SwapLatency[4]; last.Hi != -1 {
		t.Errorf("overflow bucket Hi = %d, want -1", last.Hi)
	}
	if d.SwapLatency[1].Lo != 1 || d.SwapLatency[1].Hi != 1 {
		t.Errorf("bucket 1 bounds = [%d,%d], want [1,1]",
			d.SwapLatency[1].Lo, d.SwapLatency[1].Hi)
	}
}

func TestReadDump(t *testing.T) {
	dir := t.TempDir()
	for name, tc := range map[string]struct {
		doc     string
		wantErr string // "" = must load
	}{
		"current":      {`{"schemaVersion":1,"gpu":[{"cycle":256,"cycles":256}]}`, ""},
		"other schema": {`{"schemaVersion":2,"gpu":[{"cycle":256,"cycles":256}]}`, "schema 2"},
		"no windows":   {`{"schemaVersion":1,"gpu":[]}`, "no windows"},
		"not json":     {`{`, "unexpected end"},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := ReadDump(path)
		switch {
		case tc.wantErr == "" && (err != nil || len(d.GPU) != 1):
			t.Errorf("%s: %v, %+v", name, err, d)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.wantErr)
		}
	}
}
