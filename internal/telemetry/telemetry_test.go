package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestConfigDefaults(t *testing.T) {
	if c := NewCollector(Config{}); c.cfg.Window != DefaultWindow {
		t.Fatalf("zero Config did not select the default window: %+v", c.cfg)
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

// TestRebucket folds a contiguous ring whose windows have the uneven
// lengths compaction leaves onto coarser grids: at most n windows that
// cover the run without gaps, deltas summed, and each merged window
// carrying the gauges and end cycle of the last window folded into it.
func TestRebucket(t *testing.T) {
	var ws []Window
	byEnd := map[int64]Window{}
	end := int64(100) // a ring need not start at cycle 0
	for i := 0; i < 37; i++ {
		w := Window{Cycles: 8 << (i / 12), Issued: int64(i + 1), SlotIdle: 2, ActiveWarps: i}
		end += w.Cycles
		w.Cycle = end
		ws = append(ws, w)
		byEnd[end] = w
	}
	for _, n := range []int{1, 4, 16, 36} {
		out := Rebucket(ws, n)
		if len(out) == 0 || len(out) > n {
			t.Fatalf("n=%d: %d windows", n, len(out))
		}
		var issued, idle int64
		prev := ws[0].Cycle - ws[0].Cycles
		for i, w := range out {
			if w.Cycle-w.Cycles != prev {
				t.Fatalf("n=%d: window %d starts at %d, want %d (gap or overlap)", n, i, w.Cycle-w.Cycles, prev)
			}
			prev = w.Cycle
			orig, ok := byEnd[w.Cycle]
			if !ok || w.ActiveWarps != orig.ActiveWarps {
				t.Errorf("n=%d: window %d ends at %d with gauge %d, want a source window's end and its gauge", n, i, w.Cycle, w.ActiveWarps)
			}
			issued += w.Issued
			idle += w.SlotIdle
		}
		if prev != end {
			t.Errorf("n=%d: rebucketed ring ends at %d, want %d", n, prev, end)
		}
		if issued != 37*38/2 || idle != 2*37 {
			t.Errorf("n=%d: deltas sum to issued %d, idle %d, want %d and %d", n, issued, idle, 37*38/2, 2*37)
		}
	}
	for _, n := range []int{37, 100} {
		if out := Rebucket(ws, n); len(out) != len(ws) || &out[0] != &ws[0] {
			t.Errorf("n=%d >= %d windows: got a new ring of %d, want the input", n, len(ws), len(out))
		}
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
