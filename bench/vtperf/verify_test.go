package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNormalizeTables(t *testing.T) {
	in := "== t ==  \r\na  b\t\n\ntotal wall time: 1.2s\ncheckpoints: 6 captured\nfleet: 2 workers\nsupervisor: 1 failed runs\n\n\n"
	want := "== t ==\na  b\n\nsupervisor: 1 failed runs\n"
	if got := normalizeTables(in); got != want {
		t.Errorf("normalizeTables = %q, want %q", got, want)
	}
}

func entries(lines ...string) []journalEntry {
	var out []journalEntry
	for i, l := range lines {
		f := strings.Fields(l) // workload variant cycles [status] [bound]
		e := journalEntry{FP: string(rune('a' + i)), Workload: f[0], Variant: f[1], Status: "ok"}
		e.Cycles = atoi(f[2])
		if len(f) > 3 {
			e.Status = f[3]
		}
		if len(f) > 4 {
			e.ErrorBound = float64(atoi(f[4])) / 100
		}
		out = append(out, e)
	}
	return out
}

func atoi(s string) int64 {
	var n int64
	for _, c := range s {
		n = n*10 + int64(c-'0')
	}
	return n
}

func TestGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	js := entries("nw vt 20", "bfs vt 10", "nw vt 30")
	if err := writeGolden(dir, "set", "== t ==\nrow\ntotal wall time: 1s\n", js); err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden(dir, "set")
	if err != nil {
		t.Fatal(err)
	}
	if g.Jobs != 3 || g.CycleSum != 60 || g.Tables != "== t ==\nrow\n" ||
		strings.Join(g.Cycles, ",") != "bfs/vt 10,nw/vt 20,nw/vt 30" {
		t.Errorf("golden = %+v", g)
	}
	if _, err := g.exactCycles(); err == nil {
		t.Error("duplicate job names accepted as a single-experiment golden")
	}
	// A hand-edited cycles file no longer matches its header.
	_, cp := goldenPaths(dir, "set")
	b, _ := os.ReadFile(cp)
	os.WriteFile(cp, []byte(strings.Replace(string(b), "nw/vt 30", "nw/vt 31", 1)), 0o644)
	if _, err := loadGolden(dir, "set"); err == nil {
		t.Error("golden with a stale header loaded")
	}
	if _, err := loadGolden(filepath.Join(dir, "none"), "set"); err == nil {
		t.Error("missing golden loaded")
	}
}

func TestVerifyExact(t *testing.T) {
	tables := "== a ==\nx 1\n\n== b ==\ny 2\nz 3\n"
	good := entries("bfs vt 10", "nw vt 20")
	lines, sum := cycleLines(good)
	g := &golden{Tables: tables, Cycles: lines, Jobs: 2, CycleSum: sum}
	cases := []struct {
		name       string
		tables     string
		journals   map[string][]journalEntry
		reported   int
		wantFailed int
		wantDiff   string
	}{
		{"identical", tables + "total wall time: 9s\n", map[string][]journalEntry{"journal": good, "mirror journal": good}, 0, 0, ""},
		{"job order does not matter", tables, map[string][]journalEntry{"journal": entries("nw vt 20", "bfs vt 10")}, 0, 0, ""},
		{"wrong cycle count", tables, map[string][]journalEntry{"journal": entries("bfs vt 10", "nw vt 21")}, 0, 1, ""},
		{"missing job", tables, map[string][]journalEntry{"journal": entries("bfs vt 10")}, 0, 1, ""},
		{"failed status", tables, map[string][]journalEntry{"journal": entries("bfs vt 10", "nw vt 20 failed")}, 1, 1, ""},
		{"mirror diverges", tables, map[string][]journalEntry{"journal": good, "mirror journal": entries("bfs vt 10")}, 0, 1, ""},
		{"extra job", tables, map[string][]journalEntry{"journal": entries("bfs vt 10", "nw vt 20", "nw vt 20")}, 0, 1, ""},
		{"table differs", "== a ==\nx 1\n\n== b ==\ny 2\nz 4\n", map[string][]journalEntry{"journal": good}, 0, 1, "- z 3\n+ z 4\n"},
	}
	for _, c := range cases {
		v := verifyExact(g, c.tables, c.journals, c.reported)
		if v.Attempted != 2 || v.Failed != c.wantFailed || v.correct() != (c.wantFailed == 0) {
			t.Errorf("%s: attempted %d failed %d correct %v problems %v", c.name, v.Attempted, v.Failed, v.correct(), v.Problems)
		}
		if c.wantDiff != "" {
			all := strings.Join(v.Problems, "\n")
			if !strings.Contains(all, c.wantDiff) || strings.Contains(all, "x 1") {
				t.Errorf("%s: diff should show only the first mismatching table:\n%s", c.name, all)
			}
		}
	}
}

const sampledTables = `== VT speedup vs swap latency ==
workload    lat=0  lat=8  sampled
---------------------------------
bfs         1.416  1.428  yes
geomean     1.563  1.504  yes
  note: sampled (4000:8000:1000): cycle-derived values are extrapolations within the reported error bound

total wall time: 5.696s
sampling 4000:8000:1000: 48 sampled runs
`

func TestVerifySampled(t *testing.T) {
	exact := entries("bfs baseline 1000", "bfs lat0 2000")
	lines, sum := cycleLines(exact)
	g := &golden{Cycles: lines, Jobs: 2, CycleSum: sum}
	cases := []struct {
		name       string
		tables     string
		js         []journalEntry
		wantFailed int
		wantErr    float64
		wantCover  float64
	}{
		{"within bound", sampledTables, entries("bfs baseline 1010 ok 2", "bfs lat0 2000 ok 1"), 0, 1, 1},
		{"bound missed is reported, not failed", sampledTables, entries("bfs baseline 1100 ok 2", "bfs lat0 2000 ok 1"), 0, 10, 0.5},
		{"no bound on a sampled run", sampledTables, entries("bfs baseline 1000 ok 0", "bfs lat0 2000 ok 1"), 1, 0, 0.5},
		{"job missing", sampledTables, entries("bfs baseline 1000 ok 2"), 1, 0, 1},
		{"job failed", sampledTables, entries("bfs baseline 1000 failed 2", "bfs lat0 2000 ok 1"), 1, 0, 1},
		{"row not flagged", strings.Replace(sampledTables, "1.428  yes", "1.428  no", 1), entries("bfs baseline 1000 ok 2", "bfs lat0 2000 ok 1"), 1, 0, 1},
		{"exact tables passed off as sampled", "== t ==\nworkload lat=0\n---\nbfs 1.4\n", entries("bfs baseline 1000 ok 2", "bfs lat0 2000 ok 1"), 1, 0, 1},
	}
	for _, c := range cases {
		v := verifySampled(g, c.tables, c.js, 0)
		if v.Failed != c.wantFailed || !near(v.MaxErrPct, c.wantErr) || !near(v.BoundCover, c.wantCover) {
			t.Errorf("%s: failed %d maxErr %v cover %v problems %v", c.name, v.Failed, v.MaxErrPct, v.BoundCover, v.Problems)
		}
	}
	if rows, flagged := sampledRows(sampledTables); rows != 2 || flagged != 2 {
		t.Errorf("sampledRows = %d, %d", rows, flagged)
	}
}

func TestVerifyStructure(t *testing.T) {
	if v := verifyStructure(entries("bfs vt 10", "nw vt 20"), 0); !v.correct() || v.Attempted != 2 {
		t.Errorf("clean = %+v", v)
	}
	if v := verifyStructure(entries("bfs vt 10 failed"), 1); v.correct() || v.Failed != 1 {
		t.Errorf("failed job = %+v", v)
	}
	if v := verifyStructure(nil, 0); v.correct() || v.Attempted < 1 {
		t.Errorf("empty journal = %+v", v)
	}
}

func TestUnifiedDiff(t *testing.T) {
	got := unifiedDiff([]string{"a", "b", "c"}, []string{"a", "x", "c", "d"})
	want := "--- golden\n+++ got\n  a\n- b\n+ x\n  c\n+ d\n"
	if got != want {
		t.Errorf("diff = %q, want %q", got, want)
	}
	if d := firstBlockDiff("== a ==\n1\n", "== a ==\n1\n"); !strings.Contains(d, "no differing") {
		t.Errorf("equal inputs diffed: %q", d)
	}
}
