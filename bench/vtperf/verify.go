package main

// Golden outputs and the checks a pass's artifacts go through.
//
// A job set's golden is two files under bench/golden/: the normalised
// tables an exact single-process sweep prints, and the sorted multiset
// of "workload/variant cycles" lines from its completion journal, headed
// by the job count and cycle sum. -update-golden is the only writer.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type golden struct {
	Tables   string
	Cycles   []string // sorted "workload/variant cycles"
	Jobs     int
	CycleSum int64
}

// timingLines are the table-output lines that report timing or fleet
// bookkeeping, not results; the CI drills drop the same ones.
var timingLines = []string{"total wall time", "checkpoints:", "fleet:"}

func normalizeTables(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.ReplaceAll(s, "\r\n", "\n"), "\n") {
		drop := false
		for _, p := range timingLines {
			drop = drop || strings.HasPrefix(line, p)
		}
		if !drop {
			b.WriteString(strings.TrimRight(line, " \t"))
			b.WriteByte('\n')
		}
	}
	return strings.TrimRight(b.String(), "\n") + "\n"
}

// cycleLines renders journal entries as the sorted multiset the golden
// stores. Job names repeat across experiments, so it is a multiset.
func cycleLines(js []journalEntry) (lines []string, sum int64) {
	for _, e := range js {
		lines = append(lines, fmt.Sprintf("%s %d", e.job(), e.Cycles))
		sum += e.Cycles
	}
	sort.Strings(lines)
	return lines, sum
}

func goldenPaths(dir, set string) (tables, cycles string) {
	return filepath.Join(dir, set+".tables.txt"), filepath.Join(dir, set+".cycles.txt")
}

func loadGolden(dir, set string) (*golden, error) {
	tp, cp := goldenPaths(dir, set)
	tb, err := os.ReadFile(tp)
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w (regenerate with -update-golden)", set, err)
	}
	cb, err := os.ReadFile(cp)
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w (regenerate with -update-golden)", set, err)
	}
	g := &golden{Tables: string(tb)}
	headJobs, headSum := -1, int64(-1)
	for _, line := range strings.Split(strings.TrimSpace(string(cb)), "\n") {
		if strings.HasPrefix(line, "#") {
			if _, err := fmt.Sscanf(line, "# jobs %d cycle_sum %d", &headJobs, &headSum); err != nil {
				return nil, fmt.Errorf("golden %s: header %q: %w", set, line, err)
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("golden %s: malformed line %q", set, line)
		}
		c, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %q: %w", set, line, err)
		}
		g.Cycles = append(g.Cycles, line)
		g.CycleSum += c
	}
	g.Jobs = len(g.Cycles)
	if headJobs != g.Jobs || headSum != g.CycleSum {
		return nil, fmt.Errorf("golden %s: header says %d jobs / %d cycles, lines give %d / %d",
			set, headJobs, headSum, g.Jobs, g.CycleSum)
	}
	return g, nil
}

func writeGolden(dir, set, tables string, js []journalEntry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lines, sum := cycleLines(js)
	tp, cp := goldenPaths(dir, set)
	if err := os.WriteFile(tp, []byte(normalizeTables(tables)), 0o644); err != nil {
		return err
	}
	body := fmt.Sprintf("# jobs %d cycle_sum %d\n%s\n", len(lines), sum, strings.Join(lines, "\n"))
	return os.WriteFile(cp, []byte(body), 0o644)
}

// exactCycles maps job → cycles for a golden whose job names are unique
// (a single experiment); it is the reference a sampled pass is measured
// against.
func (g *golden) exactCycles() (map[string]int64, error) {
	m := map[string]int64{}
	for _, line := range g.Cycles {
		i := strings.LastIndexByte(line, ' ')
		c, _ := strconv.ParseInt(line[i+1:], 10, 64)
		if _, dup := m[line[:i]]; dup {
			return nil, fmt.Errorf("job %s appears twice: not a single-experiment golden", line[:i])
		}
		m[line[:i]] = c
	}
	return m, nil
}

// verdict is what checking one pass yields.
type verdict struct {
	Attempted int
	Failed    int
	// MaxErrPct is the largest |cycles − exact| ÷ exact over the pass's
	// jobs, in percent; 0 on an exact workload that verifies.
	MaxErrPct float64
	// Problems are human-readable reasons the pass is not correct; a
	// table mismatch carries a unified diff.
	Problems []string
	// Sampled accuracy detail (sampled workloads only).
	ErrPct     []float64
	BoundCover float64
	MaxBound   float64
}

func (v *verdict) correct() bool { return v.Failed == 0 && len(v.Problems) == 0 }

func countNotOK(js []journalEntry) int {
	n := 0
	for _, e := range js {
		if e.Status != "ok" {
			n++
		}
	}
	return n
}

// multisetMissing counts the lines of want that got lacks.
func multisetMissing(want, got []string) int {
	have := map[string]int{}
	for _, l := range got {
		have[l]++
	}
	missing := 0
	for _, l := range want {
		if have[l] > 0 {
			have[l]--
		} else {
			missing++
		}
	}
	return missing
}

// verifyExact checks an exact pass: every golden job is present with
// its golden cycle count in each journal, no job reported a failure,
// and the tables equal the golden tables.
func verifyExact(g *golden, tables string, journals map[string][]journalEntry, reportedFailed int) verdict {
	v := verdict{Attempted: g.Jobs, Failed: reportedFailed}
	for name, js := range journals {
		got, _ := cycleLines(js)
		bad := multisetMissing(g.Cycles, got) + countNotOK(js)
		if extra := len(got) - g.Jobs; extra > 0 {
			bad += extra
		}
		if bad > 0 {
			v.Problems = append(v.Problems, fmt.Sprintf("%s: %d of %d jobs missing, failed or off the golden cycle count", name, bad, g.Jobs))
		}
		v.Failed = max(v.Failed, bad)
	}
	if got := normalizeTables(tables); got != g.Tables {
		v.Problems = append(v.Problems, "tables differ from golden:\n"+firstBlockDiff(g.Tables, got))
		if v.Failed == 0 {
			// The journal agrees but a printed number does not: at
			// least one result is wrong even if no job can be blamed.
			v.Failed = 1
		}
	}
	v.Failed = min(v.Failed, v.Attempted)
	return v
}

// verifySampled checks a sampled pass against the exact golden of the
// same job set: every job present and ok, every table row flagged
// sampled, and the measured error recorded. A job whose measured error
// exceeds its own reported bound is reported in BoundCover, not as a
// failure: the benchmark's workloads are ones on which nothing fails,
// and today's error model misses its bound on some jobs.
func verifySampled(g *golden, tables string, js []journalEntry, reportedFailed int) verdict {
	v := verdict{Attempted: g.Jobs, Failed: reportedFailed + countNotOK(js)}
	exact, err := g.exactCycles()
	if err != nil {
		v.Problems = append(v.Problems, err.Error())
		return v
	}
	covered := 0
	seen := map[string]bool{}
	for _, e := range js {
		want, ok := exact[e.job()]
		if !ok || seen[e.job()] {
			v.Problems = append(v.Problems, "unexpected job "+e.job())
			continue
		}
		seen[e.job()] = true
		errFrac := math.Abs(float64(e.Cycles-want)) / float64(want)
		v.ErrPct = append(v.ErrPct, 100*errFrac)
		v.MaxErrPct = max(v.MaxErrPct, 100*errFrac)
		v.MaxBound = max(v.MaxBound, 100*e.ErrorBound)
		if e.ErrorBound <= 0 {
			v.Problems = append(v.Problems, e.job()+": sampled run carries no error bound")
			v.Failed++
		} else if errFrac <= e.ErrorBound {
			covered++
		}
	}
	if missing := g.Jobs - len(seen); missing > 0 {
		v.Failed += missing
		v.Problems = append(v.Problems, fmt.Sprintf("%d of %d jobs missing from the journal", missing, g.Jobs))
	}
	if n := len(v.ErrPct); n > 0 {
		v.BoundCover = float64(covered) / float64(n)
	}
	rows, flagged := sampledRows(tables)
	if rows == 0 || flagged != rows {
		v.Failed += max(rows-flagged, 1)
		v.Problems = append(v.Problems, fmt.Sprintf("%d of %d table rows flagged sampled", flagged, rows))
	}
	v.Failed = min(v.Failed, v.Attempted)
	return v
}

// verifyStructure is the smoke-mode check, used when no golden exists
// for the diluted job set: the sweep reported jobs and none failed.
func verifyStructure(js []journalEntry, reportedFailed int) verdict {
	v := verdict{Attempted: len(js), Failed: reportedFailed + countNotOK(js)}
	if v.Attempted == 0 {
		v.Attempted = 1
		v.Failed = 1
		v.Problems = append(v.Problems, "journal records no jobs")
	}
	v.Failed = min(v.Failed, v.Attempted)
	return v
}

// sampledRows counts the data rows of tables whose header ends in a
// "sampled" column, and how many of them say yes.
func sampledRows(tables string) (rows, flagged int) {
	inTable := false
	for _, line := range strings.Split(tables, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[len(f)-1] == "sampled" && !strings.HasPrefix(line, " "):
			inTable = true
		case len(f) == 0 || strings.HasPrefix(line, " "):
			inTable = false
		case inTable && !strings.HasPrefix(line, "---"):
			rows++
			if f[len(f)-1] == "yes" {
				flagged++
			}
		}
	}
	return rows, flagged
}

// splitBlocks cuts table output at experiment ("### ") and table
// ("== ") headings.
func splitBlocks(s string) [][]string {
	var blocks [][]string
	var cur []string
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		if (strings.HasPrefix(line, "### ") || strings.HasPrefix(line, "== ")) && len(cur) > 0 {
			blocks = append(blocks, cur)
			cur = nil
		}
		cur = append(cur, line)
	}
	return append(blocks, cur)
}

// firstBlockDiff is a unified diff of the first block in which want and
// got differ.
func firstBlockDiff(want, got string) string {
	wb, gb := splitBlocks(want), splitBlocks(got)
	for i := 0; i < len(wb) || i < len(gb); i++ {
		var w, g []string
		if i < len(wb) {
			w = wb[i]
		}
		if i < len(gb) {
			g = gb[i]
		}
		if strings.Join(w, "\n") != strings.Join(g, "\n") {
			return unifiedDiff(w, g)
		}
	}
	return "(no differing block)"
}

// unifiedDiff renders a line diff of a → b from their longest common
// subsequence; blocks are a few dozen lines, so the quadratic table is
// small.
func unifiedDiff(a, b []string) string {
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var out strings.Builder
	out.WriteString("--- golden\n+++ got\n")
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			out.WriteString("  " + a[i] + "\n")
			i, j = i+1, j+1
		case i < len(a) && (j == len(b) || lcs[i+1][j] >= lcs[i][j+1]):
			out.WriteString("- " + a[i] + "\n")
			i++
		default:
			out.WriteString("+ " + b[j] + "\n")
			j++
		}
	}
	return out.String()
}
