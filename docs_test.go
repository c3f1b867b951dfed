package vtsim

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/harness"
)

// The hand-written docs: README, DESIGN, EXPERIMENTS and docs/*.md.
// bench/README.md, the records under docs/records, ROADMAP and CHANGES
// are left out: the first is the benchmark's own catalogue, the others
// are history, which may name what no longer exists.
func docFiles(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{}
	for _, f := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		docs[f] = string(b)
	}
	return docs
}

// prose is a doc with its fenced code blocks blanked out, so that only
// inline code spans remain backticked; fenced returns the blocks' lines.
func prose(doc string) (text string, fenced []string) {
	var out []string
	in := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			in = !in
			out = append(out, "")
			continue
		}
		if in {
			fenced = append(fenced, line)
			line = ""
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n"), fenced
}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	repoPath = regexp.MustCompile(`^(\./)?(internal|cmd|bench|docs|examples|\.github)/`)
	lineRef  = regexp.MustCompile(`:\d+(-\d+)?$`)
	testName = regexp.MustCompile(`^([a-z/]+:)?((Test|Benchmark)\w*)(/\S*)?$`)
	testFunc = regexp.MustCompile(`(?m)^func ((Test|Benchmark)\w*)\(`)
)

// TestDocReferences: every backticked repo path in the docs exists, and
// every backticked test or benchmark name is a func in some _test.go of
// the module or of bench/. A path with a glob or a placeholder in it is
// not checked.
func TestDocReferences(t *testing.T) {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllStringSubmatch(string(b), -1) {
			funcs[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range docFiles(t) {
		text, _ := prose(doc)
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			span := strings.TrimSpace(m[1])
			if strings.ContainsAny(span, " \n\t") {
				continue
			}
			if repoPath.MatchString(span) && !strings.ContainsAny(span, "*?{}<>…") {
				p := lineRef.ReplaceAllString(strings.TrimPrefix(span, "./"), "")
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s: `%s` names no file or directory", name, span)
				}
			}
			if tm := testName.FindStringSubmatch(span); tm != nil && !funcs[tm[2]] {
				t.Errorf("%s: `%s`: no func %s in any _test.go", name, span, tm[2])
			}
		}
	}
}

// layoutDirs returns the cmd/* and internal/* directories a fenced listing
// names as the first field of a line.
func layoutDirs(lines []string) []string {
	var dirs []string
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		d := strings.TrimSuffix(f[0], "/")
		if (strings.HasPrefix(d, "cmd/") || strings.HasPrefix(d, "internal/")) && strings.Count(d, "/") == 1 {
			dirs = append(dirs, d)
		}
	}
	return dirs
}

// TestDocLayout: DESIGN.md §6 is the one repository layout listing. It
// names every directory under cmd/ and internal/ and nothing else, and no
// other doc carries a second listing.
func TestDocLayout(t *testing.T) {
	var want []string
	for _, parent := range []string{"cmd", "internal"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				want = append(want, parent+"/"+e.Name())
			}
		}
	}
	docs := docFiles(t)
	design := docs["DESIGN.md"]
	start := strings.Index(design, "\n## 6. Repository layout\n")
	if start < 0 {
		t.Fatal("DESIGN.md has no \"## 6. Repository layout\" section")
	}
	section := design[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	_, fenced := prose(section)
	got := layoutDirs(fenced)
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("DESIGN.md §6 lists\n  %v\nthe tree holds\n  %v", got, want)
	}
	for name, doc := range docs {
		if name == "DESIGN.md" {
			doc = strings.Replace(doc, section, "", 1)
		}
		if _, fenced := prose(doc); len(layoutDirs(fenced)) >= 3 {
			t.Errorf("%s carries a second layout listing (%v); DESIGN.md §6 is the one", name, layoutDirs(fenced))
		}
	}
}

// TestDocSummaryValues: for each static experiment, whose table depends
// only on the GTX 480 profile and the suite, EXPERIMENTS.md's Summary row
// quotes every named value of the reduced table as the table prints it.
func TestDocSummaryValues(t *testing.T) {
	doc := docFiles(t)["EXPERIMENTS.md"]
	for _, id := range []string{"table1-config", "table2-benchmarks", "fig-limiter", "table-hw"} {
		e, err := harness.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		start := strings.Index(doc, "\n| `"+id+"` |")
		if start < 0 {
			t.Errorf("EXPERIMENTS.md has no Summary row for %s", id)
			continue
		}
		row, _, _ := strings.Cut(doc[start+1:], "\n")
		tb := e.Reduce(harness.DefaultParams(), nil)
		for name, v := range tb.Values() {
			if !strings.Contains(row, v.String()) {
				t.Errorf("EXPERIMENTS.md's %s row does not quote %s = %s:\n%s", id, name, v, row)
			}
		}
	}
}
