// Package stats provides the small numeric and formatting utilities the
// evaluation harness uses: aligned text tables (the simulator's "figures"
// are printed as labeled data series), and mean/geomean helpers for the
// cross-benchmark summaries the paper reports.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is an aligned text table with a title and optional note lines.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
	notes   []string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Row appends a row; cells beyond the header count are kept (the widest
// row wins during layout).
func (t *Table) Row(cells ...string) *Table {
	t.rows = append(t.rows, cells)
	return t
}

// Rowf appends a row of formatted cells: each argument is rendered with
// %v, floats with three decimals.
func (t *Table) Rowf(cells ...any) *Table {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			out[i] = F3(v)
		case float32:
			out[i] = F3(float64(v))
		default:
			out[i] = fmt.Sprintf("%v", c)
		}
	}
	return t.Row(out...)
}

// Note appends a footnote line printed under the table.
func (t *Table) Note(format string, args ...any) *Table {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
	return t
}

// MarkSampled appends a trailing "sampled" column flagging every row as
// produced by interval/sampled simulation, plus a footnote naming the
// window configuration, so a figure can never silently mix sampled and
// exact numbers. Call after the last Row; the flag lands in the text and
// CSV renderings alike.
func (t *Table) MarkSampled(cfg string) *Table {
	if len(t.headers) > 0 {
		t.headers = append(t.headers, "sampled")
	}
	for i := range t.rows {
		t.rows[i] = append(t.rows[i], "yes")
	}
	return t.Note("sampled (%s): cycle-derived values are extrapolations within the reported error bound", cfg)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}

	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	printRow := func(r []string) {
		parts := make([]string, 0, len(r))
		for i, c := range r {
			if i < len(r)-1 {
				parts = append(parts, pad(c, width[i]))
			} else {
				parts = append(parts, c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	if len(t.headers) > 0 {
		printRow(t.headers)
		total := 0
		for _, wd := range width {
			total += wd
		}
		fmt.Fprintln(w, strings.Repeat("-", total+2*(cols-1)))
	}
	for _, r := range t.rows {
		printRow(r)
	}
	for _, n := range t.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// F3 formats a float with three decimals.
func F3(v float64) string { return fmt.Sprintf("%.3f", v) }

// Pct formats a ratio as a signed percentage ("+23.9%").
func Pct(ratio float64) string { return fmt.Sprintf("%+.1f%%", (ratio-1)*100) }

// Mean returns the arithmetic mean, or 0 for an empty slice (so an
// empty experiment row renders as 0 rather than NaN). A single-element
// slice returns that element. Pinned by TestMeanEdgeCases.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean, or 0 for an empty slice. Values
// must be positive: a zero value collapses the whole mean to 0 (its log
// is -Inf) and a negative value yields NaN — both sentinel outcomes
// rather than silently plausible numbers, so a bad speedup ratio slipped
// into a table is visible. A single-element slice returns that element.
// These semantics are pinned by TestGeoMeanEdgeCases.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// WriteCSV renders the table as RFC-4180-ish CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if len(t.headers) > 0 {
		if err := writeRow(t.headers); err != nil {
			return err
		}
	}
	for _, r := range t.rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// Slug converts a title to a filesystem-friendly name.
func Slug(s string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			sb.WriteRune(r)
		case sb.Len() > 0 && sb.String()[sb.Len()-1] != '-':
			sb.WriteByte('-')
		}
	}
	return strings.Trim(sb.String(), "-")
}
