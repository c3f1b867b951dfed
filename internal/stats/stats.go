// Package stats provides the tables the evaluation harness prints (the
// simulator's "figures" are labeled data series) and the mean/geomean
// helpers of the paper's cross-benchmark summaries. A table keeps each
// value as computed — a ratio, not its rendered percent — and one
// renderer decides how it becomes text, in the aligned text and the CSV.
package stats

import (
	"fmt"
	"io"
	"maps"
	"math"
	"reflect"
	"regexp"
	"strconv"
	"strings"
)

// form is how a cell's value becomes text.
type form uint8

const (
	label   form = iota // the text as given
	fixed               // the number with a fixed count of decimals: "1.235", "15"
	percent             // a fraction as a percentage: 0.46 → "46%"
	gain                // a ratio as a signed percent change: 1.154 → "+15.4%"
)

// Cell is one table value: a number kept as computed, or label text, and
// the form it prints in. Integers are exact below 2^53.
type Cell struct {
	num    float64
	text   string
	form   form
	digits int
}

// Fixed is v printed with digits decimals.
func Fixed(v float64, digits int) Cell { return Cell{num: v, form: fixed, digits: digits} }

// Percent is a fraction printed as a percentage with digits decimals
// (0.46 → "46%").
func Percent(frac float64, digits int) Cell { return Cell{num: frac, form: percent, digits: digits} }

// Gain is a ratio printed as a signed percent change (1.239 → "+23.9%").
func Gain(ratio float64) Cell { return Cell{num: ratio, form: gain} }

// None is the cell of a value that does not exist; it prints "-".
var None = Cell{text: "-"}

// cellOf types a raw value: a string is a label, a bool a true/false
// label, an integer prints whole and a float with three decimals; a Cell
// stays as it is.
func cellOf(x any) Cell {
	switch v := x.(type) {
	case Cell:
		return v
	case string:
		return Cell{text: v}
	case bool:
		return Cell{text: strconv.FormatBool(v)}
	case float64:
		return Fixed(v, 3)
	}
	if v := reflect.ValueOf(x); v.CanInt() {
		return Fixed(float64(v.Int()), 0)
	}
	panic(fmt.Sprintf("stats: a %T is not a table value", x))
}

// Num returns the value as computed — the ratio behind a percent — or 0
// for a label.
func (c Cell) Num() float64 { return c.num }

// String renders the cell as the table prints it.
func (c Cell) String() string {
	switch c.form {
	case fixed:
		return strconv.FormatFloat(c.num, 'f', c.digits, 64)
	case percent:
		return strconv.FormatFloat(c.num*100, 'f', c.digits, 64) + "%"
	case gain:
		return fmt.Sprintf("%+.1f%%", (c.num-1)*100)
	}
	return c.text
}

// Table is an aligned table of typed cells with a title, optional note
// lines, and the named summary values its notes print.
type Table struct {
	Title string
	// Sampled, when set, names the sampling configuration the table's
	// values were simulated under. The renderer then adds a "sampled"
	// column flagging every row and a note naming the configuration, so a
	// figure can never silently mix sampled and exact numbers.
	Sampled string
	headers []string
	rows    [][]Cell
	notes   []string
	values  map[string]Cell
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers, values: map[string]Cell{}}
}

// Row appends a row of values, each typed as a Cell or as cellOf says;
// cells beyond the header count are kept (the widest row wins during
// layout).
func (t *Table) Row(vals ...any) *Table {
	r := make([]Cell, len(vals))
	for i, v := range vals {
		r[i] = cellOf(v)
	}
	t.rows = append(t.rows, r)
	return t
}

// placeholder is a {name} in a note.
var placeholder = regexp.MustCompile(`\{(\w+)\}`)

// Note appends a footnote printed under the table. Each {name} in text
// is a named summary value: a name the table does not hold yet takes the
// next of vals (typed as in Row), which Values then hands back, and every
// {name} prints its value as a cell would.
func (t *Table) Note(text string, vals ...any) *Table {
	for _, m := range placeholder.FindAllStringSubmatch(text, -1) {
		if _, ok := t.values[m[1]]; !ok {
			if len(vals) == 0 {
				panic(fmt.Sprintf("stats: note %q names more values than it is given", text))
			}
			t.values[m[1]], vals = cellOf(vals[0]), vals[1:]
		}
	}
	if len(vals) > 0 {
		panic(fmt.Sprintf("stats: note %q is given more values than it names", text))
	}
	t.notes = append(t.notes, text)
	return t
}

// Values returns t's named summary values by name, each as computed.
func (t *Table) Values() map[string]Cell { return maps.Clone(t.values) }

// grid is the one rendering of t's cells to text, for Fprint and
// WriteCSV alike: the header row (nil when t has none) and the body,
// both with the sampled column when t.Sampled is set.
func (t *Table) grid() (head []string, body [][]string) {
	head = append([]string(nil), t.headers...)
	if t.Sampled != "" && len(head) > 0 {
		head = append(head, "sampled")
	}
	for _, r := range t.rows {
		row := make([]string, len(r), len(r)+1)
		for i, c := range r {
			row[i] = c.String()
		}
		if t.Sampled != "" {
			row = append(row, "yes")
		}
		body = append(body, row)
	}
	return head, body
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	head, body := t.grid()
	var width []int // per column, the widest cell; the widest row sets the count
	for _, r := range append([][]string{head}, body...) {
		for i, c := range r {
			if i == len(width) {
				width = append(width, 0)
			}
			width[i] = max(width[i], len(c))
		}
	}

	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	printRow := func(r []string) {
		var sb strings.Builder
		for i, c := range r {
			sb.WriteString(c + strings.Repeat(" ", width[i]-len(c)+2))
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	if len(head) > 0 {
		printRow(head)
		total := 2 * (len(width) - 1)
		for _, wd := range width {
			total += wd
		}
		fmt.Fprintln(w, strings.Repeat("-", total))
	}
	for _, r := range body {
		printRow(r)
	}
	for _, n := range t.notes {
		n = placeholder.ReplaceAllStringFunc(n, func(m string) string { return t.values[m[1:len(m)-1]].String() })
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if t.Sampled != "" {
		fmt.Fprintf(w, "  note: sampled (%s): cycle-derived values are extrapolations within the reported error bound\n", t.Sampled)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// WriteCSV renders the table's header and rows as RFC-4180-ish CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	head, body := t.grid()
	if len(head) > 0 {
		body = append([][]string{head}, body...)
	}
	var sb strings.Builder
	for _, r := range body { // grid's own copies: quoting in place is safe
		for i, c := range r {
			if strings.ContainsAny(c, ",\"\n") {
				r[i] = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
		}
		sb.WriteString(strings.Join(r, ",") + "\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

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
