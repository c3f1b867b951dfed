package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.Row("alpha", 1)
	tb.Row("beta", 2.5)
	tb.Note("footnote {n}", 7)
	out := tb.String()
	for _, want := range []string{"== demo ==", "name", "alpha", "beta", "2.500", "note: footnote 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns align: "alpha" and "beta " share a column width.
	lines := strings.Split(out, "\n")
	var alphaLine, betaLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "alpha") {
			alphaLine = l
		}
		if strings.HasPrefix(l, "beta") {
			betaLine = l
		}
	}
	if strings.Index(alphaLine, "1") != strings.Index(betaLine, "2.500") {
		t.Errorf("columns misaligned:\n%q\n%q", alphaLine, betaLine)
	}
}

// TestTableMarkSampled: a table whose values were simulated sampled
// prints, and writes as CSV, a "sampled" column flagging every row plus a
// note naming the window configuration.
func TestTableMarkSampled(t *testing.T) {
	tb := NewTable("fig", "workload", "speedup")
	tb.Row("nw", 1.2)
	tb.Row("bfs", 1.1)
	tb.Sampled = "100:1000:25"
	out := tb.String()
	for _, want := range []string{"sampled", "100:1000:25", "extrapolations"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Every data row carries the flag cell.
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "nw") || strings.HasPrefix(l, "bfs") {
			if !strings.HasSuffix(strings.TrimRight(l, " "), "yes") {
				t.Errorf("row not flagged: %q", l)
			}
		}
	}
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "workload,speedup,sampled\nnw,1.200,yes\nbfs,1.100,yes\n"; sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("ragged", "a")
	tb.Row("x", "extra", "more")
	out := tb.String()
	if !strings.Contains(out, "more") {
		t.Error("extra cells dropped")
	}
}

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 || GeoMean(nil) != 0 {
		t.Error("empty means must be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean = %v", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean = %v", got)
	}
}

// TestFormatters pins how each kind of value prints: the one place a
// number becomes text.
func TestFormatters(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{1.23456, "1.235"},
		{42, "42"},
		{int64(-7), "-7"},
		{true, "true"},
		{"a label", "a label"},
		{Fixed(2.5, 1), "2.5"},
		{Fixed(937.5, 2), "937.50"},
		{Percent(0.46, 0), "46%"},
		{Percent(0.123, 1), "12.3%"},
		{Gain(1.239), "+23.9%"},
		{Gain(0.95), "-5.0%"},
		{None, "-"},
	} {
		if got := cellOf(c.v).String(); got != c.want {
			t.Errorf("%#v prints %q, want %q", c.v, got, c.want)
		}
	}
}

// TestNamedValues: every {name} in a note is a value the table keeps as
// computed and prints in its cell's form; a name seen before prints the
// same value again.
func TestNamedValues(t *testing.T) {
	tb := NewTable("fig", "workload", "speedup")
	tb.Note("mean {mean} of {n} workloads", Gain(1.154), 22)
	tb.Note("again: {n} workloads")
	vals := tb.Values()
	if c := vals["mean"]; c.Num() != 1.154 || c.String() != "+15.4%" {
		t.Errorf("mean = %v printed %q, want 1.154 printed +15.4%%", c.Num(), c.String())
	}
	if len(vals) != 2 || vals["n"].Num() != 22 {
		t.Errorf("values = %v, want mean and n = 22", vals)
	}
	out := tb.String()
	for _, want := range []string{"note: mean +15.4% of 22 workloads\n", "note: again: 22 workloads\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, bad := range []func(){
		func() { NewTable("x").Note("{a} and {b}", 1) },
		func() { NewTable("x").Note("{a}", 1, 2) },
		func() { NewTable("x").Row(struct{}{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a mismatched note or an untyped value did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestWriteCSV(t *testing.T) {
	tb := NewTable("demo table", "name", "value, unit")
	tb.Row("a,b", `say "hi"`)
	tb.Row("plain", 1.5)
	want := "name,\"value, unit\"\n\"a,b\",\"say \"\"hi\"\"\"\nplain,1.500\n"
	for range 2 { // quoting leaves the table as it was
		var sb strings.Builder
		if err := tb.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		if sb.String() != want {
			t.Fatalf("csv = %q, want %q", sb.String(), want)
		}
	}
}

// TestMeanEdgeCases pins Mean's documented semantics: empty -> 0 (not
// NaN), single element -> itself, zeros are ordinary values.
func TestMeanEdgeCases(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{}); got != 0 {
		t.Errorf("Mean(empty) = %v, want 0", got)
	}
	if got := Mean([]float64{3.5}); got != 3.5 {
		t.Errorf("Mean(single) = %v, want 3.5", got)
	}
	if got := Mean([]float64{0, 0, 0}); got != 0 {
		t.Errorf("Mean(zeros) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean(1,2,3) = %v, want 2", got)
	}
}

// TestGeoMeanEdgeCases pins GeoMean's documented semantics: empty -> 0,
// single element -> itself, any zero collapses the mean to 0, and a
// negative value yields NaN — sentinels, not plausible-looking numbers.
func TestGeoMeanEdgeCases(t *testing.T) {
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	if got := GeoMean([]float64{}); got != 0 {
		t.Errorf("GeoMean(empty) = %v, want 0", got)
	}
	if got := GeoMean([]float64{4.2}); math.Abs(got-4.2) > 1e-12 {
		t.Errorf("GeoMean(single) = %v, want 4.2", got)
	}
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{1, 0, 100}); got != 0 {
		t.Errorf("GeoMean with a zero = %v, want 0 (log-collapse sentinel)", got)
	}
	if got := GeoMean([]float64{2, -3}); !math.IsNaN(got) {
		t.Errorf("GeoMean with a negative = %v, want NaN sentinel", got)
	}
}
