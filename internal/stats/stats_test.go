package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.Row("alpha", "1")
	tb.Rowf("beta", 2.5)
	tb.Note("footnote %d", 7)
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

func TestTableMarkSampled(t *testing.T) {
	tb := NewTable("fig", "workload", "speedup")
	tb.Row("nw", "1.2")
	tb.Row("bfs", "1.1")
	tb.MarkSampled("100:1000:25")
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

func TestFormatters(t *testing.T) {
	if F3(1.23456) != "1.235" {
		t.Errorf("F3 = %q", F3(1.23456))
	}
	if Pct(1.239) != "+23.9%" {
		t.Errorf("Pct = %q", Pct(1.239))
	}
	if Pct(0.95) != "-5.0%" {
		t.Errorf("Pct = %q", Pct(0.95))
	}
}

func TestWriteCSV(t *testing.T) {
	tb := NewTable("demo table", "name", "value")
	tb.Row("a,b", `say "hi"`)
	tb.Rowf("plain", 1.5)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "name,value\n\"a,b\",\"say \"\"hi\"\"\"\nplain,1.500\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

func TestSlug(t *testing.T) {
	if got := Slug("VT speedup vs swap latency"); got != "vt-speedup-vs-swap-latency" {
		t.Fatalf("slug = %q", got)
	}
	if got := Slug("  --Weird__ 42 !!"); got != "weird-42" {
		t.Fatalf("slug = %q", got)
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
