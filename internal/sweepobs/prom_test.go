package sweepobs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/testsupport"
)

// TestHistogramGolden pins the exposition text of the histogram writer:
// a labeled family (escaped label values, le merged into the block) and
// an unlabeled one, as the monitor's batch-size series is.
func TestHistogramGolden(t *testing.T) {
	var b strings.Builder
	WriteHeader(&b, "vtsweep_span_seconds", "histogram", "Span seconds.")
	h := NewHistogram([]float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	h.Write(&b, "vtsweep_span_seconds", Label("kind", "job"))
	odd := NewHistogram([]float64{0.1, 1})
	odd.Observe(1)
	odd.Write(&b, "vtsweep_span_seconds", Label("kind", "we\"ird\n"))
	WriteHeader(&b, "vtsweep_store_batch_txs", "histogram", "Transactions per batch.")
	batch := NewHistogram([]float64{1, 2, 4})
	batch.Observe(1)
	batch.Observe(3)
	batch.Observe(9)
	batch.Write(&b, "vtsweep_store_batch_txs", "")

	want := `# HELP vtsweep_span_seconds Span seconds.
# TYPE vtsweep_span_seconds histogram
vtsweep_span_seconds_bucket{kind="job",le="0.1"} 1
vtsweep_span_seconds_bucket{kind="job",le="1"} 2
vtsweep_span_seconds_bucket{kind="job",le="+Inf"} 3
vtsweep_span_seconds_sum{kind="job"} 5.55
vtsweep_span_seconds_count{kind="job"} 3
vtsweep_span_seconds_bucket{kind="we\"ird\n",le="0.1"} 0
vtsweep_span_seconds_bucket{kind="we\"ird\n",le="1"} 1
vtsweep_span_seconds_bucket{kind="we\"ird\n",le="+Inf"} 1
vtsweep_span_seconds_sum{kind="we\"ird\n"} 1
vtsweep_span_seconds_count{kind="we\"ird\n"} 1
# HELP vtsweep_store_batch_txs Transactions per batch.
# TYPE vtsweep_store_batch_txs histogram
vtsweep_store_batch_txs_bucket{le="1"} 1
vtsweep_store_batch_txs_bucket{le="2"} 1
vtsweep_store_batch_txs_bucket{le="4"} 2
vtsweep_store_batch_txs_bucket{le="+Inf"} 3
vtsweep_store_batch_txs_sum 13
vtsweep_store_batch_txs_count 3
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
	// The golden text must also survive the independent parser.
	samples, err := testsupport.ValidateExposition(b.String())
	if err != nil {
		t.Fatalf("golden exposition invalid: %v", err)
	}
	if samples["vtsweep_store_batch_txs_count"] != 3 || samples[`vtsweep_store_batch_txs_bucket{le="4"}`] != 2 {
		t.Fatalf("unlabeled histogram misparsed: %v", samples)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"duplicate HELP":     "# HELP a x\n# HELP a y\n# TYPE a counter\na 1\n",
		"duplicate TYPE":     "# HELP a x\n# TYPE a counter\n# TYPE a counter\na 1\n",
		"TYPE before HELP":   "# TYPE a counter\na 1\n",
		"sample before TYPE": "a 1\n",
		"duplicate sample":   "# HELP a x\n# TYPE a counter\na 1\na 2\n",
		"non-monotonic buckets": "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 3` + "\n" + `h_bucket{le="2"} 2` + "\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 3\n",
		"le not ascending": "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 2` + "\n" +
			`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 2\n",
		"missing +Inf": "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
		"count != +Inf": "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 3\n",
	}
	for name, text := range cases {
		if _, err := testsupport.ValidateExposition(text); err == nil {
			t.Errorf("%s: accepted invalid exposition", name)
		}
	}
}

func TestExpositionParsesCleanly(t *testing.T) {
	// The span histogram of a tracer after a few jobs, validated by the
	// independent parser.
	tr, clk := newTestTracer()
	for i := 0; i < 5; i++ {
		j := tr.BeginJob(0, "bfs", "vt")
		clk.advance(3 * time.Duration(i+1) * time.Millisecond)
		ex := tr.Begin(j, "execute", "bfs", "vt")
		clk.advance(2 * time.Millisecond)
		tr.End(ex)
		tr.EndJob(j)
	}
	var b strings.Builder
	if err := writeSpanSeconds(tr, &b); err != nil {
		t.Fatal(err)
	}
	samples, err := testsupport.ValidateExposition(b.String())
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, b.String())
	}
	if samples[`vtsweep_span_seconds_count{kind="job"}`] != 5 {
		t.Fatalf("job spans = %v, want 5\n%s", samples[`vtsweep_span_seconds_count{kind="job"}`], b.String())
	}
	if samples[`vtsweep_span_seconds_count{kind="execute"}`] != 5 {
		t.Fatalf("execute spans = %v, want 5", samples[`vtsweep_span_seconds_count{kind="execute"}`])
	}
}
