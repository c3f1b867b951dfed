package sweepobs

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vtsweep_runs_executed_total", "Runs executed.")
	c.Add(3)
	g := r.Gauge("vtsweep_active_jobs", "Jobs in flight.")
	g.Set(2)
	h := r.Histogram("vtsweep_span_seconds", "Span seconds.", []float64{0.1, 1})
	h.Observe(0.05, "kind", "job")
	h.Observe(0.5, "kind", "job")
	h.Observe(5, "kind", "job")
	byKind := r.Counter("vtsweep_runs_total", "Runs.")
	byKind.Add(2, "kind", "store.tx")
	byKind.Add(1, "kind", `we"ird`)
	// An unlabeled histogram, as the monitor's batch-size series is.
	batch := r.Histogram("vtsweep_store_batch_txs", "Transactions per batch.", []float64{1, 2, 4})
	batch.Observe(1)
	batch.Observe(3)
	batch.Observe(9)
	// Registered but never written to: must not emit HELP/TYPE.
	r.Counter("vtsweep_unused_total", "Never incremented.")

	var b strings.Builder
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP vtsweep_runs_executed_total Runs executed.
# TYPE vtsweep_runs_executed_total counter
vtsweep_runs_executed_total 3
# HELP vtsweep_active_jobs Jobs in flight.
# TYPE vtsweep_active_jobs gauge
vtsweep_active_jobs 2
# HELP vtsweep_span_seconds Span seconds.
# TYPE vtsweep_span_seconds histogram
vtsweep_span_seconds_bucket{kind="job",le="0.1"} 1
vtsweep_span_seconds_bucket{kind="job",le="1"} 2
vtsweep_span_seconds_bucket{kind="job",le="+Inf"} 3
vtsweep_span_seconds_sum{kind="job"} 5.55
vtsweep_span_seconds_count{kind="job"} 3
# HELP vtsweep_runs_total Runs.
# TYPE vtsweep_runs_total counter
vtsweep_runs_total{kind="store.tx"} 2
vtsweep_runs_total{kind="we\"ird"} 1
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
	samples, err := ValidateExposition(b.String())
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
		if _, err := ValidateExposition(text); err == nil {
			t.Errorf("%s: accepted invalid exposition", name)
		}
	}
}

func TestExpositionParsesCleanly(t *testing.T) {
	// A realistic registry: the tracer's own metrics after a few spans,
	// validated by the independent parser.
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
	if err := tr.Registry().Write(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ValidateExposition(b.String())
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
