package sweepobs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4), the two pieces /metrics
// needs beyond plain samples: label blocks with escaped values, and the
// lines of a cumulative histogram. The repo is stdlib-only, so nothing
// here depends on client_golang; every series is built at scrape time
// from state the sweep already holds, so there is no registry.

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders one label pair as a label block, `{k="v"}`, with v
// escaped per the exposition format.
func Label(k, v string) string {
	return "{" + k + `="` + labelEscaper.Replace(v) + `"}`
}

// WriteHeader writes a metric family's HELP and TYPE lines.
func WriteHeader(w io.Writer, name, kind, help string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	return err
}

// A Histogram is one histogram series, filled when it is scraped.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // per bound, not cumulative
	Count  uint64
	Sum    float64
}

// NewHistogram returns an empty histogram over the ascending upper
// bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	h.Count++
	h.Sum += v
	if i := sort.SearchFloat64s(h.bounds, v); i < len(h.bounds) {
		h.counts[i]++
	}
}

// Write writes the series' cumulative le buckets, _sum and _count under
// the family name; labels is the series' label block ("" or `{k="v"}`),
// into which le is merged.
func (h *Histogram) Write(w io.Writer, name, labels string) error {
	pre := "{"
	if labels != "" {
		pre = strings.TrimSuffix(labels, "}") + ","
	}
	var b strings.Builder
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(&b, "%s_bucket%sle=\"%s\"} %d\n", name, pre, strconv.FormatFloat(ub, 'g', -1, 64), cum)
	}
	fmt.Fprintf(&b, "%s_bucket%sle=\"+Inf\"} %d\n", name, pre, h.Count)
	fmt.Fprintf(&b, "%s_sum%s %s\n", name, labels, strconv.FormatFloat(h.Sum, 'g', -1, 64))
	fmt.Fprintf(&b, "%s_count%s %d\n", name, labels, h.Count)
	_, err := io.WriteString(w, b.String())
	return err
}

// spanSecondsBuckets are the latency-histogram bounds (seconds) for
// every span kind.
var spanSecondsBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// SpanSeconds returns vtsweep_span_seconds over a View's spans: per
// span kind, the histogram of its closed spans' durations in seconds,
// whose _count and _sum are the kind's span count and total seconds.
// Open spans (DurNS < 0) are left out.
func SpanSeconds(spans []Span) map[string]*Histogram {
	byKind := map[string]*Histogram{}
	for i := range spans {
		sp := &spans[i]
		if sp.DurNS < 0 {
			continue
		}
		h := byKind[sp.Kind]
		if h == nil {
			h = NewHistogram(spanSecondsBuckets)
			byKind[sp.Kind] = h
		}
		h.Observe(float64(sp.DurNS) / 1e9)
	}
	return byKind
}

// WriteSpanSeconds writes SpanSeconds' histograms as one family, kinds
// in sorted order, or nothing when no span has closed.
func WriteSpanSeconds(w io.Writer, byKind map[string]*Histogram) error {
	if len(byKind) == 0 {
		return nil
	}
	const name = "vtsweep_span_seconds"
	if err := WriteHeader(w, name, "histogram", "Sweep-lifecycle span duration in seconds by kind."); err != nil {
		return err
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		if err := byKind[k].Write(w, name, Label("kind", k)); err != nil {
			return err
		}
	}
	return nil
}
