package main

// Parsers for the program's artifacts. Each reads only fields the CI
// drills already pin (ci.yml greps or jq-selects them), ignores unknown
// fields, and treats an absent field as zero, so a refactor of
// internal/ that keeps the drills green keeps the benchmark working.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchReport is the subset of the vtbench/vtsweepd -json record read.
type benchReport struct {
	TotalWallSec       float64 `json:"total_wall_seconds"`
	RunsRequested      int     `json:"runs_requested"`
	RunsExecuted       int     `json:"runs_executed"`
	CacheHits          int     `json:"cache_hits"`
	SimCycles          int64   `json:"sim_cycles"`
	RunsRetried        int     `json:"runs_retried"`
	RunsFailed         int     `json:"runs_failed"`
	CheckpointHits     int     `json:"checkpoint_hits"`
	PrefixCyclesSaved  int64   `json:"prefix_cycles_saved"`
	SampledRuns        int     `json:"sampled_runs"`
	ExtrapolatedCycles int64   `json:"extrapolated_cycles"`
	MaxErrorBound      float64 `json:"max_error_bound"`
	StoreHits          int     `json:"store_hits"`
	StoreMisses        int     `json:"store_misses"`
	StoreRepairs       int     `json:"store_repairs"`
	StoreRetries       int     `json:"store_retries"`
	Experiments        []struct {
		ID            string  `json:"id"`
		WallSeconds   float64 `json:"wall_seconds"`
		RunsRequested int     `json:"runs_requested"`
		Error         string  `json:"error"`
	} `json:"experiments"`
}

func parseBenchReport(b []byte) (benchReport, error) {
	var r benchReport
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("bench report: %w", err)
	}
	return r, nil
}

// journalEntry is one completion line of journal.jsonl.
type journalEntry struct {
	FP         string  `json:"fp"`
	Workload   string  `json:"workload"`
	Variant    string  `json:"variant"`
	Status     string  `json:"status"`
	Cycles     int64   `json:"cycles"`
	ErrorBound float64 `json:"error_bound"`
}

func (e journalEntry) job() string { return e.Workload + "/" + e.Variant }

// parseJournal returns the completion entries of a journal, skipping
// the header (the line without "fp"). The store appends at least once,
// so a job may appear twice; the last line per fp wins, as readers of
// the journal do.
func parseJournal(r io.Reader) ([]journalEntry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	byFP := map[string]int{}
	var out []journalEntry
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", n, err)
		}
		if e.FP == "" {
			continue
		}
		if i, dup := byFP[e.FP]; dup {
			out[i] = e
			continue
		}
		byFP[e.FP] = len(out)
		out = append(out, e)
	}
	return out, sc.Err()
}

// traceSpan is one span of a -sweeptrace dump.
type traceSpan struct {
	ID       int               `json:"id"`
	Parent   int               `json:"parent"`
	Kind     string            `json:"kind"`
	Workload string            `json:"workload"`
	Variant  string            `json:"variant"`
	StartNs  int64             `json:"start_ns"`
	DurNs    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs"`
}

type sweepDump struct {
	WallNs  int64       `json:"wall_ns"`
	Workers int         `json:"workers"`
	Spans   []traceSpan `json:"spans"`
}

func parseSweepTrace(b []byte) (sweepDump, error) {
	var d sweepDump
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("sweep trace: %w", err)
	}
	return d, nil
}

// stage aggregates the spans of one kind. Unknown kinds aggregate under
// their own name; nothing here enumerates the kinds the program emits.
type stage struct {
	Count   int
	TotalNs int64
	// SelfNs is duration minus the part covered by child spans.
	SelfNs int64
}

type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals.
func unionLen(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, end int64
	first := true
	for _, v := range iv {
		if first || v.lo > end {
			total += v.hi - v.lo
			end, first = v.hi, false
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// stages groups a dump by span kind and computes self times. covered is
// the length of the timeline under at least one span: what the trace
// accounts for of the process's wall-clock.
func stages(d sweepDump) (byKind map[string]*stage, coveredNs int64) {
	children := map[int][]interval{}
	var all []interval
	for _, s := range d.Spans {
		iv := interval{s.StartNs, s.StartNs + s.DurNs}
		all = append(all, iv)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], iv)
		}
	}
	byKind = map[string]*stage{}
	for _, s := range d.Spans {
		st := byKind[s.Kind]
		if st == nil {
			st = &stage{}
			byKind[s.Kind] = st
		}
		st.Count++
		st.TotalNs += s.DurNs
		st.SelfNs += s.DurNs - unionLen(children[s.ID])
	}
	return byKind, unionLen(all)
}

// parsePromText reads a Prometheus text exposition into series → value,
// the series written exactly as exposed (name plus label set).
func parsePromText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

var benchRE = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op`)

// parseGoBench maps benchmark name (without the Benchmark prefix and
// the -GOMAXPROCS suffix) to its ns/op; a name `go test` did not print
// is simply absent.
func parseGoBench(out string) map[string]float64 {
	res := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		if m := benchRE.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			if v, err := strconv.ParseFloat(m[2], 64); err == nil {
				res[m[1]] = v
			}
		}
	}
	return res
}

// fleetCounts are the counts read from the coordinator's summary line,
// the one the CI fabric drill greps.
type fleetCounts struct {
	Duplicates, Granted, Expired int
}

var fleetRE = regexp.MustCompile(`(?m)^fleet: \d+ workers, \d+ completions \((\d+) duplicate\), leases (\d+) granted / \d+ renewed / (\d+) expired / \d+ released`)

func parseFleetLine(tables string) (fleetCounts, bool) {
	m := fleetRE.FindStringSubmatch(tables)
	if m == nil {
		return fleetCounts{}, false
	}
	var v [3]int
	for i := range v {
		v[i], _ = strconv.Atoi(m[i+1])
	}
	return fleetCounts{v[0], v[1], v[2]}, true
}
