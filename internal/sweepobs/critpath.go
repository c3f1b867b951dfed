package sweepobs

import (
	"fmt"
	"sort"
)

// Critical-path analysis over a finished sweep's span dump: which chain
// of jobs determined the wall-clock, and where inside each job the time
// went (simulate vs store I/O vs fork traffic vs wait). This is the
// sweep-level analogue of the simulator's phase breakdown — the answer
// `vtreport -tracepath` prints.

// PathStep is one hop on the critical path.
type PathStep struct {
	// Kind is "job" for a job span or "wait" for a gap where no job on
	// the chain was running (scheduler/store/planner time).
	Kind     string `json:"kind"`
	Workload string `json:"workload,omitempty"`
	Variant  string `json:"variant,omitempty"`
	Slot     int    `json:"slot"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"dur_ns"`
}

// Label names the step for reports.
func (s PathStep) Label() string {
	if s.Kind == "wait" {
		return "(wait)"
	}
	if s.Workload == "" {
		return s.Kind
	}
	return s.Workload + "/" + s.Variant
}

// StageBreakdown is wall-clock attributed to one stage across the
// whole sweep (self time: a stage's nested children are attributed to
// themselves, not double-counted).
type StageBreakdown struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// Straggler is a job whose duration is far above the sweep median.
type Straggler struct {
	Workload string  `json:"workload"`
	Variant  string  `json:"variant"`
	Seconds  float64 `json:"seconds"`
	Ratio    float64 `json:"ratio"` // duration / median job duration
}

// Analysis is the result of Analyze.
type Analysis struct {
	WallSeconds float64 `json:"wall_seconds"`
	Jobs        int     `json:"jobs"`
	Workers     int     `json:"workers"`
	// Coverage is the fraction of wall-clock covered by at least one
	// job, experiment, plan or store-batch span (the ≥95% acceptance
	// bar). Store batches count because they commit write-behind: the
	// last one finishes after the last job has.
	Coverage float64 `json:"coverage"`
	// Path is the critical path: the chain of jobs ending at the last
	// span to finish, each preceded by the latest job finishing before
	// it started, with gaps reported as "wait" steps. Its durations sum
	// exactly to the wall-clock.
	Path []PathStep `json:"path"`
	// PathSeconds is the summed Path duration (== WallSeconds by
	// construction; kept explicit so reports can assert it).
	PathSeconds float64 `json:"path_seconds"`
	// Breakdown attributes span self-time (duration minus nested
	// children) to each stage across the whole sweep. With concurrent
	// workers its total exceeds wall-clock; divide by Workers for an
	// average-per-slot view.
	Breakdown  []StageBreakdown `json:"breakdown"`
	Stragglers []Straggler      `json:"stragglers,omitempty"`
}

// selfTimes computes, for every span, its duration minus the summed
// durations of its direct children (clamped at 0), keyed by span index.
func selfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	idxByID := make(map[SpanID]int, len(spans))
	for i, sp := range spans {
		idxByID[sp.ID] = i
		self[i] = sp.DurNS
	}
	for _, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		if pi, ok := idxByID[sp.Parent]; ok {
			self[pi] -= sp.DurNS
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// mergeIntervals returns the total length of the union of [start, end)
// intervals.
func mergeIntervals(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curStart, curEnd int64
	curStart, curEnd = iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curEnd {
			total += curEnd - curStart
			curStart, curEnd = x[0], x[1]
		} else if x[1] > curEnd {
			curEnd = x[1]
		}
	}
	total += curEnd - curStart
	return total
}

// Analyze computes the critical path, per-stage breakdown, span
// coverage, and straggler list for a dump. Returns nil for a nil or
// empty dump.
func Analyze(d *Dump) *Analysis {
	if d == nil || len(d.Spans) == 0 {
		return nil
	}
	a := &Analysis{
		WallSeconds: float64(d.WallNS) / 1e9,
		Workers:     d.Workers,
	}

	// Jobs, sorted by end time.
	var jobs []Span
	for _, sp := range d.Spans {
		if sp.Kind == "job" {
			jobs = append(jobs, sp)
		}
	}
	a.Jobs = len(jobs)

	// Coverage: union of the sweep-level spans over the wall.
	var iv [][2]int64
	for _, sp := range d.Spans {
		switch sp.Kind {
		case "job", "experiment", "plan", "store.tx":
			iv = append(iv, [2]int64{sp.StartNS, sp.End()})
		}
	}
	if d.WallNS > 0 {
		a.Coverage = float64(mergeIntervals(iv)) / float64(d.WallNS)
	}

	// Critical path: start from the job that finished last, walk
	// backward to the latest job that finished at or before the current
	// job started; gaps (and the lead-in before the first job / tail
	// after the last) become "wait" steps. Durations then sum exactly
	// to WallNS.
	if len(jobs) > 0 {
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].End() < jobs[j].End() })
		var chain []Span
		cur := jobs[len(jobs)-1]
		chain = append(chain, cur)
		for {
			var pred *Span
			for i := len(jobs) - 1; i >= 0; i-- {
				if jobs[i].End() <= cur.StartNS {
					pred = &jobs[i]
					break
				}
			}
			if pred == nil {
				break
			}
			cur = *pred
			chain = append(chain, cur)
		}
		// chain is last→first; emit first→last with waits filling gaps.
		cursor := int64(0)
		for i := len(chain) - 1; i >= 0; i-- {
			sp := chain[i]
			if sp.StartNS > cursor {
				a.Path = append(a.Path, PathStep{Kind: "wait", Slot: -1,
					StartNS: cursor, DurNS: sp.StartNS - cursor})
			}
			a.Path = append(a.Path, PathStep{Kind: "job",
				Workload: sp.Workload, Variant: sp.Variant, Slot: sp.Slot,
				StartNS: sp.StartNS, DurNS: sp.DurNS})
			cursor = sp.End()
		}
		if cursor < d.WallNS {
			a.Path = append(a.Path, PathStep{Kind: "wait", Slot: -1,
				StartNS: cursor, DurNS: d.WallNS - cursor})
		}
		var sum int64
		for _, st := range a.Path {
			sum += st.DurNS
		}
		a.PathSeconds = float64(sum) / 1e9
	}

	// Stage breakdown: self time per kind across all spans. "job" self
	// time (the part of a job not inside any child span) is labelled
	// "job.other"; "execute" self time is the simulation itself.
	self := selfTimes(d.Spans)
	agg := map[string]*StageBreakdown{}
	for i, sp := range d.Spans {
		name := sp.Kind
		if name == "job" {
			name = "job.other"
		}
		st := agg[name]
		if st == nil {
			st = &StageBreakdown{Stage: name}
			agg[name] = st
		}
		st.Seconds += float64(self[i]) / 1e9
		st.Count++
	}
	for _, st := range agg {
		a.Breakdown = append(a.Breakdown, *st)
	}
	sort.Slice(a.Breakdown, func(i, j int) bool {
		if a.Breakdown[i].Seconds != a.Breakdown[j].Seconds {
			return a.Breakdown[i].Seconds > a.Breakdown[j].Seconds
		}
		return a.Breakdown[i].Stage < a.Breakdown[j].Stage
	})

	// Stragglers: jobs taking more than 2x the median job duration.
	if len(jobs) >= 2 {
		durs := make([]int64, len(jobs))
		for i, j := range jobs {
			durs[i] = j.DurNS
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		median := durs[len(durs)/2]
		if median > 0 {
			for _, j := range jobs {
				if j.DurNS > 2*median {
					a.Stragglers = append(a.Stragglers, Straggler{
						Workload: j.Workload, Variant: j.Variant,
						Seconds: float64(j.DurNS) / 1e9,
						Ratio:   float64(j.DurNS) / float64(median),
					})
				}
			}
			sort.Slice(a.Stragglers, func(i, j int) bool {
				return a.Stragglers[i].Ratio > a.Stragglers[j].Ratio
			})
		}
	}
	return a
}

// FormatStep renders one path step for the vtreport table.
func FormatStep(s PathStep) string {
	return fmt.Sprintf("%-24s slot %2d  %10.3fs → %10.3fs  (%8.3fs)",
		s.Label(), s.Slot,
		float64(s.StartNS)/1e9, float64(s.End())/1e9, float64(s.DurNS)/1e9)
}

// End returns the step's end offset in nanoseconds.
func (s PathStep) End() int64 { return s.StartNS + s.DurNS }
