package main

import (
	"context"
	"fmt"
	"math"
)

// spreadRow is one metric of one workload across the two sets of runs.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	Runs     int     `json:"runs_per_set"`
	Median1  float64 `json:"median_1"`
	Median2  float64 `json:"median_2"`
	// Spread is each set's interquartile distance as a share of its
	// median (absent with fewer than two runs per set); Drift is how much
	// worse the second median is than the first, as a share of the first.
	Spread1 float64 `json:"spread_1,omitempty"`
	Spread2 float64 `json:"spread_2,omitempty"`
	Drift   float64 `json:"drift"`
	OK      bool    `json:"ok"`
}

// worsening is how much worse b is than a in the metric's direction, as
// a share of a; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// runSelfcheck measures every workload in two sets of `runs` runs, a
// new seed each run, and applies the acceptance rule to itself: within
// each set the spread of every end-to-end metric except setup_s stays
// inside its bound, and no second-set median is worse than the first by
// more than the bound.
func runSelfcheck(ctx context.Context, c runConfig, todo []workload, runs int, record bool) error {
	runs = max(runs, 1)
	values := map[string]*[2][]float64{} // "workload metric" → per set
	key := func(w, m string) string { return w + " " + m }
	incorrect := false
	for set := 0; set < 2; set++ {
		for r := 0; r < runs; r++ {
			rc := c
			rc.Seed = c.Seed + int64(set*runs+r)
			for _, w := range todo {
				res, err := runWorkload(ctx, rc, w)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				incorrect = incorrect || !res.Correct
				fmt.Printf("set %d run %2d seed %3d %-16s", set+1, r+1, rc.Seed, w.Name)
				for _, d := range endToEnd {
					v := res.Metrics[d.Name].Value
					sets := values[key(w.Name, d.Name)]
					if sets == nil {
						sets = &[2][]float64{}
						values[key(w.Name, d.Name)] = sets
					}
					sets[set] = append(sets[set], v)
					fmt.Printf(" %s=%.6g", d.Name, v)
				}
				fmt.Println()
			}
		}
	}

	var rows []spreadRow
	failed := 0
	fmt.Printf("\n%-16s %-20s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "spread1", "spread2", "drift", "bound")
	for _, w := range todo {
		for _, d := range endToEnd {
			v := values[key(w.Name, d.Name)]
			row := spreadRow{Workload: w.Name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound, Runs: runs,
				Median1: median(v[0]), Median2: median(v[1])}
			row.Drift = worsening(d.Better, row.Median1, row.Median2)
			row.OK = row.Drift <= d.Bound
			if runs >= 2 {
				row.Spread1, row.Spread2 = spreadShare(v[0]), spreadShare(v[1])
				if d.Name != "setup_s" {
					row.OK = row.OK && row.Spread1 <= d.Bound && row.Spread2 <= d.Bound
				}
			}
			note := ""
			switch {
			case !row.OK:
				note = "  FAIL"
				failed++
			case max(row.Spread1, row.Spread2) > d.Bound/3:
				note = "  (spread above a third of the bound)"
			}
			fmt.Printf("%-16s %-20s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n", w.Name, d.Name,
				row.Median1, row.Median2, 100*row.Spread1, 100*row.Spread2, 100*row.Drift, 100*d.Bound, note)
			rows = append(rows, row)
		}
	}
	if record {
		if err := writeResults(c, "spread.json", map[string]any{"rows": rows}); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d metric x workload pairs outside their bound", failed)
	}
	return nil
}
