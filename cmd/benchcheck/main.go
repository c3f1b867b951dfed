// Command benchcheck compares a vtbench -json report against a committed
// baseline and exits nonzero when throughput regresses beyond a tolerance.
// CI runs it after the benchmark step so a PR that slows the simulator by
// more than the allowed fraction fails visibly:
//
//	vtbench -json current.json ...
//	benchcheck -baseline BENCH_sched.json -current current.json -tolerance 0.30
//
// Only total simcycles_per_sec is compared. Machine-speed differences
// between the committing host and CI runners are absorbed by the
// tolerance.
//
// With -allocs the comparison flips to allocation count instead of
// throughput: -current names a `go test -bench -benchmem` output file, the
// allocs/op of BenchmarkSimulationCyclesPerSecond is parsed from it, and
// the check fails when it exceeds the committed baseline's
// simulation_benchmark.current_allocs_per_run by more than the tolerance
// (CI uses 0.10). Unlike wall-clock throughput, allocation counts are
// machine-independent and deterministic, so this gate can be far tighter
// than the 30% throughput floor:
//
//	go test -run '^$' -bench SimulationCyclesPerSecond -benchtime 1x -benchmem . > bench_allocs.txt
//	benchcheck -allocs -baseline BENCH_sched.json -current bench_allocs.txt -tolerance 0.10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// allocsBenchName is the benchmark whose allocs/op the -allocs mode gates
// on — the same run the simulation_benchmark baseline record describes.
const allocsBenchName = "BenchmarkSimulationCyclesPerSecond"

// report mirrors the subset of vtbench's -json document benchcheck
// reads. encoding/json ignores fields the struct doesn't declare, so
// reports from newer vtbench versions (schema_version, telemetry
// aggregates, future additions) check cleanly against old baselines and
// vice versa — benchcheck_test.go pins that property. Decoding stays
// deliberately schema-version-agnostic: the two fields read here have
// kept their meaning across every version.
type report struct {
	SimCycles       int64   `json:"sim_cycles"`
	SimCyclesPerSec float64 `json:"simcycles_per_sec"`

	// Workers is how many execution contexts produced the record: local
	// parallelism for a plain vtbench run, the fleet size for a vtsweepd
	// coordinator record (whose simcycles_per_sec is the fleet
	// aggregate). Zero in pre-fabric reports.
	Workers int `json:"workers"`

	// SimulationBenchmark carries the committed allocation record the
	// -allocs mode gates against; absent in plain vtbench -json output.
	SimulationBenchmark struct {
		CurrentAllocsPerRun float64 `json:"current_allocs_per_run"`
	} `json:"simulation_benchmark"`
}

// parseAllocs extracts allocs/op for the named benchmark from `go test
// -bench -benchmem` output. Benchmark result lines are whitespace-split
// value/unit pairs after the name and iteration count; the name may carry
// a -GOMAXPROCS suffix. Multiple matching lines (e.g. -count>1) average.
func parseAllocs(out, bench string) (float64, error) {
	var sum float64
	var n int
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || (f[0] != bench && !strings.HasPrefix(f[0], bench+"-")) {
			continue
		}
		for i := 2; i+1 < len(f); i += 2 {
			if f[i+1] != "allocs/op" {
				continue
			}
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return 0, fmt.Errorf("bad allocs/op value %q: %w", f[i], err)
			}
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no %s allocs/op line found (ran without -benchmem?)", bench)
	}
	return sum / float64(n), nil
}

// checkAllocs compares a measured allocs/op against the committed record
// and returns a failure message when growth exceeds the tolerance.
func checkAllocs(base, cur, tolerance float64) error {
	ceiling := base * (1 + tolerance)
	fmt.Printf("benchcheck: baseline %.0f current %.0f allocs/run (%.2fx, ceiling %.0f)\n",
		base, cur, cur/base, ceiling)
	if cur > ceiling {
		return fmt.Errorf("allocs/run grew beyond %.0f%% tolerance", tolerance*100)
	}
	return nil
}

// checkThroughput gates the total simcycles/s against the baseline.
func checkThroughput(w io.Writer, base, cur report, tolerance float64) error {
	if base.SimCyclesPerSec <= 0 {
		return fmt.Errorf("baseline has no simcycles_per_sec")
	}
	if cur.SimCycles == 0 {
		// An all-cache-hit run measured nothing; refuse to pass vacuously.
		return fmt.Errorf("current report simulated 0 cycles (cache-only run?)")
	}
	// Multi-worker (sweep fabric) records report the fleet-aggregate
	// rate; the gate below stays on that aggregate — distributed scale-out
	// is exactly the throughput the record claims — but when the fleet
	// sizes differ the per-worker rate is printed for context, so a "4
	// workers barely beat 1" run is visible even while it passes.
	if base.Workers > 0 && cur.Workers > 0 && base.Workers != cur.Workers {
		fmt.Fprintf(w, "benchcheck: fleet size %d -> %d; per-worker %.0f -> %.0f simcycles/s (%.2fx)\n",
			base.Workers, cur.Workers,
			base.SimCyclesPerSec/float64(base.Workers),
			cur.SimCyclesPerSec/float64(cur.Workers),
			(cur.SimCyclesPerSec/float64(cur.Workers))/(base.SimCyclesPerSec/float64(base.Workers)))
	}
	floor := base.SimCyclesPerSec * (1 - tolerance)
	ratio := cur.SimCyclesPerSec / base.SimCyclesPerSec
	fmt.Fprintf(w, "benchcheck: baseline %.0f current %.0f simcycles/s (%.2fx, floor %.0f)\n",
		base.SimCyclesPerSec, cur.SimCyclesPerSec, ratio, floor)
	if cur.SimCyclesPerSec < floor {
		return fmt.Errorf("regression beyond %.0f%% tolerance", tolerance*100)
	}
	return nil
}

func load(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func main() {
	var (
		baseline  = flag.String("baseline", "", "committed benchmark record (vtbench -json output)")
		current   = flag.String("current", "", "freshly measured report to check")
		tolerance = flag.Float64("tolerance", 0.30, "allowed fractional regression (throughput loss, or alloc growth with -allocs)")
		allocs    = flag.Bool("allocs", false, "gate allocs/op of the simulation benchmark instead of throughput; -current is go test -benchmem output")
	)
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -baseline and -current are required")
		os.Exit(2)
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	if *allocs {
		out, err := os.ReadFile(*current)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(2)
		}
		cur, err := parseAllocs(string(out), allocsBenchName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", *current, err)
			os.Exit(2)
		}
		rec := base.SimulationBenchmark.CurrentAllocsPerRun
		if rec <= 0 {
			fmt.Fprintf(os.Stderr, "benchcheck: baseline %s has no simulation_benchmark.current_allocs_per_run\n", *baseline)
			os.Exit(2)
		}
		if err := checkAllocs(rec, cur, *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("benchcheck: OK")
		return
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	if base.SimCyclesPerSec <= 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: baseline %s has no simcycles_per_sec\n", *baseline)
		os.Exit(2)
	}
	if cur.SimCycles == 0 {
		// An all-cache-hit run measured nothing: unusable input (exit 2),
		// not a regression.
		fmt.Fprintf(os.Stderr, "benchcheck: current report simulated 0 cycles (cache-only run?)\n")
		os.Exit(2)
	}
	if err := checkThroughput(os.Stdout, base, cur, *tolerance); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("benchcheck: OK")
}
