package sweepcli

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/harness"
)

// programs registers, beside the shared block, the flags each command
// declares itself that a sweep line can carry, so every case below parses
// under both commands' flag sets (a name collision with the shared block
// would panic at registration).
var programs = map[string]func(*flag.FlagSet){
	"vtbench": func(fs *flag.FlagSet) {
		fs.Int("workers", 0, "")
	},
	"vtsweepd": func(fs *flag.FlagSet) {
		fs.String("addr", ":7077", "")
		fs.Int("dispatch", 64, "")
		fs.Duration("lease-ttl", fabric.DefaultLeaseTTL, "")
	},
}

func parse(t *testing.T, prog string, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	programs[prog](fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%s %v: %v", prog, args, err)
	}
	return f
}

func TestFlagsToParams(t *testing.T) {
	samp := gpu.SamplingOptions{DetailedCycles: 4000, FastForwardCycles: 8000, WarmupCycles: 1000}
	cases := []struct {
		name    string
		args    []string
		wantErr string                     // substring; "" = must succeed
		check   func(*harness.Params) bool // on success
	}{
		{
			name: "defaults",
			check: func(p *harness.Params) bool {
				return p.Scale == 1 && p.Dilute == 1 && p.FailDir == "failures" && p.CacheDir == ""
			},
		},
		{
			name: "mirrored checkpoint sweep",
			args: []string{"-run", "fig-swaplat", "-dilute", "30", "-store", "S", "-mirror", "M", "-faildir", "",
				"-timeout", "5s", "-checkinvariants", "-checkpoint"},
			check: func(p *harness.Params) bool {
				return p.Dilute == 30 && p.CacheDir == "S" && p.MirrorDir == "M" && p.FailDir == "" &&
					p.RunTimeout == 5*time.Second && p.CheckInvariants && p.Checkpoint
			},
		},
		{
			// Resuming is running the same flags again over the same -store.
			name:  "sampled resume",
			args:  []string{"-scale", "2", "-store", "S", "-sample", "4000:8000:1000"},
			check: func(p *harness.Params) bool { return p.Scale == 2 && p.CacheDir == "S" && p.Sampling == samp },
		},
		{name: "mirror without store", args: []string{"-mirror", "M"}, wantErr: "-mirror needs -store"},
		{name: "sample with checkpoint", args: []string{"-sample", "100:200", "-checkpoint"}, wantErr: "incompatible with -checkpoint"},
		{name: "sample with checkinvariants", args: []string{"-sample", "100:200", "-checkinvariants"}, wantErr: "incompatible with -checkinvariants"},
		{name: "malformed sample", args: []string{"-sample", "100"}, wantErr: "sampling spec"},
	}
	for prog := range programs {
		for _, tc := range cases {
			t.Run(prog+"/"+tc.name, func(t *testing.T) {
				p, err := parse(t, prog, tc.args...).Params()
				if tc.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if !tc.check(&p) || p.Sweep == nil {
					t.Errorf("params do not reflect %v, or carry no sweep: %+v", tc.args, p)
				}
			})
		}
	}
}

// TestReportCarriesEveryCounter runs a static (simulation-free) experiment
// through the loop both commands use, puts a RunMetrics with every counter
// set into the record (which embeds it, so no counter can be left out of
// the copy again), and requires that no report field stays empty and that
// the marshalled record has every key bench/vtperf/parse.go, cmd/benchcheck
// and CI read, under schema_version 6. The one exception is vtperf's
// runs_retried: a run is attempted once, so the counter is gone and
// vtperf reads its absence as 0.
func TestReportCarriesEveryCounter(t *testing.T) {
	var m harness.RunMetrics
	mv := reflect.ValueOf(&m).Elem()
	for i := 0; i < mv.NumField(); i++ {
		switch f := mv.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(0.5)
		}
	}
	for prog := range programs {
		t.Run(prog, func(t *testing.T) {
			dir := t.TempDir()
			f := parse(t, prog, "-run", "table1-config", "-dilute", "30", "-json", filepath.Join(dir, "r.json"))
			p, err := f.Params()
			if err != nil {
				t.Fatal(err)
			}
			defer p.Sweep.Close()
			p.Workers = 2
			var tables strings.Builder
			rep, code, err := f.RunExperiments(prog, p, &tables)
			if err != nil || code != 0 {
				t.Fatalf("RunExperiments: code %d, err %v", code, err)
			}
			if !strings.Contains(tables.String(), "total wall time: ") {
				t.Errorf("no wall-time line in:\n%s", tables.String())
			}
			rep.RunMetrics, rep.SimCyclesPerSec, rep.Sampling = m, 1, "4000:8000:1000"
			rv := reflect.ValueOf(rep).Elem()
			for i := 0; i < rv.NumField(); i++ {
				if rv.Field(i).IsZero() {
					t.Errorf("report field %s is empty", rv.Type().Field(i).Name)
				}
			}
			if err := f.WriteJSON(prog, rep); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(f.JSONPath)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatal(err)
			}
			if v, _ := doc["schema_version"].(float64); v != 6 {
				t.Errorf("schema_version = %v, want 6", doc["schema_version"])
			}
			for _, k := range []string{"total_wall_seconds", "runs_requested", "runs_executed", "cache_hits",
				"sim_cycles", "runs_failed", "checkpoint_hits", "prefix_cycles_saved",
				"sampled_runs", "extrapolated_cycles", "max_error_bound",
				"store_hits", "store_misses", "store_repairs", "store_retries", "experiments"} {
				if _, ok := doc[k]; !ok {
					t.Errorf("record lacks %q", k)
				}
			}
			exps, _ := doc["experiments"].([]any)
			if len(exps) != 1 {
				t.Fatalf("experiments = %v, want one row", doc["experiments"])
			}
			row, _ := exps[0].(map[string]any)
			for _, k := range []string{"id", "wall_seconds", "runs_requested"} {
				if _, ok := row[k]; !ok {
					t.Errorf("experiment row lacks %q", k)
				}
			}
			// One plan serves every experiment: a row claims no share of
			// the sweep's executed runs or cycles.
			for _, k := range []string{"runs_executed", "cache_hits", "sim_cycles", "simcycles_per_sec"} {
				if _, ok := row[k]; ok {
					t.Errorf("experiment row carries the sweep counter %q", k)
				}
			}
		})
	}
}

// TestCSVFlagMirrorsTables drives -csv through the loop both commands
// use: every rendered table lands in the directory as <experiment
// ID>.csv, the same rows the text rendering prints, and the -csv
// setting of one sweep reaches no other.
func TestCSVFlagMirrorsTables(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	f := parse(t, "vtbench", "-run", "table-hw", "-csv", dir)
	p, err := f.Params()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Sweep.Close()
	_, closeOut, err := f.OpenOutput()
	if err != nil {
		t.Fatal(err)
	}
	defer closeOut()
	var tables strings.Builder
	if _, code, err := f.RunExperiments("vtbench", p, &tables); err != nil || code != 0 {
		t.Fatalf("RunExperiments: code %d, err %v", code, err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "table-hw.csv"))
	if err != nil {
		t.Fatal(err)
	}
	csv := string(b)
	if !strings.HasPrefix(csv, "component,bytes\n") || !strings.Contains(csv, "\ntotal per SM,") {
		t.Errorf("table-hw.csv is not the table:\n%s", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 8 {
		t.Errorf("table-hw.csv has %d lines, want the header and 7 rows:\n%s", lines, csv)
	}

	// A sweep without -csv writes no CSV, whatever another sweep asked for.
	plain := parse(t, "vtbench", "-run", "table1-config")
	pp, err := plain.Params()
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Sweep.Close()
	if _, _, err := plain.RunExperiments("vtbench", pp, io.Discard); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("csv dir holds %d files after a sweep without -csv (err %v), want 1", len(entries), err)
	}
}

func TestExitCode(t *testing.T) {
	for _, tc := range []struct {
		sweep int
		sig   syscall.Signal
		want  int
	}{
		{0, 0, 0},
		{3, 0, 3},
		{0, syscall.SIGINT, 130},
		{3, syscall.SIGTERM, 143},
	} {
		var s Signals
		s.term.Store(int32(tc.sig))
		if got := s.ExitCode(tc.sweep); got != tc.want {
			t.Errorf("sweep code %d, signal %d: exit %d, want %d", tc.sweep, tc.sig, got, tc.want)
		}
	}
}

// TestSignalCancelsContext delivers a real SIGTERM: the context must
// cancel and the exit code become 143 whatever the sweep's own was.
func TestSignalCancelsContext(t *testing.T) {
	var s Signals
	ctx, stop := s.Context("test")
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("SIGTERM did not cancel the sweep context")
	}
	if got := s.ExitCode(0); got != 143 {
		t.Errorf("exit code after SIGTERM = %d, want 143", got)
	}
}
