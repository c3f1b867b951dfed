// Package cmd holds the one smoke test the command-line tools share: it
// builds every binary once and runs each with the smallest input that
// reaches its main path, so a tool that stops starting, stops parsing its
// flags or stops printing its summary fails here and not in a CI drill.
// The examples/ programs, which the README and DESIGN.md point users at,
// are built and run the same way.
package cmd

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// run executes one built tool and returns its stdout and exit code;
// stderr goes to the test log.
func run(t *testing.T, dir, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, bin), args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if stderr.Len() > 0 {
		t.Logf("%s %v stderr:\n%s", bin, args, stderr.String())
	}
	if exit := (*exec.ExitError)(nil); err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return stdout.String(), cmd.ProcessState.ExitCode()
}

func TestCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command-line tools")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"repro/cmd/vtsim", "repro/cmd/vtasm", "repro/cmd/vtdiff",
		"repro/cmd/vtreport", "repro/cmd/vtsweepd", "repro/cmd/vtbench",
		"repro/examples/customkernel", "repro/examples/multikernel",
		"repro/examples/occupancy", "repro/examples/quickstart",
		"repro/examples/swaptrace", "repro/examples/sweep")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// The repo ships no .vta source; three instructions are a kernel.
	kernel := ".kernel tiny\n  mov r0, #1\n  iadd r1, r0, r0\n  exit\n"
	if err := os.WriteFile(filepath.Join(dir, "tiny.vta"), []byte(kernel), 0o644); err != nil {
		t.Fatal(err)
	}
	// vtdiff's input is a vtsim -json result or a ring dump; vtreport's a
	// swept store or a ring dump.
	result, code := run(t, dir, "vtsim", "-workload", "bfs", "-policy", "vt", "-json")
	if code != 0 {
		t.Fatalf("vtsim -json exited %d", code)
	}
	if err := os.WriteFile(filepath.Join(dir, "bfs.json"), []byte(result), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code := run(t, dir, "vtsim", "-workload", "bfs", "-policy", "vt", "-telemetry", "rings.json"); code != 0 {
		t.Fatalf("vtsim -telemetry exited %d", code)
	}
	if _, code := run(t, dir, "vtbench", "-run", "fig-swaplat", "-dilute", "60", "-store", "swept", "-faildir", ""); code != 0 {
		t.Fatalf("vtbench sweep exited %d", code)
	}
	experiments, code := run(t, dir, "vtbench", "-list")
	if code != 0 || !strings.Contains(experiments, "fig-swaplat") {
		t.Fatalf("vtbench -list exited %d:\n%s", code, experiments)
	}

	for _, tc := range []struct {
		bin  string
		args []string
		// want is one stable line (or line prefix) of stdout; whole makes
		// it the entire expected output instead.
		want  string
		whole bool
	}{
		{bin: "vtsim", args: []string{"-workload", "bfs", "-policy", "vt"}, want: "policy:              vt, scheduler gto, 15 SMs"},
		{bin: "vtasm", args: []string{"-check", "tiny.vta"}, want: "kernel tiny: 3 instructions, "},
		{bin: "vtasm", args: []string{"-grid", "2", "-block", "32", "-param", "0x1000", "tiny.vta"}, want: "policy baseline: "},
		{bin: "vtreport", args: []string{"-store", "swept"}, want: "store is healthy"},
		{bin: "vtreport", args: []string{"-rings", "rings.json"}, want: "== swap-rate phases =="},
		{bin: "vtreport", want: "  note: 18 of 22 workloads are scheduling-limited"},
		{bin: "vtsweepd", args: []string{"-list"}, want: experiments, whole: true},
		{bin: "customkernel", want: `kernel "chase": 31 instructions, 11 regs/thread`},
		{bin: "multikernel", want: "co-scheduled mix: nw+montecarlo"},
		{bin: "occupancy", want: "18 of 22 workloads are scheduling-limited"},
		{bin: "quickstart", want: "workload: nw — sequence-alignment wavefront"},
		{bin: "swaptrace", want: "timeline (first 40 of "},
		{bin: "sweep", want: "swap latency       cycles    speedup    swaps"},
	} {
		t.Run(tc.bin, func(t *testing.T) {
			out, code := run(t, dir, tc.bin, tc.args...)
			if code != 0 {
				t.Fatalf("exit code %d, want 0\n%s", code, out)
			}
			if tc.whole && out != tc.want {
				t.Errorf("output differs:\n%s\nwant:\n%s", out, tc.want)
			}
			if !tc.whole && !hasLinePrefix(out, tc.want) {
				t.Errorf("no output line starts with %q:\n%s", tc.want, out)
			}
		})
	}

	// A read-only audit of a directory that is not there refuses, and
	// leaves it not there: it does not lay out an empty store to call
	// healthy.
	t.Run("vtreport-no-store", func(t *testing.T) {
		for _, args := range [][]string{{"-store", "nosuch"}, {"-store", "swept", "-mirror", "typo"}} {
			out, code := run(t, dir, "vtreport", args...)
			if code == 0 || strings.Contains(out, "store is healthy") {
				t.Errorf("vtreport %v exited %d:\n%s", args, code, out)
			}
			if _, err := os.Stat(filepath.Join(dir, args[len(args)-1])); !os.IsNotExist(err) {
				t.Errorf("vtreport %v created %s: %v", args, args[len(args)-1], err)
			}
		}
	})

	// A store that cannot be opened (its .vtstore is a regular file) is a
	// set-up error in every mode that names one: exit 1, naming the store,
	// before any job runs or any coordinator is contacted or served. A
	// command that got past set-up would wait for a fleet, so each runs
	// under a deadline.
	t.Run("vtbench-bad-store", func(t *testing.T) {
		bad := filepath.Join(dir, "badstore")
		if err := os.MkdirAll(bad, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(bad, ".vtstore"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"vtbench", "-run", "fig-swaplat", "-dilute", "60", "-faildir", ""},
			{"vtbench", "-worker", "http://127.0.0.1:1"},
			{"vtsweepd", "-run", "fig-swaplat", "-dilute", "60", "-addr", "127.0.0.1:0"},
		} {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			cmd := exec.CommandContext(ctx, filepath.Join(dir, args[0]), append(args[1:], "-store", "badstore")...)
			cmd.Dir = dir
			out, _ := cmd.CombinedOutput()
			cancel()
			if code := cmd.ProcessState.ExitCode(); code != 1 || !strings.Contains(string(out), "result store badstore") ||
				strings.Contains(string(out), "total wall time") {
				t.Errorf("%v -store badstore exited %d, want 1 naming the store before any job:\n%s", args, code, out)
			}
		}
	})

	// The occupancy series is the telemetry ring: one row per window,
	// cycles strictly increasing, the last (partial) window ending where
	// the run does.
	t.Run("vtsim-timeline", func(t *testing.T) {
		out, code := run(t, dir, "vtsim", "-workload", "bfs", "-policy", "vt", "-timeline", "500")
		if code != 0 {
			t.Fatalf("exit code %d, want 0\n%s", code, out)
		}
		lines := strings.Split(out, "\n")
		var cycles string
		series := -1
		for i, line := range lines {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "cycles:" {
				cycles = f[1]
			}
			if line == "timeline (active warps/SM, resident warps/SM, interval IPC):" {
				series = i + 1
			}
		}
		if cycles == "" || series < 0 {
			t.Fatalf("no cycles: line or no series header:\n%s", out)
		}
		var rows []string
		for _, line := range lines[series:] {
			if f := strings.Fields(line); len(f) >= 7 && f[1] == "act" {
				rows = append(rows, f[0])
			}
		}
		if len(rows) < 2 {
			t.Fatalf("%d series rows:\n%s", len(rows), out)
		}
		last := int64(0)
		for _, r := range rows {
			c, err := strconv.ParseInt(r, 10, 64)
			if err != nil || c <= last {
				t.Fatalf("row cycle %q after %d: not strictly increasing\n%s", r, last, out)
			}
			last = c
		}
		if rows[len(rows)-1] != cycles {
			t.Errorf("last row at cycle %s, run ended at %s", rows[len(rows)-1], cycles)
		}
	})

	// A result diffed against itself: every metric row reads +0.0%.
	t.Run("vtdiff", func(t *testing.T) {
		out, code := run(t, dir, "vtdiff", "bfs.json", "bfs.json")
		if code != 0 {
			t.Fatalf("exit code %d, want 0\n%s", code, out)
		}
		rows := 0
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 && strings.HasSuffix(f[len(f)-1], "%") {
				rows++
				if f[len(f)-1] != "+0.0%" {
					t.Errorf("non-zero delta: %q", line)
				}
			}
		}
		if rows == 0 || !hasLinePrefix(out, "speedup (a/b cycles): 1.000x") {
			t.Errorf("found %d delta rows and no unit speedup:\n%s", rows, out)
		}
	})

	// A ring dump diffed against itself: every phase's ΔIPC reads +0.00.
	t.Run("vtdiff-rings", func(t *testing.T) {
		out, code := run(t, dir, "vtdiff", "-rings", "rings.json", "rings.json")
		if code != 0 {
			t.Fatalf("exit code %d, want 0\n%s", code, out)
		}
		phases := 0
		for _, line := range strings.Split(out, "\n") {
			// phase, a cycles, b cycles, ΔIPC, ...
			if f := strings.Fields(line); len(f) >= 4 && strings.Contains(f[1], "..") {
				phases++
				if f[3] != "+0.00" {
					t.Errorf("non-zero ΔIPC: %q", line)
				}
			}
		}
		if phases == 0 {
			t.Errorf("no phase rows:\n%s", out)
		}
	})
}

func hasLinePrefix(out, prefix string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}
