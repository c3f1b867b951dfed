// Command vtdiff compares two simulation results saved as JSON by
// `vtsim -json`, printing the relative change of every headline metric —
// the quick way to quantify a configuration or policy change. With
// -rings it instead diffs two telemetry ring dumps (vtsim -telemetry)
// window by window on a common time grid.
//
// Usage:
//
//	vtsim -workload nw -json > base.json
//	vtsim -workload nw -policy vt -json > vt.json
//	vtdiff base.json vt.json
//	vtdiff -rings a-rings.json b-rings.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/gpu"
	"repro/internal/telemetry"
)

func main() {
	rings := flag.Bool("rings", false, "diff two telemetry ring dumps (vtsim -telemetry) per window")
	flag.Parse()
	if flag.NArg() != 2 {
		fatalf("usage: vtdiff [-rings] a.json b.json")
	}
	if *rings {
		if err := diffRings(flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	a, err := load(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	b, err := load(flag.Arg(1))
	if err != nil {
		fatalf("%v", err)
	}
	if a.Kernel != b.Kernel {
		fmt.Printf("warning: comparing different kernels (%s vs %s)\n\n", a.Kernel, b.Kernel)
	}

	fmt.Printf("%-24s %14s %14s %10s\n", "metric", a.Policy.String(), b.Policy.String(), "change")
	row := func(name string, va, vb float64) {
		change := "-"
		if va != 0 {
			change = fmt.Sprintf("%+.1f%%", (vb/va-1)*100)
		}
		fmt.Printf("%-24s %14.3f %14.3f %10s\n", name, va, vb, change)
	}
	row("cycles", float64(a.Cycles), float64(b.Cycles))
	row("IPC", a.IPC(), b.IPC())
	row("active warps/SM", a.AvgActiveWarpsPerSM(), b.AvgActiveWarpsPerSM())
	row("resident warps/SM", a.AvgResidentWarpsPerSM(), b.AvgResidentWarpsPerSM())
	row("SIMD efficiency", a.SIMDEfficiency(), b.SIMDEfficiency())
	row("L1 hit rate", a.Mem.L1HitRate(), b.Mem.L1HitRate())
	row("L2 hit rate", a.Mem.L2HitRate(), b.Mem.L2HitRate())
	row("DRAM reads", float64(a.Mem.DRAMReads), float64(b.Mem.DRAMReads))
	row("swaps out", float64(a.VT.SwapsOut), float64(b.VT.SwapsOut))
	if a.Cycles > 0 && b.Cycles > 0 {
		fmt.Printf("\nspeedup (a/b cycles): %.3fx\n", float64(a.Cycles)/float64(b.Cycles))
	}
}

// diffRings compares two ring dumps phase by phase: both GPU rings are
// rebucketed onto a common grid of at most 16 spans (each covering the
// same fraction of its run, so runs of different lengths still align by
// phase), then every bucket's IPC, swap, and stall-mix deltas print, and
// the bucket with the largest IPC swing is called out.
func diffRings(pathA, pathB string) error {
	a, err := telemetry.ReadDump(pathA)
	if err != nil {
		return err
	}
	b, err := telemetry.ReadDump(pathB)
	if err != nil {
		return err
	}
	if a.Kernel != b.Kernel {
		fmt.Printf("warning: comparing different kernels (%s vs %s)\n\n", a.Kernel, b.Kernel)
	}
	fmt.Printf("a: %s under %s — %d cycles, %d windows\n", a.Kernel, a.Policy, a.Cycles, len(a.GPU))
	fmt.Printf("b: %s under %s — %d cycles, %d windows\n\n", b.Kernel, b.Policy, b.Cycles, len(b.GPU))

	n := len(a.GPU)
	if len(b.GPU) < n {
		n = len(b.GPU)
	}
	if n > 16 {
		n = 16
	}
	wa := telemetry.Rebucket(a.GPU, n)
	wb := telemetry.Rebucket(b.GPU, n)
	if len(wb) < len(wa) {
		wa = wa[:len(wb)]
	} else {
		wb = wb[:len(wa)]
	}

	memPct := func(w telemetry.Window) float64 {
		total := w.SlotIssued + w.SlotStallMem + w.SlotStallALU +
			w.SlotStallBar + w.SlotStallStr + w.SlotIdle
		if total == 0 {
			return 0
		}
		return 100 * float64(w.SlotStallMem) / float64(total)
	}
	fmt.Printf("%-5s %-13s %-13s %8s %9s %9s %10s\n",
		"phase", "a cycles", "b cycles", "ΔIPC", "Δswaps", "Δmem%", "Δwarps")
	worst, worstDelta := -1, 0.0
	for i := range wa {
		x, y := wa[i], wb[i]
		dIPC := y.IPC() - x.IPC()
		if d := dIPC; d < 0 {
			d = -d
			if d > worstDelta {
				worst, worstDelta = i, d
			}
		} else if d > worstDelta {
			worst, worstDelta = i, d
		}
		fmt.Printf("%-5d %-13s %-13s %+8.2f %+9d %+9.1f %+10d\n", i,
			fmt.Sprintf("%d..%d", x.Cycle-x.Cycles, x.Cycle),
			fmt.Sprintf("%d..%d", y.Cycle-y.Cycles, y.Cycle),
			dIPC, y.SwapsOut-x.SwapsOut, memPct(y)-memPct(x),
			y.ActiveWarps-x.ActiveWarps)
	}
	if worst >= 0 {
		x, y := wa[worst], wb[worst]
		fmt.Printf("\nlargest IPC swing: phase %d (a %d..%d vs b %d..%d): %.2f -> %.2f\n",
			worst, x.Cycle-x.Cycles, x.Cycle, y.Cycle-y.Cycles, y.Cycle, x.IPC(), y.IPC())
	}
	return nil
}

func load(path string) (*gpu.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r gpu.Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vtdiff: "+format+"\n", args...)
	os.Exit(1)
}
