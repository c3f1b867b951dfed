// Command vtsim runs one workload from the synthetic suite on the
// simulated GPU under a chosen CTA scheduling policy and prints the
// simulation statistics.
//
// Usage:
//
//	vtsim -workload bfs -policy vt
//	vtsim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	vtsim "repro"
	"repro/internal/config"
)

func main() {
	var (
		workload = flag.String("workload", "vecadd", "workload name (see -list)")
		policy   = flag.String("policy", "baseline", "baseline | vt | ideal | fullswap")
		sched    = flag.String("sched", "gto", "warp scheduler: gto | lrr")
		scale    = flag.Int("scale", 1, "grid size multiplier")
		sms      = flag.Int("sms", 0, "override SM count (0 = config default)")
		timeline = flag.Int64("timeline", 0, "telemetry window length in cycles; also print the occupancy series, one row per window (0 = default window, no series)")
		asJSON   = flag.Bool("json", false, "emit the full result as JSON")
		perfetto = flag.String("perfetto", "", "write a Chrome/Perfetto trace-event JSON timeline to this file")
		teleOut  = flag.String("telemetry", "", "write the telemetry ring dump (windows, spans, histogram) as JSON to this file")
		list     = flag.Bool("list", false, "list workloads and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range vtsim.WorkloadNames() {
			w, _ := vtsim.BuildWorkload(n, 1)
			fmt.Printf("%-12s %s\n", n, w.Description)
		}
		return
	}

	cfg := vtsim.GTX480()
	switch *policy {
	case "baseline":
		cfg.Policy = vtsim.PolicyBaseline
	case "vt":
		cfg.Policy = vtsim.PolicyVT
	case "ideal":
		cfg.Policy = vtsim.PolicyIdeal
	case "fullswap":
		cfg.Policy = vtsim.PolicyFullSwap
	default:
		fatalf("unknown policy %q", *policy)
	}
	switch *sched {
	case "gto":
		cfg.Scheduler = config.SchedGTO
	case "lrr":
		cfg.Scheduler = config.SchedLRR
	default:
		fatalf("unknown scheduler %q", *sched)
	}
	if *sms > 0 {
		cfg.NumSMs = *sms
	}

	w, err := vtsim.BuildWorkload(*workload, *scale)
	if err != nil {
		fatalf("%v", err)
	}
	var col *vtsim.Collector
	if *timeline > 0 || *perfetto != "" || *teleOut != "" {
		col = vtsim.NewCollector(vtsim.TelemetryConfig{Window: *timeline})
	}
	res, err := vtsim.RunCollected(w, cfg, 0, nil, col)
	if err != nil {
		fatalf("%v", err)
	}

	if *perfetto != "" {
		f, ferr := os.Create(*perfetto)
		if ferr != nil {
			fatalf("%v", ferr)
		}
		if err := col.WritePerfetto(f); err != nil {
			fatalf("perfetto: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("perfetto: %v", err)
		}
		fmt.Fprintf(os.Stderr, "perfetto: wrote %s (open at ui.perfetto.dev)\n", *perfetto)
	}
	if *teleOut != "" {
		f, ferr := os.Create(*teleOut)
		if ferr != nil {
			fatalf("%v", ferr)
		}
		enc := json.NewEncoder(f)
		if err := enc.Encode(col.Dump()); err != nil {
			fatalf("telemetry: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("telemetry: %v", err)
		}
		windows, spans := col.Totals()
		fmt.Fprintf(os.Stderr, "telemetry: wrote %d windows, %d spans to %s\n",
			windows, spans, *teleOut)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("%v", err)
		}
		return
	}

	fmt.Printf("workload:            %s (%s)\n", w.Name, w.Description)
	fmt.Printf("policy:              %s, scheduler %s, %d SMs\n", res.Policy, cfg.Scheduler, cfg.NumSMs)
	fmt.Printf("grid:                %d CTAs x %d threads\n", w.Launch.GridDim.Size(), w.Launch.BlockDim.Size())
	fmt.Printf("cycles:              %d\n", res.Cycles)
	fmt.Printf("warp instructions:   %d  (IPC %.3f)\n", res.SM.Issued, res.IPC())
	fmt.Printf("thread instructions: %d\n", res.SM.ThreadInstrs)
	fmt.Printf("active warps/SM:     %.1f  (resident %.1f)\n",
		res.AvgActiveWarpsPerSM(), res.AvgResidentWarpsPerSM())
	fmt.Printf("active CTAs/SM:      %.1f  (resident %.1f)\n",
		res.AvgActiveCTAsPerSM(), res.AvgResidentCTAsPerSM())
	fmt.Printf("occupancy limiter:   %s (%d CTAs; capacity %d)\n",
		res.Occupancy.Limiter, res.Occupancy.CTAs, res.Occupancy.CapacityCTAs)
	fmt.Printf("L1 hit rate:         %.3f   L2 hit rate: %.3f\n",
		res.Mem.L1HitRate(), res.Mem.L2HitRate())
	fmt.Printf("DRAM busy:           %.1f%%\n",
		100*float64(res.Mem.DRAMBusy)/float64(res.Cycles*int64(cfg.NumMemPartitions)))
	total := float64(res.SM.SlotIssued + res.SM.SlotStallMem + res.SM.SlotStallALU +
		res.SM.SlotStallBar + res.SM.SlotStallStr + res.SM.SlotIdle)
	fmt.Printf("issue slots:         issued %.1f%%, mem-stall %.1f%%, alu-stall %.1f%%, barrier %.1f%%, structural %.1f%%, idle %.1f%%\n",
		100*float64(res.SM.SlotIssued)/total, 100*float64(res.SM.SlotStallMem)/total,
		100*float64(res.SM.SlotStallALU)/total, 100*float64(res.SM.SlotStallBar)/total,
		100*float64(res.SM.SlotStallStr)/total, 100*float64(res.SM.SlotIdle)/total)
	if res.Policy == vtsim.PolicyVT || res.Policy == vtsim.PolicyFullSwap {
		fmt.Printf("VT swaps:            %d out / %d in (%d fresh activations)\n",
			res.VT.SwapsOut, res.VT.SwapsIn, res.VT.FreshActivates)
		fmt.Printf("VT context peak:     %d bytes; max resident %d CTAs/SM\n",
			res.VT.ContextPeak, res.VT.MaxResident)
	}
	if *timeline > 0 {
		ring := col.Dump().GPU
		perSM := func(n int) float64 { return float64(n) / float64(cfg.NumSMs) }
		fmt.Printf("\ntimeline (active warps/SM, resident warps/SM, interval IPC):\n")
		maxW := 0.0
		for _, w := range ring {
			maxW = max(maxW, perSM(w.ResidentWarps))
		}
		for _, w := range ring {
			act, resident := perSM(w.ActiveWarps), perSM(w.ResidentWarps)
			bar := ""
			if maxW > 0 {
				bar = strings.Repeat("#", int(act/maxW*40+0.5)) +
					strings.Repeat("-", int((resident-act)/maxW*40+0.5))
			}
			fmt.Printf("  %8d  act %5.1f  res %5.1f  ipc %6.2f  %s\n", w.Cycle, act, resident, w.IPC(), bar)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vtsim: "+format+"\n", args...)
	os.Exit(1)
}
