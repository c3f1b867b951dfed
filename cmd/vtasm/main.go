// Command vtasm assembles a .vta kernel file and either runs it on the
// simulated GPU or disassembles/validates it.
//
// Usage:
//
//	vtasm kernel.vta -grid 64 -block 128 -param 0x100000 -param 0x200000
//	vtasm -check kernel.vta          # assemble only, report resources
//	vtasm -disasm kernel.vta         # round-trip through the disassembler
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	vtsim "repro"
	"repro/internal/asm"
	"repro/internal/cta"
	"repro/internal/isa"
)

type paramList []uint32

func (p *paramList) String() string { return fmt.Sprint(*p) }
func (p *paramList) Set(s string) error {
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return err
	}
	*p = append(*p, uint32(v))
	return nil
}

func main() {
	cfg := vtsim.GTX480()
	flag.TextVar(&cfg.Policy, "policy", cfg.Policy, "baseline | vt | ideal | fullswap")
	var (
		grid   = flag.Int("grid", 60, "grid size (CTAs)")
		block  = flag.Int("block", 128, "threads per CTA")
		check  = flag.Bool("check", false, "assemble and report resources only")
		disasm = flag.Bool("disasm", false, "assemble then print the disassembly")
		params paramList
	)
	flag.Var(&params, "param", "kernel parameter (repeatable, accepts 0x)")
	flag.Parse()

	if flag.NArg() != 1 {
		fatalf("usage: vtasm [flags] kernel.vta")
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	k, err := asm.Assemble(string(src))
	if err != nil {
		fatalf("%v", err)
	}

	if *disasm {
		fmt.Print(asm.Disassemble(k))
		return
	}

	l := &isa.Launch{
		Kernel:   k,
		GridDim:  isa.Dim1(*grid),
		BlockDim: isa.Dim1(*block),
		Params:   params,
	}
	if err := l.Validate(); err != nil {
		fatalf("%v", err)
	}

	o := cta.ComputeOccupancy(l, &cfg)
	fmt.Printf("kernel %s: %d instructions, %d regs/thread, %d B shared\n",
		k.Name, len(k.Code), k.NumRegs, k.SMemBytes)
	fmt.Printf("occupancy: %d CTAs/SM (limiter %s; capacity %d)\n",
		o.CTAs, o.Limiter, o.CapacityCTAs)
	if *check {
		return
	}

	res, err := vtsim.RunLaunch(l, cfg, nil, nil)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("policy %s: %d cycles, IPC %.3f, active warps/SM %.1f (resident %.1f)\n",
		res.Policy, res.Cycles, res.IPC(), res.AvgActiveWarpsPerSM(), res.AvgResidentWarpsPerSM())
	if res.VT.SwapsOut > 0 {
		fmt.Printf("VT: %d swaps, context peak %d B\n", res.VT.SwapsOut, res.VT.ContextPeak)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vtasm: "+format+"\n", args...)
	os.Exit(1)
}
