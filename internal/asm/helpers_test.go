package asm

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/warp"
)

// newTestCTA instantiates CTA 0 of a launch for functional execution.
func newTestCTA(t *testing.T, l *isa.Launch) *warp.CTA {
	t.Helper()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return warp.NewCTA(l, 0, 32)
}

// execInstr functionally executes one instruction on the warp.
func execInstr(w *warp.Warp, in *isa.Instr, bk *mem.Backing, buf []uint32) {
	_, active, _ := w.Stack.Current()
	warp.Execute(w, in, active, bk, buf)
}
