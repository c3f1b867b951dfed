// Package simt implements the SIMT reconvergence stack that tracks control
// flow divergence within a warp. The stack follows the classic
// immediate-post-dominator (PDOM) scheme: a divergent branch pushes entries
// for the taken and fall-through paths below a reconvergence entry; a path
// pops when its PC reaches its reconvergence PC. Per-lane exit is handled
// by an exited-lane mask maintained alongside the stack.
//
// The size of this stack is exactly the scheduling structure whose scarcity
// motivates the Virtual Thread architecture: each warp slot owns one stack,
// and an inactive CTA's stacks are what VT saves into the context buffer.
package simt

import (
	"fmt"
	"math/bits"
)

// Mask is a set of lanes within a warp, one bit per lane (up to 64 lanes).
type Mask uint64

// FullMask returns the mask with the low n lanes set.
func FullMask(n int) Mask {
	if n >= 64 {
		return ^Mask(0)
	}
	return Mask(1)<<uint(n) - 1
}

// Count returns the number of lanes in the mask.
func (m Mask) Count() int { return bits.OnesCount64(uint64(m)) }

// Has reports whether lane i is in the mask.
func (m Mask) Has(i int) bool { return m>>uint(i)&1 != 0 }

// Entry is one reconvergence stack entry: the lanes executing the path, the
// path's next PC, and the PC at which the path rejoins its parent.
type Entry struct {
	PC     int32
	Reconv int32 // -1 for the top-level entry
	Mask   Mask
}

// Stack is a warp's SIMT reconvergence stack. The active entry is the last
// element. The zero value is an empty (finished) stack; use Reset to start
// a warp.
type Stack struct {
	entries []Entry
	exited  Mask
}

// Reset initializes the stack for a warp of n lanes starting at PC 0.
func (s *Stack) Reset(n int) {
	s.entries = s.entries[:0]
	s.entries = append(s.entries, Entry{PC: 0, Reconv: -1, Mask: FullMask(n)})
	s.exited = 0
	s.normalize()
}

// Exited returns the mask of lanes that have executed exit.
func (s *Stack) Exited() Mask { return s.exited }

// Finished reports whether the warp has no lanes left to run.
func (s *Stack) Finished() bool { return len(s.entries) == 0 }

// top returns the active entry, nil when the warp is finished. The stack is
// kept normalized — its top entry, if any, has a live lane — by every
// mutator (each ends in popAtReconv) and every state loader, so reading the
// top is O(1) and never mutates.
func (s *Stack) top() *Entry {
	if n := len(s.entries); n > 0 {
		return &s.entries[n-1]
	}
	return nil
}

// normalize pops entries whose live lanes are empty (all exited) and
// returns the new top, nil when the warp is finished.
func (s *Stack) normalize() *Entry {
	for len(s.entries) > 0 {
		e := &s.entries[len(s.entries)-1]
		if e.Mask&^s.exited != 0 {
			return e
		}
		s.entries = s.entries[:len(s.entries)-1]
	}
	return nil
}

// Current returns the PC and live lane mask the warp will execute next.
// ok is false when the warp has finished.
func (s *Stack) Current() (pc int32, active Mask, ok bool) {
	e := s.top()
	if e == nil {
		return 0, 0, false
	}
	return e.PC, e.Mask &^ s.exited, true
}

// Advance moves the active path past a non-control instruction, popping at
// the reconvergence point if reached. Advance, Jump and Branch act on the
// path Current just returned, so the warp must not have finished.
func (s *Stack) Advance() {
	s.top().PC++
	s.popAtReconv()
}

// Jump redirects the active path to target (a uniform jump).
func (s *Stack) Jump(target int32) {
	s.top().PC = target
	s.popAtReconv()
}

// Branch applies a possibly-divergent conditional branch executed at the
// active entry: lanes in taken jump to target, the rest fall through to the
// next PC; all lanes reconverge at reconv. taken must be a subset of the
// current active mask.
func (s *Stack) Branch(taken Mask, target, reconv int32) {
	e := s.top()
	active := e.Mask &^ s.exited
	taken &= active
	notTaken := active &^ taken
	fallPC := e.PC + 1

	switch {
	case taken == 0: // uniform not-taken
		e.PC = fallPC
	case notTaken == 0: // uniform taken
		e.PC = target
	default: // divergent: current entry becomes the reconvergence entry
		e.PC = reconv
		// Execute the fall-through path first, then the taken path
		// (taken on top runs first; order is a policy choice and does
		// not affect correctness).
		s.entries = append(s.entries,
			Entry{PC: fallPC, Reconv: reconv, Mask: notTaken},
			Entry{PC: target, Reconv: reconv, Mask: taken},
		)
	}
	s.popAtReconv()
}

// Exit retires the given lanes. Entries whose live lanes all exited are
// popped by popAtReconv's normalization.
func (s *Stack) Exit(lanes Mask) {
	s.exited |= lanes
	s.popAtReconv()
}

// popAtReconv pops entries whose PC has reached their reconvergence PC,
// merging control back into the parent entry. Multiple levels can pop when
// nested paths share a reconvergence point.
func (s *Stack) popAtReconv() {
	for {
		e := s.normalize()
		if e == nil || e.Reconv < 0 || e.PC != e.Reconv {
			return
		}
		s.entries = s.entries[:len(s.entries)-1]
	}
}

// FootprintBytes returns the context-buffer bytes needed to save this
// stack: 12 bytes per entry (PC, reconv PC, mask word) plus the exited
// mask. Used to account VT hardware cost.
func (s *Stack) FootprintBytes() int { return 12*len(s.entries) + 8 }

// Entries returns a copy of the stack entries, bottom first. Together
// with Exited it is the stack's complete serializable state.
func (s *Stack) Entries() []Entry {
	return append([]Entry(nil), s.entries...)
}

// SetState replaces the stack contents from serialized state (the inverse
// of Entries/Exited). The entries slice is copied.
func (s *Stack) SetState(entries []Entry, exited Mask) {
	s.entries = append(s.entries[:0], entries...)
	s.exited = exited
	s.normalize()
}

// String renders the stack for debugging, top entry last.
func (s *Stack) String() string {
	out := "["
	for i, e := range s.entries {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("{pc=%d rpc=%d mask=%x}", e.PC, e.Reconv, uint64(e.Mask))
	}
	return out + fmt.Sprintf("] exited=%x", uint64(s.exited))
}
