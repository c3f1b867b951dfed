package simt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFullMask(t *testing.T) {
	if FullMask(0) != 0 {
		t.Error("FullMask(0) != 0")
	}
	if FullMask(32) != 0xFFFFFFFF {
		t.Errorf("FullMask(32) = %x", uint64(FullMask(32)))
	}
	if FullMask(64) != ^Mask(0) {
		t.Error("FullMask(64) must set all bits")
	}
	if FullMask(1) != 1 {
		t.Error("FullMask(1) != 1")
	}
}

func TestMaskOps(t *testing.T) {
	m := Mask(0b1011)
	if m.Count() != 3 {
		t.Errorf("Count = %d, want 3", m.Count())
	}
	if !m.Has(0) || !m.Has(1) || m.Has(2) || !m.Has(3) {
		t.Error("Has wrong")
	}
}

func TestUniformFlow(t *testing.T) {
	var s Stack
	s.Reset(32)
	pc, active, ok := s.Current()
	if !ok || pc != 0 || active != FullMask(32) {
		t.Fatalf("initial state pc=%d active=%x ok=%v", pc, uint64(active), ok)
	}
	s.Advance()
	if pc, _, _ := s.Current(); pc != 1 {
		t.Errorf("after advance pc = %d, want 1", pc)
	}
	s.Jump(10)
	if pc, _, _ := s.Current(); pc != 10 {
		t.Errorf("after jump pc = %d, want 10", pc)
	}
	if len(s.Entries()) != 1 {
		t.Errorf("uniform flow must not grow stack, depth = %d", len(s.Entries()))
	}
}

func TestDivergeAndReconverge(t *testing.T) {
	var s Stack
	s.Reset(4)
	// At pc 0: lanes 0,1 branch to 5; lanes 2,3 fall through to 1.
	// Reconverge at 8.
	s.Branch(0b0011, 5, 8)
	if len(s.Entries()) != 3 {
		t.Fatalf("divergent branch depth = %d, want 3", len(s.Entries()))
	}
	pc, active, _ := s.Current()
	if pc != 5 || active != 0b0011 {
		t.Fatalf("taken path first: pc=%d active=%b", pc, active)
	}
	// Run taken path 5,6,7 -> pops at 8.
	s.Advance()
	s.Advance()
	s.Advance()
	pc, active, _ = s.Current()
	if pc != 1 || active != 0b1100 {
		t.Fatalf("fall-through path: pc=%d active=%b", pc, active)
	}
	// Run fall-through to 8 -> pops, reconverged.
	for i := 0; i < 7; i++ {
		s.Advance()
	}
	pc, active, _ = s.Current()
	if pc != 8 || active != 0b1111 {
		t.Fatalf("reconverged: pc=%d active=%b, want pc=8 active=1111", pc, active)
	}
	if len(s.Entries()) != 1 {
		t.Errorf("depth after reconvergence = %d, want 1", len(s.Entries()))
	}
}

func TestUniformBranches(t *testing.T) {
	var s Stack
	s.Reset(4)
	s.Branch(0b1111, 7, 9) // all taken
	if pc, _, _ := s.Current(); pc != 7 {
		t.Errorf("uniform taken pc = %d, want 7", pc)
	}
	if len(s.Entries()) != 1 {
		t.Errorf("uniform taken must not push, depth = %d", len(s.Entries()))
	}
	s.Branch(0, 3, 9) // none taken
	if pc, _, _ := s.Current(); pc != 8 {
		t.Errorf("uniform not-taken pc = %d, want 8", pc)
	}
}

func TestBranchMasksOutsideActiveIgnored(t *testing.T) {
	var s Stack
	s.Reset(2) // lanes 0,1
	s.Branch(0b1110, 5, 9)
	// Lane bits 2,3 are not part of the warp; only lane 1 diverges.
	pc, active, _ := s.Current()
	if pc != 5 || active != 0b0010 {
		t.Fatalf("taken path pc=%d active=%b", pc, active)
	}
}

func TestDivergentExit(t *testing.T) {
	var s Stack
	s.Reset(4)
	s.Branch(0b0011, 5, 8) // lanes 0,1 at pc 5
	_, active, _ := s.Current()
	s.Exit(active) // taken lanes exit inside the branch
	pc, active, ok := s.Current()
	if !ok || pc != 1 || active != 0b1100 {
		t.Fatalf("after divergent exit: pc=%d active=%b ok=%v", pc, active, ok)
	}
	// Remaining lanes run to reconv then to completion.
	for i := 0; i < 7; i++ {
		s.Advance()
	}
	pc, active, _ = s.Current()
	if pc != 8 || active != 0b1100 {
		t.Fatalf("post-reconv pc=%d active=%b", pc, active)
	}
	s.Exit(active)
	if !s.Finished() {
		t.Error("all lanes exited but warp not finished")
	}
	if s.Exited() != 0b1111 {
		t.Errorf("exited mask = %b", s.Exited())
	}
}

func TestNestedDivergence(t *testing.T) {
	var s Stack
	s.Reset(8)
	s.Branch(0x0F, 10, 30) // outer: lanes 0-3 to 10, 4-7 to 1
	// taken path (lanes 0-3) diverges again at pc 10
	s.Branch(0x03, 20, 25)
	pc, active, _ := s.Current()
	if pc != 20 || active != 0x03 {
		t.Fatalf("inner taken pc=%d active=%x", pc, active)
	}
	// run inner taken 20..24 -> pop to inner fall-through at 11
	for pc != 11 {
		s.Advance()
		pc, active, _ = s.Current()
	}
	if active != 0x0C {
		t.Fatalf("inner fall-through active=%x", active)
	}
	// run 11..24 -> pop to outer taken reconv entry? inner reconv 25
	for pc != 25 {
		s.Advance()
		pc, active, _ = s.Current()
	}
	if active != 0x0F {
		t.Fatalf("inner reconverged active=%x, want 0F", active)
	}
	// 25..29 -> outer fall-through at 1
	for pc != 1 {
		s.Advance()
		pc, active, _ = s.Current()
	}
	if active != 0xF0 {
		t.Fatalf("outer fall-through active=%x", active)
	}
	for pc != 30 {
		s.Advance()
		pc, active, _ = s.Current()
	}
	if active != 0xFF || len(s.Entries()) != 1 {
		t.Fatalf("fully reconverged active=%x depth=%d", active, len(s.Entries()))
	}
}

func TestSnapshotRestore(t *testing.T) {
	var s Stack
	s.Reset(8)
	s.Branch(0x0F, 10, 30)
	s.Exit(0x01)
	entries, exited := s.Entries(), s.Exited()

	// Mutate the original.
	s.Advance()
	s.Exit(0x02)

	var r Stack
	r.Reset(8)
	r.SetState(entries, exited)
	pc, active, _ := r.Current()
	if pc != 10 || active != 0x0E {
		t.Fatalf("restored pc=%d active=%x", pc, active)
	}
	if r.Exited() != 0x01 {
		t.Errorf("restored exited = %x", r.Exited())
	}
	// The saved state must be independent of later mutation.
	s.Exit(0xFF)
	if pc, _, _ := r.Current(); pc != 10 {
		t.Error("snapshot aliased live stack")
	}
}

func TestFootprintBytes(t *testing.T) {
	var s Stack
	s.Reset(32)
	if got := s.FootprintBytes(); got != 12+8 {
		t.Errorf("footprint = %d, want 20", got)
	}
	s.Branch(1, 5, 9)
	if got := s.FootprintBytes(); got != 3*12+8 {
		t.Errorf("diverged footprint = %d, want 44", got)
	}
}

func TestStringRenders(t *testing.T) {
	var s Stack
	s.Reset(2)
	if s.String() == "" {
		t.Error("String empty")
	}
}

// liveLanes is the union of live (non-exited) lanes across all entries.
func liveLanes(s *Stack) Mask {
	var m Mask
	for _, e := range s.Entries() {
		m |= e.Mask
	}
	return m &^ s.Exited()
}

// Property: under arbitrary branch/advance/exit sequences, lanes are never
// lost — every lane is either live in some entry or exited.
func TestNoLaneLossProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Stack
		n := 1 + rng.Intn(32)
		s.Reset(n)
		full := FullMask(n)
		for i := 0; i < 200 && !s.Finished(); i++ {
			if liveLanes(&s)|s.exited != full {
				return false
			}
			pc, active, ok := s.Current()
			if !ok {
				break
			}
			if active == 0 {
				return false // Current must never return an empty mask
			}
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4:
				s.Advance()
			case 5, 6:
				taken := Mask(rng.Uint64()) & active
				reconv := pc + 2 + int32(rng.Intn(5))
				target := pc + 1 + int32(rng.Intn(int(reconv-pc)))
				s.Branch(taken, target, reconv)
			case 7:
				s.Jump(pc + int32(rng.Intn(3)))
			case 8:
				s.Exit(active)
			case 9:
				// exit a random subset of active lanes
				s.Exit(Mask(rng.Uint64()) & active)
			}
			if len(s.Entries()) > 2*64 {
				return false // stack must stay bounded by nesting
			}
		}
		return liveLanes(&s)|s.exited == full
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the serialized state (Entries, Exited) taken at any point
// restores through SetState to an identical observable state (pc, active
// mask, exited mask, depth).
func TestSnapshotFidelityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Stack
		n := 1 + rng.Intn(32)
		s.Reset(n)
		for i := 0; i < 50 && !s.Finished(); i++ {
			pc, active, ok := s.Current()
			if !ok {
				break
			}
			if rng.Intn(3) == 0 {
				s.Branch(Mask(rng.Uint64())&active, pc+1, pc+3)
			} else {
				s.Advance()
			}
		}
		var r Stack
		r.SetState(s.Entries(), s.Exited())
		p1, a1, ok1 := s.Current()
		p2, a2, ok2 := r.Current()
		return p1 == p2 && a1 == a2 && ok1 == ok2 &&
			s.Exited() == r.Exited() && len(s.Entries()) == len(r.Entries())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
