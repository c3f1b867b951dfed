package mem

import (
	"math/bits"

	"repro/internal/simt"
)

// CoalesceLinesInto appends to dst the distinct memory lines touched by
// the active lanes of a warp access, in first-touch order. addrs holds the
// per-lane byte addresses (indexed by lane); lineSize must be a power of
// two. This models the hardware coalescer: one transaction per distinct
// line segment. dst is typically a recycled buffer sliced to [:0], so
// steady-state callers allocate nothing.
func CoalesceLinesInto(dst []uint32, addrs []uint32, active simt.Mask, lineSize int) []uint32 {
	mask := ^uint32(lineSize - 1)
	lines := dst
	for lane := 0; lane < len(addrs); lane++ {
		if !active.Has(lane) {
			continue
		}
		la := addrs[lane] & mask
		seen := false
		for _, l := range lines {
			if l == la {
				seen = true
				break
			}
		}
		if !seen {
			lines = append(lines, la)
		}
	}
	return lines
}

// BankConflictFactor returns the shared-memory serialization factor for a
// warp access: the maximum number of active lanes whose word addresses fall
// in the same bank, with same-address lanes counted once (broadcast).
// numBanks must be a power of two no larger than 64. A conflict-free access
// returns 1; an access by zero lanes returns 0.
//
// Stack arrays hold the per-bank state, so a call allocates nothing.
// Distinct words chain per bank (head/next hold index+1, 0 = end), so the
// broadcast check scans only same-bank words — typically one or two —
// instead of every earlier active lane. The same word always maps to the
// same bank, so word equality is exactly the broadcast condition.
func BankConflictFactor(addrs []uint32, active simt.Mask, numBanks int) int {
	var counts [64]int32
	var words [64]uint32
	var head, next [64]int16
	n := int16(0)
	factor := 0
	m := active & simt.FullMask(len(addrs))
	for ; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(uint64(m))
		word := addrs[lane] >> 2
		bank := word & uint32(numBanks-1)
		dup := false
		for i := head[bank]; i != 0; i = next[i-1] {
			if words[i-1] == word {
				dup = true // broadcast: same word in same bank is free
				break
			}
		}
		if dup {
			continue
		}
		words[n] = word
		next[n] = head[bank]
		head[bank] = n + 1
		n++
		counts[bank]++
		if int(counts[bank]) > factor {
			factor = int(counts[bank])
		}
	}
	return factor
}
