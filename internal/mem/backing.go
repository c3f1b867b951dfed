// Package mem implements the GPU memory system: the functional backing
// store that holds global-memory contents, the per-warp access coalescer,
// L1 data caches with MSHR-based miss handling, and banked L2/DRAM memory
// partitions with latency and bandwidth modeling. Timing is event-driven:
// the load-store units hand coalesced line transactions to System, which
// calls back when the data returns.
package mem

import (
	"math"
	"math/bits"
)

// Backing is the functional contents of global memory. It is word-granular
// and lazily populated: a word never stored reads as a deterministic
// pseudo-random value derived from its address, so data-dependent kernels
// have stable inputs without preloading gigabytes. Hosts preinitialize
// structured inputs (graphs, matrices) with the store helpers.
//
// Storage is paged: stored words live in 4 KiB pages found through a map
// keyed by page index, with a one-entry cache of the last page touched
// (global-memory traffic is strongly page-local, so most accesses skip
// the map). A per-page written bitmap distinguishes stored words from
// untouched ones, which must keep reading as their synthesized values.
//
// A page may be frozen: Freeze turns a fully initialized backing into an
// image whose pages any number of other backings share (Share). A frozen
// page is read in place and never written; StoreWord, the only writer of
// page words, copies it into the storing backing first. So a sweep fills
// a workload's inputs once and every run starts from them at the cost of
// the pages it writes.
//
// Backing is not safe for concurrent use; each simulation owns one. An
// image is the exception: any number of goroutines may Share it at once
// and read its pages through their own backings (not through the image's
// own LoadWord, whose page cache is per backing).
type Backing struct {
	pages    map[uint32]*backingPage
	lastIdx  uint32
	lastPage *backingPage
}

const (
	pageWordBits = 10
	pageWords    = 1 << pageWordBits // words per page (4 KiB)
)

type backingPage struct {
	words   [pageWords]uint32
	written [pageWords / 64]uint64
	frozen  bool // part of an image: copied on the first store
}

// NewBacking returns an empty backing store.
func NewBacking() *Backing {
	return &Backing{pages: make(map[uint32]*backingPage)}
}

// pageOf returns the page holding word index widx, or nil when no word in
// it has been stored.
func (b *Backing) pageOf(widx uint32) *backingPage {
	pi := widx >> pageWordBits
	if b.lastPage != nil && b.lastIdx == pi {
		return b.lastPage
	}
	p := b.pages[pi]
	if p != nil {
		b.lastIdx, b.lastPage = pi, p
	}
	return p
}

// synthWord derives the default contents of an untouched word index.
func synthWord(widx uint32) uint32 {
	x := widx*2654435761 + 0x9E3779B9
	x ^= x >> 16
	x *= 0x85EBCA6B
	x ^= x >> 13
	return x
}

// LoadWord returns the 32-bit word containing the byte address (which is
// aligned down to a word boundary).
func (b *Backing) LoadWord(addr uint32) uint32 {
	w := addr >> 2
	if p := b.pageOf(w); p != nil {
		o := w & (pageWords - 1)
		if p.written[o>>6]&(1<<(o&63)) != 0 {
			return p.words[o]
		}
	}
	return synthWord(w)
}

// StoreWord writes the 32-bit word containing the byte address.
func (b *Backing) StoreWord(addr, v uint32) {
	w := addr >> 2
	p := b.pageOf(w)
	if p == nil || p.frozen {
		q := &backingPage{}
		if p != nil {
			q.words, q.written = p.words, p.written
		}
		pi := w >> pageWordBits
		b.pages[pi] = q
		b.lastIdx, b.lastPage = pi, q
		p = q
	}
	o := w & (pageWords - 1)
	p.written[o>>6] |= 1 << (o & 63)
	p.words[o] = v
}

// Freeze makes b an image: every stored page becomes read-only and
// shareable (see Share). b itself must not be stored into afterwards, so
// that its page map stays fixed while others read it.
func (b *Backing) Freeze() {
	for _, p := range b.pages {
		p.frozen = true
	}
}

// Share gives the empty backing b the frozen image img's contents without
// copying them: b reads img's pages in place and copies one on its first
// store into it. It is how a run's initial memory comes from an image
// built once.
func (b *Backing) Share(img *Backing) {
	if len(b.pages) != 0 {
		panic("mem: Share into a backing that holds stored words")
	}
	for idx, p := range img.pages {
		if !p.frozen {
			panic("mem: Share of a backing that is not frozen")
		}
		b.pages[idx] = p
	}
}

// WriteWords stores a contiguous slice of words starting at base.
func (b *Backing) WriteWords(base uint32, vals []uint32) {
	for i, v := range vals {
		b.StoreWord(base+uint32(i)*4, v)
	}
}

// WriteFloats stores float32 values as their IEEE bits starting at base.
func (b *Backing) WriteFloats(base uint32, vals []float32) {
	for i, v := range vals {
		b.StoreWord(base+uint32(i)*4, math.Float32bits(v))
	}
}

// LoadFloat reads a float32 from the byte address.
func (b *Backing) LoadFloat(addr uint32) float32 {
	return math.Float32frombits(b.LoadWord(addr))
}

// TouchedWords returns how many words have been explicitly stored; used by
// tests to bound memory growth.
func (b *Backing) TouchedWords() int {
	n := 0
	for _, p := range b.pages {
		for _, w := range p.written {
			n += bits.OnesCount64(w)
		}
	}
	return n
}
