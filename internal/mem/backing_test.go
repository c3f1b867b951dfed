package mem

import (
	"reflect"
	"sync"
	"testing"
)

// fillImage stores a structured input across three pages, two of them
// partially, the way a workload's init does.
func fillImage(b *Backing) {
	for i := uint32(0); i < 1500; i++ {
		b.StoreWord(0x1000_0000+4*i, i*7+1)
	}
	b.StoreWord(0x2000_0000, 0xABCD)
}

func frozenImage() *Backing {
	img := NewBacking()
	fillImage(img)
	img.Freeze()
	return img
}

// TestBackingCopyOnWrite: a store into a shared page copies it. The
// storing backing reads its new word — also through its one-entry page
// cache, which held the shared page before the store — while the image
// and a sibling that shares it still read the old one.
func TestBackingCopyOnWrite(t *testing.T) {
	img := frozenImage()
	a, sib := NewBacking(), NewBacking()
	a.Share(img)
	sib.Share(img)

	const addr = 0x1000_0000 + 4*10
	if got := a.LoadWord(addr); got != 71 {
		t.Fatalf("shared word reads %d, want 71", got)
	}
	shared := img.pages[addr>>2>>pageWordBits]
	a.StoreWord(addr, 5)
	if got := a.LoadWord(addr); got != 5 {
		t.Fatalf("after the store the copy reads %d, want 5", got)
	}
	if got := a.LoadWord(addr + 4); got != 78 {
		t.Fatalf("the copied page lost its neighbour: %d, want 78", got)
	}
	for name, b := range map[string]*Backing{"image": img, "sibling": sib} {
		if got := b.LoadWord(addr); got != 71 {
			t.Errorf("%s reads %d after a sharer's store, want 71", name, got)
		}
	}
	if img.pages[addr>>2>>pageWordBits] != shared || !shared.frozen {
		t.Error("the store replaced or thawed the image's page")
	}
	if a.pages[addr>>2>>pageWordBits] == shared {
		t.Error("the storing backing still holds the shared page")
	}

	// A word no init stored, in a page nobody shares, is synthesized for
	// everyone until stored.
	const fresh = 0x3000_0000
	a.StoreWord(fresh, 9)
	if got, want := sib.LoadWord(fresh), synthWord(fresh>>2); got != want {
		t.Errorf("sibling reads %d at an address only the copy stored, want the synthesized %d", got, want)
	}
}

// TestBackingShareEqualsEagerInit: a backing that shares an image and
// then takes a run's stores is indistinguishable, by TouchedWords and by
// State, from one the init filled eagerly before the same stores.
func TestBackingShareEqualsEagerInit(t *testing.T) {
	eager, shared := NewBacking(), NewBacking()
	fillImage(eager)
	shared.Share(frozenImage())
	if e, s := eager.TouchedWords(), shared.TouchedWords(); e != s {
		t.Fatalf("before the run: TouchedWords eager %d, shared %d", e, s)
	}
	for _, b := range []*Backing{eager, shared} {
		b.StoreWord(0x1000_0000+4*3, 1)    // into a shared page
		b.StoreWord(0x1000_0000+4*1499, 2) // last stored word of the partial page
		b.StoreWord(0x1000_0000+4*1500, 3) // unstored word of the partial page
		b.StoreWord(0x4000_0000, 4)        // a page no init touched
	}
	if e, s := eager.TouchedWords(), shared.TouchedWords(); e != s {
		t.Errorf("TouchedWords: eager %d, shared %d", e, s)
	}
	if !reflect.DeepEqual(eager.State(), shared.State()) {
		t.Error("State of the shared backing differs from the eager one")
	}
}

// TestBackingShareConcurrent: goroutines that read one image while each
// stores into its own copy share no mutable state (run under -race). Each
// reads the image's pages through its own backing: a word it has not
// stored yet must still read the image's value after the others' stores.
func TestBackingShareConcurrent(t *testing.T) {
	img := frozenImage()
	var wg sync.WaitGroup
	for g := uint32(0); g < 4; g++ {
		wg.Add(1)
		go func(g uint32) {
			defer wg.Done()
			b := NewBacking()
			b.Share(img)
			for i := uint32(0); i < 1500; i++ {
				addr := 0x1000_0000 + 4*i
				if got := b.LoadWord(addr); got != i*7+1 {
					t.Errorf("copy %d reads image word %d as %d, want %d", g, i, got, i*7+1)
					return
				}
				b.StoreWord(addr, g)
				if got := b.LoadWord(addr); got != g {
					t.Errorf("copy %d word %d reads %d after its store, want %d", g, i, got, g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i := uint32(0); i < 1500; i++ {
		if got := img.LoadWord(0x1000_0000 + 4*i); got != i*7+1 {
			t.Fatalf("image word %d reads %d after the copies' stores, want %d", i, got, i*7+1)
		}
	}
}
