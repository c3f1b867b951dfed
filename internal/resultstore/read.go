package resultstore

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/faultinject"
)

type objState int

const (
	objOK objState = iota
	objMissing
	objCorrupt
	objErr
)

// readObject reads and classifies one object on one side: only bytes
// whose checksum its index line records leave the store.
func (s *Store) readObject(sd *side, kind Kind, key string) ([]byte, objState) {
	e, indexed := sd.index[objKey{kind, key}]
	if !indexed {
		return nil, objMissing
	}
	b, err := s.readPack(sd, e.Off, e.Size)
	switch {
	case os.IsNotExist(err):
		return nil, objMissing
	case errors.Is(err, io.EOF): // the pack no longer holds the range whole
		return nil, objCorrupt
	case err != nil:
		return nil, objErr
	case sumHex(b) != e.SHA:
		return nil, objCorrupt
	}
	return b, objOK
}

// readPack reads size bytes at off of sd's pack through the side's read
// handle, opening it if none is held. It is one hooked read, retried once
// on error; a failed read drops the handle, so the retry opens the pack
// afresh. A range the pack does not hold whole fails with io.EOF.
// Callers hold s.mu.
func (s *Store) readPack(sd *side, off, size int64) (b []byte, err error) {
	path := sd.path(packFile)
	err = retryOnce(func() error {
		_, dieAfter, err := s.fs.apply(faultinject.StoreOpRead, path, nil)
		if err != nil {
			return err
		}
		if sd.pack == nil {
			sd.pack, err = os.Open(path)
		}
		if err == nil {
			b = make([]byte, size)
			if _, err = sd.pack.ReadAt(b, off); err != nil {
				s.dropPack(sd)
			}
		}
		if dieAfter {
			die(faultinject.StoreOpRead, path)
		}
		return err
	})
	return b, err
}

// dropPack closes sd's pack read handle, if one is held. Callers hold
// s.mu.
func (s *Store) dropPack(sd *side) {
	if sd.pack != nil {
		sd.pack.Close()
		sd.pack = nil
	}
}

// Get returns an object's payload, verifying its end-to-end checksum. A
// corrupt or unreadable copy is healed from a healthy replica when one
// exists; with no healthy copy anywhere, corrupt copies are quarantined
// and Get reports ErrNotFound so the caller recomputes (and its rewrite
// indexes).
//
// A definite miss — no index line has ever named the object — is
// answered from the in-memory index alone, without the store lock and
// without touching a file: it is the question every sweep slot asks
// before simulating, and it must not queue behind a batch commit's
// fsyncs. Anything else (a hit, a copy to verify, heal or quarantine)
// takes the lock. An object committed concurrently either is known by
// then (the locked path decides) or the miss is ordered before its
// commit.
func (s *Store) Get(kind Kind, key string) ([]byte, error) {
	if _, ok := s.known.Load(objKey{kind, key}); !ok {
		s.lockFreeMisses.Add(1)
		return nil, ErrNotFound
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.get(kind, key)
}

func (s *Store) get(kind Kind, key string) ([]byte, error) {
	s.counters.Gets++
	var good []byte
	var goodSide *side
	var badSides []*side
	sawCorrupt := false
	for _, sd := range s.sides {
		b, st := s.readObject(sd, kind, key)
		if st == objOK {
			good, goodSide = b, sd
			break
		}
		if st == objCorrupt || st == objErr {
			if st == objCorrupt {
				sawCorrupt = true
			}
			badSides = append(badSides, sd)
		}
	}
	if good == nil {
		if sawCorrupt {
			for _, sd := range badSides {
				s.quarantineSide(sd, kind, key, "checksum mismatch, no healthy replica")
			}
		}
		s.counters.Misses++
		return nil, ErrNotFound
	}
	if goodSide != s.sides[0] {
		// Served by the mirror: the primary's copy was missing or bad.
		s.counters.FailoverReads++
		s.event(Event{Op: "failover-read", Kind: string(kind), Key: key, Side: s.roleOf(goodSide)})
	}
	for _, sd := range badSides {
		s.repairObject(goodSide, sd, kind, key)
	}
	s.counters.Hits++
	return good, nil
}

// repairObject heals a damaged or missing copy by appending the healthy
// side's indexed copy — bit-identical, verified on both ends — to the
// damaged side's pack and re-indexing it there. The damaged range stays
// behind as dead bytes.
func (s *Store) repairObject(from, to *side, kind Kind, key string) {
	e, indexed := from.index[objKey{kind, key}]
	if !indexed {
		return
	}
	e.Tx = "repair"
	var ss syncSet
	err := s.copyObject(from, s.writerFor(to, &ss), e)
	if err = errors.Join(err, ss.flush()); err != nil {
		s.event(Event{Op: "repair-failed", Kind: string(kind), Key: key, Side: s.roleOf(to), Detail: err.Error()})
		return
	}
	s.counters.Repairs++
	s.event(Event{Op: "repair", Kind: string(kind), Key: key, Side: s.roleOf(to)})
}

// Quarantine drops an object from the index on every side that holds
// it, so a damaged-but-undetectable-at-this-layer object (e.g. a stale
// envelope version) stops shadowing recomputation. Its bytes stay in the
// pack, named by no live line.
func (s *Store) Quarantine(kind Kind, key, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sd := range s.sides {
		s.quarantineSide(sd, kind, key, reason)
	}
}

func (s *Store) quarantineSide(sd *side, kind Kind, key, reason string) {
	if _, ok := sd.index[objKey{kind, key}]; !ok {
		return
	}
	var ss syncSet
	err := s.writerFor(sd, &ss).index(indexEntry{Kind: string(kind), Key: key, Drop: true})
	if err = errors.Join(err, ss.flush()); err != nil {
		return
	}
	s.counters.Quarantines++
	s.event(Event{Op: "quarantine", Kind: string(kind), Key: key, Side: s.roleOf(sd), Detail: reason})
	fmt.Fprintf(os.Stderr, "resultstore: quarantined %s-%s on %s: %s\n", kind, key, s.roleOf(sd), reason)
}
