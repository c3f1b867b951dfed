package resultstore

import (
	"fmt"
	"os"
)

type objState int

const (
	objOK objState = iota
	objMissing
	objCorrupt
	objErr
)

// readObject reads and classifies one object on one side. A
// file no index line vouches for cannot be verified, so it is corrupt:
// no byte leaves the store without matching an indexed checksum.
func (s *Store) readObject(sd *side, kind Kind, key string) ([]byte, objState) {
	e, indexed := sd.index[objKey{kind, key}]
	b, err := s.fs.readFile(s.objPath(sd, kind, key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, objMissing
		}
		return nil, objErr
	}
	if !indexed || sumHex(b) != e.SHA {
		return nil, objCorrupt
	}
	return b, objOK
}

// Get returns an object's payload, verifying its end-to-end checksum. A
// corrupt, unindexed or unreadable copy is healed from a healthy replica
// when one exists; with no healthy copy anywhere, corrupt files are
// quarantined and Get reports ErrNotFound so the caller recomputes (and
// its rewrite indexes).
//
// A definite miss — no index line has ever named the object and its
// file is absent on every side — is answered without the store
// lock: it is the question every sweep slot asks before simulating, and
// it must not queue behind a batch commit's fsyncs. Anything else (a
// hit, a copy to verify, heal or quarantine) takes the lock.
func (s *Store) Get(kind Kind, key string) ([]byte, error) {
	if s.definiteMiss(kind, key) {
		s.lockFreeMisses.Add(1)
		return nil, ErrNotFound
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.get(kind, key)
}

// definiteMiss reports whether the object is unindexed and absent on
// every side, touching nothing s.mu guards. An object committed
// concurrently either shows up here (then the locked path decides) or
// the miss is ordered before its commit.
func (s *Store) definiteMiss(kind Kind, key string) bool {
	if _, ok := s.known.Load(objKey{kind, key}); ok {
		return false
	}
	for _, sd := range s.sides {
		if _, err := s.fs.readFile(s.objPath(sd, kind, key)); !os.IsNotExist(err) {
			return false
		}
	}
	return true
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
				s.quarantineSide(sd, kind, key, "checksum mismatch or no index entry, no healthy replica")
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

// repairObject copies an object from a healthy side — one whose index
// vouches for its copy — to a damaged one, bit-identically, and
// re-indexes it there.
func (s *Store) repairObject(from, to *side, kind Kind, key string) {
	e, indexed := from.index[objKey{kind, key}]
	if !indexed {
		return
	}
	op := manifestOp{Kind: string(kind), Key: key, SHA: e.SHA, Size: e.Size}
	var ss syncSet
	ok := s.replicatePut(from, s.writerFor(to, &ss), "repair", op)
	if err := ss.flush(); ok && err == nil {
		s.counters.Repairs++
		s.event(Event{Op: "repair", Kind: string(kind), Key: key, Side: s.roleOf(to)})
	}
}

// Quarantine moves an object's file aside (path -> path.corrupt) on
// every side where it exists and drops its index entries, so a
// damaged-but-undetectable-at-this-layer object (e.g. a stale envelope
// version) stops shadowing recomputation.
func (s *Store) Quarantine(kind Kind, key, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sd := range s.sides {
		s.quarantineSide(sd, kind, key, reason)
	}
}

func (s *Store) quarantineSide(sd *side, kind Kind, key, reason string) {
	path := s.objPath(sd, kind, key)
	moved := false
	if _, err := os.Lstat(path); err == nil {
		moved = os.Rename(path, path+".corrupt") == nil
	}
	if _, ok := sd.index[objKey{kind, key}]; ok {
		var ss syncSet
		s.writerFor(sd, &ss).index(indexEntry{Kind: string(kind), Key: key, Drop: true})
		ss.flush()
	}
	if moved {
		s.counters.Quarantines++
		s.event(Event{Op: "quarantine", Kind: string(kind), Key: key, Side: s.roleOf(sd), Detail: reason})
		fmt.Fprintf(os.Stderr, "resultstore: quarantined %s-%s on %s: %s\n", kind, key, s.roleOf(sd), reason)
	}
}
