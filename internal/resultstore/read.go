package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

type objState int

const (
	objOK objState = iota
	objMissing
	objCorrupt
	objErr
)

// readObject reads and classifies one object's head file on one side. A
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

// Get returns an object's payload (the head payload for segmented
// objects), verifying its end-to-end checksum. A corrupt, unindexed or
// unreadable copy is healed from a healthy replica when one exists; with
// no healthy copy anywhere, corrupt files are quarantined and Get reports
// ErrNotFound so the caller recomputes (and its rewrite indexes).
//
// A definite miss — no index line has ever named the object and its
// file is absent on every healthy side — is answered without the store
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
// every healthy side, touching nothing s.mu guards. An object committed
// concurrently either shows up here (then the locked path decides) or
// the miss is ordered before its commit.
func (s *Store) definiteMiss(kind Kind, key string) bool {
	if _, ok := s.known.Load(objKey{kind, key}); ok {
		return false
	}
	for _, sd := range s.replicas {
		if sd.failed.Load() {
			continue
		}
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
	attempted := 0
	for _, sd := range s.sides {
		if sd.failed.Load() {
			continue
		}
		attempted++
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
	if attempted > 1 {
		// Served from a fallback side after the preferred one failed.
		s.counters.FailoverReads++
		s.event(Event{Op: "failover-read", Kind: string(kind), Key: key, Side: s.roleOf(goodSide)})
	}
	for _, sd := range badSides {
		s.repairObject(goodSide, sd, kind, key)
	}
	s.counters.Hits++
	return good, nil
}

// GetBlob reassembles a segmented object, verifying the head and every
// segment checksum.
func (s *Store) GetBlob(kind Kind, key string) ([]byte, error) {
	r, err := s.OpenBlob(kind, key)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// OpenBlob streams a segmented object. Each segment is checksummed as
// it is read; a bad segment is healed from a healthy replica when one
// exists.
func (s *Store) OpenBlob(kind Kind, key string) (io.ReadCloser, error) {
	s.mu.Lock()
	head, err := s.get(kind, key)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var h blobHead
	if err := json.Unmarshal(head, &h); err != nil || h.Blob == 0 {
		return nil, fmt.Errorf("resultstore: %s-%s is not a segmented object", kind, key)
	}
	return &blobReader{s: s, kind: kind, key: key, segs: h.Segments}, nil
}

type blobReader struct {
	s    *Store
	kind Kind
	key  string
	segs []segInfo
	idx  int
	cur  *bytes.Reader
}

func (r *blobReader) Read(p []byte) (int, error) {
	for r.cur == nil || r.cur.Len() == 0 {
		if r.idx >= len(r.segs) {
			return 0, io.EOF
		}
		b, err := r.s.getSegment(r.kind, r.key, r.idx, r.segs[r.idx])
		if err != nil {
			return 0, err
		}
		r.cur = bytes.NewReader(b)
		r.idx++
	}
	return r.cur.Read(p)
}

func (r *blobReader) Close() error { return nil }

// getSegment reads and verifies one value segment, healing from a
// replica on corruption.
func (s *Store) getSegment(kind Kind, key string, idx int, want segInfo) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var badSides []*side
	for _, sd := range s.sides {
		if sd.failed.Load() {
			continue
		}
		p := segPath(s.objPath(sd, kind, key), idx)
		b, err := s.fs.readFile(p)
		if err == nil && sumHex(b) == want.SHA {
			for _, bad := range badSides {
				s.repairObject(sd, bad, kind, key)
			}
			return b, nil
		}
		badSides = append(badSides, sd)
	}
	for _, sd := range badSides {
		s.quarantineSide(sd, kind, key, fmt.Sprintf("segment %d unreadable or corrupt, no healthy replica", idx))
	}
	return nil, fmt.Errorf("resultstore: %s-%s segment %d: %w", kind, key, idx, ErrNotFound)
}

// repairObject copies an object (head and segments) from a healthy side
// — one whose index vouches for its copy — to a damaged one,
// bit-identically, and re-indexes it there.
func (s *Store) repairObject(from, to *side, kind Kind, key string) {
	e, indexed := from.index[objKey{kind, key}]
	if !indexed {
		return
	}
	op := manifestOp{Kind: string(kind), Key: key, SHA: e.SHA, Size: e.Size}
	if e.Segs > 0 {
		// Segment checksums live in the head payload.
		head, err := s.fs.readFile(s.objPath(from, kind, key))
		if err != nil {
			return
		}
		var h blobHead
		if err := json.Unmarshal(head, &h); err != nil || len(h.Segments) != e.Segs {
			return
		}
		op.Segs = h.Segments
	}
	var ss syncSet
	ok := s.replicatePut(from, s.writerFor(to, &ss), "repair", op)
	if err := ss.flush(); ok && err == nil {
		s.counters.Repairs++
		s.event(Event{Op: "repair", Kind: string(kind), Key: key, Side: s.roleOf(to)})
	}
}

// Quarantine moves an object's files aside (path -> path.corrupt) on
// every side where they exist and drops their index entries, so a
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
	head := s.objPath(sd, kind, key)
	moved := false
	if _, err := os.Lstat(head); err == nil {
		if os.Rename(head, head+".corrupt") == nil {
			moved = true
		}
	}
	if e, ok := sd.index[objKey{kind, key}]; ok {
		for i := 0; i < e.Segs; i++ {
			sp := segPath(head, i)
			if _, err := os.Lstat(sp); err == nil {
				os.Rename(sp, sp+".corrupt")
			}
		}
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
