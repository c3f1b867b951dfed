package resultstore

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
)

// Report summarizes a Verify or Repair pass.
type Report struct {
	// Checked counts distinct indexed objects examined.
	Checked int
	// Healthy counts objects valid on every attached side.
	Healthy int
	// Repaired counts objects healed by copying from a healthy replica
	// (Repair only).
	Repaired int
	// Damaged lists objects with a detected problem that was not fixed
	// ("side kind-key: reason"); populated by Verify, empty after a fully
	// successful Repair.
	Damaged []string
	// Unrecoverable lists objects with no healthy copy on any side.
	Unrecoverable []string
}

// Verify audits every indexed object on every side — head and segment
// checksums — without modifying anything.
func (s *Store) Verify() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verifyRepair(false)
}

// Repair audits like Verify and additionally heals: damaged or missing
// copies are rewritten bit-identically from a healthy replica, and
// objects with no healthy copy anywhere are quarantined so later reads
// recompute instead of failing.
func (s *Store) Repair() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verifyRepair(true)
}

// verifyObject classifies one object on one side, including segment
// checksums for segmented objects. Callers hold s.mu.
func (s *Store) verifyObject(sd *side, kind Kind, key string) objState {
	b, st := s.readObject(sd, kind, key)
	if st != objOK {
		return st
	}
	e := sd.index[objKey{kind, key}]
	if e.Segs == 0 {
		return objOK
	}
	var h blobHead
	if err := json.Unmarshal(b, &h); err != nil || len(h.Segments) != e.Segs {
		return objCorrupt
	}
	head := s.objPath(sd, kind, key)
	for i, si := range h.Segments {
		sb, err := s.fs.readFile(segPath(head, i))
		if err != nil || sumHex(sb) != si.SHA {
			return objCorrupt
		}
	}
	return objOK
}

func (s *Store) verifyRepair(fix bool) Report {
	var rep Report
	keys := map[objKey]bool{}
	for _, sd := range s.sides {
		for k := range sd.index {
			keys[k] = true
		}
	}
	ordered := make([]objKey, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].kind != ordered[j].kind {
			return ordered[i].kind < ordered[j].kind
		}
		return ordered[i].key < ordered[j].key
	})
	for _, k := range ordered {
		rep.Checked++
		var goodSide *side
		type damage struct {
			sd *side
			st objState
		}
		var bad []damage
		for _, sd := range s.sides {
			st := s.verifyObject(sd, k.kind, k.key)
			switch st {
			case objOK:
				if goodSide == nil {
					goodSide = sd
				}
			default:
				bad = append(bad, damage{sd, st})
			}
		}
		name := fmt.Sprintf("%s-%s", k.kind, k.key)
		switch {
		case goodSide == nil:
			rep.Unrecoverable = append(rep.Unrecoverable, name)
			if fix {
				for _, sd := range s.sides {
					s.quarantineSide(sd, k.kind, k.key, "verify: no healthy copy on any side")
				}
			}
		case len(bad) == 0:
			rep.Healthy++
		default:
			for _, d := range bad {
				if fix {
					s.repairObject(goodSide, d.sd, k.kind, k.key)
					rep.Repaired++
				} else {
					detail := "missing"
					if d.st == objCorrupt {
						detail = "checksum mismatch"
					} else if d.st == objErr {
						detail = "read error"
					}
					rep.Damaged = append(rep.Damaged, fmt.Sprintf("%s %s: %s", s.roleOf(d.sd), name, detail))
				}
			}
		}
	}
	return rep
}

// Failover marks the primary side failed: reads and commits move to the
// mirror until Reinstate.
func (s *Store) Failover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sides) < 2 {
		return fmt.Errorf("resultstore: failover requires a mirror")
	}
	if s.sides[0].failed.Load() {
		return fmt.Errorf("resultstore: primary already failed over")
	}
	if s.sides[1].failed.Load() {
		return fmt.Errorf("resultstore: mirror is failed; cannot fail over to it")
	}
	s.sides[0].failed.Store(true)
	s.event(Event{Op: "failover", Side: "primary", Detail: s.sides[0].dir})
	return nil
}

// Reinstate returns a failed side to service: the survivor's journal
// files are copied over (the survivor saw every append during the
// outage), objects are repair-synced, and the side is marked healthy.
func (s *Store) Reinstate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var back *side
	for _, sd := range s.sides {
		if sd.failed.Load() {
			back = sd
			break
		}
	}
	if back == nil {
		return fmt.Errorf("resultstore: no failed side to reinstate")
	}
	donor := s.serving()
	if donor == nil {
		return fmt.Errorf("resultstore: no healthy side to reinstate from")
	}
	// Journal-style append targets missed during the outage: byte-copy
	// from the donor (its journal is a superset of the stale side's).
	if matches, err := filepath.Glob(filepath.Join(donor.dir, "*.jsonl")); err == nil {
		var ss syncSet
		for _, src := range matches {
			base := filepath.Base(src)
			if base == indexFile || base == auditFile {
				continue
			}
			b, err := s.fs.readFile(src)
			if err != nil {
				continue
			}
			dst := filepath.Join(back.dir, base)
			if cur, err := s.fs.readFile(dst); err == nil && string(cur) == string(b) {
				continue
			}
			s.fs.writeFile(&ss, dst, b)
		}
		ss.flush()
	}
	back.failed.Store(false)
	s.event(Event{Op: "reinstate", Side: s.roleOf(back), Detail: back.dir})
	s.verifyRepair(true)
	return nil
}

// Flip swaps primary and mirror roles. Both sides must be healthy.
func (s *Store) Flip() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sides) < 2 {
		return fmt.Errorf("resultstore: flip requires a mirror")
	}
	if s.sides[0].failed.Load() || s.sides[1].failed.Load() {
		return fmt.Errorf("resultstore: flip requires both sides healthy")
	}
	s.sides[0], s.sides[1] = s.sides[1], s.sides[0]
	s.event(Event{Op: "flip", Detail: fmt.Sprintf("primary is now %s", s.sides[0].dir)})
	return nil
}

// KindInventory summarizes one object kind on the serving side.
type KindInventory struct {
	Kind      string
	Objects   int // indexed objects
	Segmented int // indexed objects stored as value segments
	Bytes     int64
}

// Inventory summarizes the serving side's contents by kind.
func (s *Store) Inventory() []KindInventory {
	s.mu.Lock()
	defer s.mu.Unlock()
	sd := s.serving()
	if sd == nil {
		sd = s.sides[0]
	}
	byKind := map[Kind]*KindInventory{}
	for _, kind := range []Kind{KindResult, KindCheckpoint, KindArtifact} {
		byKind[kind] = &KindInventory{Kind: string(kind)}
	}
	for k, e := range sd.index {
		inv, ok := byKind[k.kind]
		if !ok {
			inv = &KindInventory{Kind: string(k.kind)}
			byKind[k.kind] = inv
		}
		inv.Objects++
		inv.Bytes += e.Size
		if e.Segs > 0 {
			inv.Segmented++
		}
	}
	out := make([]KindInventory, 0, len(byKind))
	for _, inv := range byKind {
		out = append(out, *inv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// SideInfo describes one replica directory for status displays.
type SideInfo struct {
	Dir     string
	Role    string
	Failed  bool
	Indexed int
}

// Sides reports the store's replica directories in role order.
func (s *Store) Sides() []SideInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SideInfo, 0, len(s.sides))
	for _, sd := range s.sides {
		out = append(out, SideInfo{Dir: sd.dir, Role: s.roleOf(sd), Failed: sd.failed.Load(), Indexed: len(sd.index)})
	}
	return out
}
