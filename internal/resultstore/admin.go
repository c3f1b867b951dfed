package resultstore

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// Report summarizes a Verify or Repair pass.
type Report struct {
	// Checked counts distinct indexed objects examined.
	Checked int
	// Healthy counts objects valid on every attached side.
	Healthy int
	// Repaired counts object copies healed from a healthy replica
	// (Repair only).
	Repaired int
	// Backfilled lists append targets brought up to the other side's
	// ("side name: +N lines"; Repair only).
	Backfilled []string
	// Damaged lists objects and append targets with a detected problem
	// that was not fixed ("side name: reason"); populated by Verify, empty
	// after a fully successful Repair.
	Damaged []string
	// Unrecoverable lists objects with no healthy copy on any side.
	Unrecoverable []string
}

// Verify audits every indexed object and every append target on every
// side without modifying anything.
func (s *Store) Verify() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verifyRepair(false)
}

// Repair audits like Verify and additionally heals: a healthy replica's
// copy is appended bit-identically to every side whose copy is damaged or
// missing, objects
// with no healthy copy anywhere are quarantined so later reads recompute
// instead of failing, and an append target one side is behind on is
// back-filled from the other — which is what rebuilds a lost side whole.
func (s *Store) Repair() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verifyRepair(true)
}

func (s *Store) verifyRepair(fix bool) Report {
	var rep Report
	keys := map[objKey]bool{}
	for _, sd := range s.sides {
		// An audit reads each pack as the directory holds it now: a held
		// handle would still serve a pack that has since been removed.
		s.dropPack(sd)
		for k := range sd.index {
			keys[k] = true
		}
	}
	ordered := make([]objKey, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	slices.SortFunc(ordered, func(a, b objKey) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.key, b.key))
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
			_, st := s.readObject(sd, k.kind, k.key)
			if st != objOK {
				bad = append(bad, damage{sd, st})
			} else if goodSide == nil {
				goodSide = sd
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
					detail := [...]string{objMissing: "missing", objCorrupt: "checksum mismatch", objErr: "read error"}[d.st]
					rep.Damaged = append(rep.Damaged, fmt.Sprintf("%s %s: %s", s.roleOf(d.sd), name, detail))
				}
			}
		}
	}
	s.syncAppends(fix, &rep)
	return rep
}

// appendLines returns the complete lines of a side's copy of an append
// target, in file order and as a set; a missing file has none. A torn
// line — a crashed writer's tail, later closed by a healing newline — is
// never valid JSON and is left out; a line that a roll-forward replayed
// (appends are at-least-once) counts once.
func (s *Store) appendLines(sd *side, rel string) (lines []string, has map[string]bool, err error) {
	b, err := s.fs.readFile(filepath.Join(sd.dir, rel))
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	has = map[string]bool{}
	for _, raw := range bytes.Split(b, []byte("\n")) {
		if ln := string(raw); json.Valid(raw) && !has[ln] {
			lines, has[ln] = append(lines, ln), true
		}
	}
	return lines, has, nil
}

// syncAppends audits the append targets (the *.jsonl files other than
// index and audit log) of a mirrored store. A side that lacks lines the
// other holds — its file lost with the directory, or stale — is behind:
// Verify reports it, Repair appends the missing lines in the other
// side's order, through the same hooked, fsynced appends a commit uses.
// Nothing is ever truncated or rewritten, and when each side holds lines
// the other lacks, or a copy cannot be read, it is reported and both are
// left alone.
func (s *Store) syncAppends(fix bool, rep *Report) {
	if len(s.sides) < 2 {
		return
	}
	var rels []string
	for _, sd := range s.sides {
		matches, _ := filepath.Glob(filepath.Join(sd.dir, "*.jsonl")) // the pattern is well-formed
		for _, m := range matches {
			if rel := filepath.Base(m); rel != indexFile && rel != auditFile && !slices.Contains(rels, rel) {
				rels = append(rels, rel)
			}
		}
	}
	slices.Sort(rels)
	var ss syncSet
	defer ss.drop()
	for _, rel := range rels {
		var lines [2][]string
		var has [2]map[string]bool
		var rerr error
		for i, sd := range s.sides {
			if lines[i], has[i], rerr = s.appendLines(sd, rel); rerr != nil {
				rep.Damaged = append(rep.Damaged, fmt.Sprintf("%s %s: %v", s.roleOf(sd), rel, rerr))
				break
			}
		}
		if rerr != nil {
			continue
		}
		var lacks [2][]string // per side: the lines only the other side holds
		for i := range s.sides {
			lacks[i] = slices.DeleteFunc(slices.Clone(lines[1-i]), func(ln string) bool { return has[i][ln] })
		}
		for i, sd := range s.sides {
			if len(lacks[i]) == 0 {
				continue
			}
			if fix && len(lacks[1-i]) == 0 && s.backfill(sd, &ss, rel, lacks[i]) {
				rep.Backfilled = append(rep.Backfilled, fmt.Sprintf("%s %s: +%d lines", s.roleOf(sd), rel, len(lacks[i])))
				continue
			}
			rep.Damaged = append(rep.Damaged, fmt.Sprintf("%s %s: lacks %d lines the %s holds",
				s.roleOf(sd), rel, len(lacks[i]), s.roleOf(s.sides[1-i])))
		}
	}
}

// backfill appends lines to a side's append target and makes them
// durable.
func (s *Store) backfill(sd *side, ss *syncSet, rel string, lines []string) bool {
	w := s.writerFor(sd, ss)
	for _, ln := range lines {
		if w.line(rel, []byte(ln)) != nil {
			return false
		}
	}
	if ss.flush(s.fs) != nil {
		return false
	}
	s.event(Event{Op: "backfill", Key: rel, Side: s.roleOf(sd), Detail: fmt.Sprintf("%d lines", len(lines))})
	return true
}

// KindInventory summarizes one object kind on the primary.
type KindInventory struct {
	Kind    string
	Objects int // indexed objects
	Bytes   int64
}

// Inventory summarizes the primary's contents by kind.
func (s *Store) Inventory() []KindInventory {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The three kinds the store defines are listed even when empty.
	byKind := map[Kind]KindInventory{KindResult: {}, KindCheckpoint: {}, KindArtifact: {}}
	for k, e := range s.sides[0].index {
		inv := byKind[k.kind]
		inv.Objects++
		inv.Bytes += e.Size
		byKind[k.kind] = inv
	}
	out := make([]KindInventory, 0, len(byKind))
	for kind, inv := range byKind {
		inv.Kind = string(kind)
		out = append(out, inv)
	}
	slices.SortFunc(out, func(a, b KindInventory) int { return cmp.Compare(a.Kind, b.Kind) })
	return out
}

// SideInfo describes one replica directory for status displays.
type SideInfo struct {
	Dir     string
	Role    string
	Indexed int
}

// Sides reports the store's replica directories in role order.
func (s *Store) Sides() []SideInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SideInfo, 0, len(s.sides))
	for _, sd := range s.sides {
		out = append(out, SideInfo{Dir: sd.dir, Role: s.roleOf(sd), Indexed: len(sd.index)})
	}
	return out
}
