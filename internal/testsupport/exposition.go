package testsupport

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ValidateExposition parses Prometheus text exposition independently of
// sweepobs.Registry's writer and checks the structural rules a scraper
// relies on: HELP and TYPE exactly once per family and before its
// samples, no duplicate series, histogram buckets with ascending le
// bounds and monotonic cumulative counts, and _count equal to the +Inf
// bucket. Returns the samples keyed by the full series string (name plus
// label block). The sweepobs, harness and fabric tests parse every
// exposition they check through this reader, so the writer and an
// independent reader must agree.
func ValidateExposition(text string) (map[string]float64, error) {
	samples := map[string]float64{}
	helpSeen := map[string]bool{}
	typeSeen := map[string]string{}
	type histState struct {
		lastLe  float64
		lastVal float64
		inf     float64
		count   float64
		hasInf  bool
	}
	hists := map[string]*histState{} // per series (name + labels minus le)

	baseName := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && typeSeen[b] == "histogram" {
				return b
			}
		}
		return name
	}

	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 3 {
				return nil, fmt.Errorf("line %d: malformed HELP", lineNo)
			}
			name := f[2]
			if helpSeen[name] {
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
			}
			helpSeen[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				return nil, fmt.Errorf("line %d: malformed TYPE", lineNo)
			}
			name, typ := f[2], f[3]
			if _, dup := typeSeen[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			if !helpSeen[name] {
				return nil, fmt.Errorf("line %d: TYPE before HELP for %s", lineNo, name)
			}
			typeSeen[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("line %d: unexpected comment %q", lineNo, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("line %d: no value separator in %q", lineNo, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, valStr, err)
		}
		name := key
		labels := ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name, labels = key[:i], key[i:]
			if !strings.HasSuffix(labels, "}") {
				return nil, fmt.Errorf("line %d: unterminated labels in %q", lineNo, key)
			}
		}
		base := baseName(name)
		if _, ok := typeSeen[base]; !ok {
			return nil, fmt.Errorf("line %d: sample %s before TYPE", lineNo, name)
		}
		if _, dup := samples[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineNo, key)
		}
		samples[key] = val

		if typeSeen[base] == "histogram" {
			serKey := base + "|" + stripLabel(labels, "le")
			hs := hists[serKey]
			if hs == nil {
				hs = &histState{lastLe: math.Inf(-1)}
				hists[serKey] = hs
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, err := leValueOf(labels)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", lineNo, err)
				}
				if le <= hs.lastLe {
					return nil, fmt.Errorf("line %d: bucket le %v not ascending (prev %v)", lineNo, le, hs.lastLe)
				}
				if val < hs.lastVal {
					return nil, fmt.Errorf("line %d: bucket counts not monotonic: %v < %v", lineNo, val, hs.lastVal)
				}
				hs.lastLe, hs.lastVal = le, val
				if math.IsInf(le, 1) {
					hs.inf, hs.hasInf = val, true
				}
			case strings.HasSuffix(name, "_count"):
				hs.count = val
			}
		}
	}
	for k, hs := range hists {
		if !hs.hasInf {
			return nil, fmt.Errorf("histogram %s has no +Inf bucket", k)
		}
		if hs.count != hs.inf {
			return nil, fmt.Errorf("histogram %s: count %v != +Inf bucket %v", k, hs.count, hs.inf)
		}
	}
	return samples, nil
}

// stripLabel removes one label pair from a rendered `{...}` block.
func stripLabel(labels, name string) string {
	if labels == "" {
		return ""
	}
	inner := labels[1 : len(labels)-1]
	var keep []string
	for _, p := range splitLabelPairs(inner) {
		if !strings.HasPrefix(p, name+`="`) {
			keep = append(keep, p)
		}
	}
	return strings.Join(keep, ",")
}

// splitLabelPairs splits `k="v",k2="v2"` respecting escaped quotes.
func splitLabelPairs(s string) []string {
	var out []string
	var cur strings.Builder
	inQ, esc := false, false
	for _, r := range s {
		switch {
		case esc:
			esc = false
		case r == '\\':
			esc = true
		case r == '"':
			inQ = !inQ
		case r == ',' && !inQ:
			out = append(out, cur.String())
			cur.Reset()
			continue
		}
		cur.WriteRune(r)
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// leValueOf extracts the le bound from a bucket's label block.
func leValueOf(labels string) (float64, error) {
	if labels == "" {
		return 0, fmt.Errorf("no le label")
	}
	inner := labels[1 : len(labels)-1]
	for _, p := range splitLabelPairs(inner) {
		if v, ok := strings.CutPrefix(p, `le="`); ok {
			v = strings.TrimSuffix(v, `"`)
			if v == "+Inf" {
				return math.Inf(1), nil
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("bad le %q: %v", v, err)
			}
			return f, nil
		}
	}
	return 0, fmt.Errorf("no le label in %q", labels)
}
