package segment

import (
	"fmt"
	"sort"
	"time"

	"applab/internal/rdf"
)

// The read path the merged cursor replaced, kept as the oracle of the
// differential tests: every row of every source decoded to terms,
// newest-first masking through a string-keyed seen-map, and a final sort
// on term keys. It shares no code with cursor.go.

// tripleKey is the identity of a triple: terms plus valid time,
// length-prefixed so concatenated term keys cannot collide. It matches
// the dedup identity of rdf.Graph (term keys + interval).
func tripleKey(t rdf.Triple) string {
	sk, pk, ok := t.S.Key(), t.P.Key(), t.O.Key()
	return fmt.Sprintf("%d,%d,%d,%d,%d;%s%s%s",
		len(sk), len(pk), len(ok), t.ValidFrom.UnixNano(), t.ValidTo.UnixNano(), sk, pk, ok)
}

// matchesPattern reports whether t matches the (s, p, o) pattern with
// zero terms as wildcards — rdf.Graph's matching rule.
func matchesPattern(t rdf.Triple, s, p, o rdf.Term) bool {
	if !s.IsZero() && !t.S.Equal(s) {
		return false
	}
	if !p.IsZero() && !t.P.Equal(p) {
		return false
	}
	if !o.IsZero() && !t.O.Equal(o) {
		return false
	}
	return true
}

// sortTriples orders triples canonically by term keys then valid time.
func sortTriples(ts []rdf.Triple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if k1, k2 := a.S.Key(), b.S.Key(); k1 != k2 {
			return k1 < k2
		}
		if k1, k2 := a.P.Key(), b.P.Key(); k1 != k2 {
			return k1 < k2
		}
		if k1, k2 := a.O.Key(), b.O.Key(); k1 != k2 {
			return k1 < k2
		}
		if !a.ValidFrom.Equal(b.ValidFrom) {
			return a.ValidFrom.Before(b.ValidFrom)
		}
		return a.ValidTo.Before(b.ValidTo)
	})
}

// decodeAll decodes every row of a run, tombstones included.
func (r *Run) decodeAll(fn func(t rdf.Triple, tombstone bool)) error {
	if r.foot.nRows == 0 {
		return nil
	}
	rows, err := r.ensureRows()
	if err != nil {
		return err
	}
	terms, err := r.ensureDict()
	if err != nil {
		return err
	}
	for _, rw := range rows {
		t := rdf.Triple{S: terms[rw.s], P: terms[rw.p], O: terms[rw.o]}
		if rw.flags&rowHasVT != 0 {
			t.ValidFrom = time.Unix(0, rw.vf).UTC()
			t.ValidTo = time.Unix(0, rw.vt).UTC()
		}
		fn(t, rw.flags&rowTombstone != 0)
	}
	return nil
}

// matchReference is Engine.Match as it was before the merged cursor.
func matchReference(e *Engine, s, p, o rdf.Term) []rdf.Triple {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.segs) == 0 {
		return e.mem.g.Match(s, p, o)
	}
	seen := map[string]bool{}
	var out []rdf.Triple
	for _, t := range e.mem.g.Match(s, p, o) {
		seen[tripleKey(t)] = true
		out = append(out, t)
	}
	for _, t := range e.mem.tombs.Triples() {
		if matchesPattern(t, s, p, o) {
			seen[tripleKey(t)] = true
		}
	}
	for i := len(e.segs) - 1; i >= 0; i-- {
		err := e.segs[i].decodeAll(func(t rdf.Triple, tomb bool) {
			k := tripleKey(t)
			if !matchesPattern(t, s, p, o) || seen[k] {
				return
			}
			seen[k] = true
			if !tomb {
				out = append(out, t)
			}
		})
		if err != nil {
			panic(err)
		}
	}
	sortTriples(out)
	return out
}

// referenceTerms is rdf.Graph's distinct-and-sort over a key map, which
// Subjects and Objects used over Match's answer.
func referenceTerms(ts []rdf.Triple, pick func(rdf.Triple) rdf.Term) []rdf.Term {
	set := map[string]rdf.Term{}
	for _, t := range ts {
		set[pick(t).Key()] = pick(t)
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]rdf.Term, len(keys))
	for i, k := range keys {
		out[i] = set[k]
	}
	return out
}

// match streams one run's rows matching the pattern, tombstones
// included, through the cursor's own selection (Run.scan).
func (r *Run) match(s, p, o rdf.Term, fn func(t rdf.Triple, tombstone bool)) error {
	sc, err := r.scan(s, p, o)
	if err != nil {
		return err
	}
	src := source{runScan: sc}
	for src.advance() {
		fn(src.head.triple(), src.head.flags&rowTombstone != 0)
	}
	return nil
}
