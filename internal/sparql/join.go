package sparql

import (
	"encoding/binary"

	"applab/internal/rdf"
)

// scanOp joins the solution set with one triple pattern. Three
// strategies, chosen per pattern at compile/run time:
//
//   - indexed nested loop (the seed strategy): one Match call per row
//     with the row's bindings substituted into the pattern. Default.
//   - cross-join materialization: when no pattern position can be bound
//     by incoming rows, every per-row Match would be the same call;
//     issue it once and extend each row from the shared result.
//   - hash join: when the pattern shares definitely-bound variables
//     with the rows and the estimated build side is small relative to
//     the probe side, Match once with constants only, hash the result
//     on the shared positions, and probe per row.
//
// All strategies extend rows through the same extend method, so they
// produce identical rows in identical per-row order; only the number of
// Source.Match calls differs.
type scanOp struct {
	sSlot, pSlot, oSlot int      // slot (>= 0) or -1 with the constant below
	s, p, o             rdf.Term // constants; zero when the position is a slot

	keys    []int // slots definitely bound by earlier ops (dedup'd)
	canHash bool  // no pattern position is only maybe-bound
	est     int   // constants-only cardinality estimate, < 0 unknown
}

// hashJoinMinRows is the probe-side size below which per-row index
// lookups beat building a hash table.
const hashJoinMinRows = 32

// newScanOp lowers one triple pattern using the compiler's current
// variable-state knowledge.
func (c *compiler) newScanOp(tp TriplePattern) *scanOp {
	sc := &scanOp{sSlot: -1, pSlot: -1, oSlot: -1, est: -1, canHash: true}
	keySeen := map[int]bool{}
	lower := func(pt PatternTerm, slot *int, constant *rdf.Term) {
		if !pt.IsVar() {
			*constant = pt.Term
			return
		}
		s := c.vt.slot(pt.Var)
		*slot = s
		switch c.states[pt.Var] {
		case varDef:
			if !keySeen[s] {
				keySeen[s] = true
				sc.keys = append(sc.keys, s)
			}
		case varMaybe:
			sc.canHash = false
		}
	}
	lower(tp.S, &sc.sSlot, &sc.s)
	lower(tp.P, &sc.pSlot, &sc.p)
	lower(tp.O, &sc.oSlot, &sc.o)
	if c.stats != nil {
		sc.est = c.stats.Cardinality(sc.s, sc.p, sc.o)
	}
	return sc
}

// extend binds the pattern's variable positions to handles into a
// matched triple — t must point into the Match slice, never at a loop
// variable — copying the row (into the arena) on the first new binding.
// Repeated variables and already-bound slots are checked for agreement.
// Written straight-line so a no-new-binding extension is allocation free.
func (sc *scanOp) extend(r row, t *rdf.Triple, ar *rowArena) (row, bool) {
	nr := r
	cloned := false
	if sc.sSlot >= 0 {
		if cur := nr[sc.sSlot]; cur != nil {
			if !cur.Equal(t.S) {
				return nil, false
			}
		} else {
			nr = ar.clone(nr)
			cloned = true
			nr[sc.sSlot] = &t.S
		}
	}
	if sc.pSlot >= 0 {
		if cur := nr[sc.pSlot]; cur != nil {
			if !cur.Equal(t.P) {
				return nil, false
			}
		} else {
			if !cloned {
				nr = ar.clone(nr)
				cloned = true
			}
			nr[sc.pSlot] = &t.P
		}
	}
	if sc.oSlot >= 0 {
		if cur := nr[sc.oSlot]; cur != nil {
			if !cur.Equal(t.O) {
				return nil, false
			}
		} else {
			if !cloned {
				nr = ar.clone(nr)
			}
			nr[sc.oSlot] = &t.O
		}
	}
	return nr, true
}

// resolve substitutes a row's binding into a pattern position (zero =
// wildcard for unbound slots, like the seed evaluator).
func resolve(slot int, constant rdf.Term, r row) rdf.Term {
	if slot < 0 {
		return constant
	}
	if t := r[slot]; t != nil {
		return *t
	}
	return rdf.Term{}
}

func (sc *scanOp) run(ec *execCtx, in []row) ([]row, error) {
	if sc.canHash && len(sc.keys) == 0 {
		// No position can be bound by incoming rows: one Match serves
		// every row (cross-join materialization).
		noteJoinStrategy("cross")
		matches, err := ec.match(sc.s, sc.p, sc.o)
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, nil
		}
		return chunked(ec, in, func(rows []row) ([]row, error) {
			// At least this many rows come out (barring a repeated
			// variable inside the pattern): size for them up front.
			out, ar := presized(max(len(rows), len(matches)), len(in[0]))
			n := 0
			for _, r := range rows {
				if err := ec.tickN(&n, len(matches)); err != nil {
					return nil, err
				}
				for i := range matches {
					if nr, ok := sc.extend(r, &matches[i], &ar); ok {
						out = append(out, nr)
					}
				}
			}
			return out, nil
		})
	}
	// Hash join only pays when the build side (constants-only match) is
	// no larger than the probe side: per-row index probes are cheap, so
	// materializing and keying a big build set loses outright.
	if sc.canHash && len(in) >= hashJoinMinRows && sc.est >= 0 && sc.est <= len(in) {
		noteJoinStrategy("hash")
		return sc.hashJoin(ec, in)
	}
	noteJoinStrategy("nested_loop")
	return chunked(ec, in, func(rows []row) ([]row, error) {
		// A join that keeps its rows emits about one per input row.
		out, ar := presized(len(rows), len(in[0]))
		n := 0
		for _, r := range rows {
			if err := ec.tick(&n); err != nil {
				return nil, err
			}
			s := resolve(sc.sSlot, sc.s, r)
			p := resolve(sc.pSlot, sc.p, r)
			o := resolve(sc.oSlot, sc.o, r)
			matches, err := ec.match(s, p, o)
			if err != nil {
				return nil, err
			}
			if err := ec.tickN(&n, len(matches)); err != nil {
				return nil, err
			}
			for i := range matches {
				if nr, ok := sc.extend(r, &matches[i], &ar); ok {
					out = append(out, nr)
				}
			}
		}
		return out, nil
	})
}

// hashJoin matches the pattern once with constants only, hashes the
// result on the shared (definitely-bound) slots, and probes per row.
// Buckets are int32 chains through the build slice in Match order, so
// each row's extensions come out in the same order the nested-loop
// strategy would produce them and no triple is copied; extend re-checks
// every bound position, so the key only has to be sound, not exact.
func (sc *scanOp) hashJoin(ec *execCtx, in []row) ([]row, error) {
	build, err := ec.match(sc.s, sc.p, sc.o)
	if err != nil {
		return nil, err
	}
	if len(build) == 0 {
		return nil, nil
	}
	// first[b] heads bucket b's chain, next[i] continues it; filling from
	// the back leaves every chain in ascending build order.
	buckets := make(map[string]int32, len(build))
	var first []int32
	next := make([]int32, len(build))
	var kb []byte
	n := 0
	for i := len(build) - 1; i >= 0; i-- {
		if err := ec.tick(&n); err != nil {
			return nil, err
		}
		kb = kb[:0]
		for _, slot := range sc.keys {
			kb = appendSolutionKey(kb, sc.tripleAt(&build[i], slot))
		}
		b, ok := buckets[string(kb)]
		if !ok {
			b = int32(len(first))
			buckets[string(kb)] = b
			first = append(first, -1)
		}
		next[i], first[b] = first[b], int32(i)
	}
	return chunked(ec, in, func(rows []row) ([]row, error) {
		var out []row
		var ar rowArena
		var kb []byte
		n := 0
		for _, r := range rows {
			if err := ec.tick(&n); err != nil {
				return nil, err
			}
			kb = kb[:0]
			for _, slot := range sc.keys {
				kb = appendSolutionKey(kb, r[slot])
			}
			// map lookup on string(kb) does not allocate.
			b, ok := buckets[string(kb)]
			if !ok {
				continue
			}
			for i := first[b]; i >= 0; i = next[i] {
				if err := ec.tick(&n); err != nil {
					return nil, err
				}
				if nr, ok := sc.extend(r, &build[i], &ar); ok {
					out = append(out, nr)
				}
			}
		}
		return out, nil
	})
}

// tripleAt returns the triple's term at the first pattern position
// carrying the given slot.
func (sc *scanOp) tripleAt(t *rdf.Triple, slot int) *rdf.Term {
	switch {
	case sc.sSlot == slot:
		return &t.S
	case sc.pSlot == slot:
		return &t.P
	default:
		return &t.O
	}
}

// appendSolutionKey appends one solution position to a composite hash /
// group / DISTINCT key: the term's key followed by its length as four
// bytes, nothing but a zero length for an unbound position. A composite
// decodes unambiguously from its end, so no literal content — '|',
// digits, NULs — can make two different solutions collide, and no bound
// term (its key is never empty) collides with an unbound position.
func appendSolutionKey(kb []byte, t *rdf.Term) []byte {
	start := len(kb)
	if t != nil {
		kb = t.AppendKey(kb)
	}
	return binary.LittleEndian.AppendUint32(kb, uint32(len(kb)-start))
}
