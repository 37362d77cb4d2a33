package sparql

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"applab/internal/rdf"
)

// scanOp is a pipeline step that joins each row with one triple
// pattern. Three strategies, chosen once per pipeline run (strategy):
//
//   - indexed nested loop (the seed strategy): one Match call per row
//     with the row's bindings substituted into the pattern. Default.
//     Over a BatchExchangeSource the step's routed calls travel as one
//     read per fragment (exchangeRows).
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

// extend binds the pattern's variable positions to a match's handles —
// into the Match slice or the source's own terms, never a loop variable
// — copying the row into dst on the first new binding, so the result is
// r itself or dst. Repeated variables and already-bound slots are
// checked for agreement. Written straight-line so an extension
// allocates nothing.
func (sc *scanOp) extend(r row, t rdf.Ref, dst row) (row, bool) {
	nr := r
	cloned := false
	if sc.sSlot >= 0 {
		if cur := nr[sc.sSlot]; cur != nil {
			if !cur.Equal(*t.S) {
				return nil, false
			}
		} else {
			nr = copyRow(dst, nr)
			cloned = true
			nr[sc.sSlot] = t.S
		}
	}
	if sc.pSlot >= 0 {
		if cur := nr[sc.pSlot]; cur != nil {
			if !cur.Equal(*t.P) {
				return nil, false
			}
		} else {
			if !cloned {
				nr = copyRow(dst, nr)
				cloned = true
			}
			nr[sc.pSlot] = t.P
		}
	}
	if sc.oSlot >= 0 {
		if cur := nr[sc.oSlot]; cur != nil {
			if !cur.Equal(*t.O) {
				return nil, false
			}
		} else {
			if !cloned {
				nr = copyRow(dst, nr)
			}
			nr[sc.oSlot] = t.O
		}
	}
	return nr, true
}

func copyRow(dst, src row) row {
	copy(dst, src)
	return dst
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

// joinStrategy is the strategy a scan step runs with for one pipeline
// run.
type joinStrategy uint8

const (
	joinNested joinStrategy = iota
	joinCross
	joinHash
)

var joinStrategyNames = [...]string{joinNested: "nested_loop", joinCross: "cross", joinHash: "hash"}

// strategy picks the step's join strategy for probes probe rows.
func (sc *scanOp) strategy(probes int) joinStrategy {
	switch {
	case sc.canHash && len(sc.keys) == 0:
		// No position can be bound by incoming rows: one Match serves
		// every row (cross-join materialization).
		return joinCross
	case sc.canHash && probes >= hashJoinMinRows && sc.est >= 0 && sc.est <= probes:
		// Hash join only pays when the build side (constants-only
		// match) is no larger than the probe side: per-row index probes
		// are cheap, so materializing and keying a big build set loses
		// outright.
		return joinHash
	}
	return joinNested
}

// scanRun is a scan step's state for one pipeline run, shared by the
// run's chunks. The first row to reach the step prepares it: that picks
// and counts the strategy and, for cross and hash, issues the one Match
// (and builds the hash index), so a step no row reaches costs nothing.
type scanRun struct {
	ready    atomic.Bool
	mu       sync.Mutex
	strategy joinStrategy
	err      error
	build    []rdf.Ref // cross: the shared match; hash: the build side
	refs     []rdf.Ref // backs build when it is not a routed exchange answer
	// Hash buckets are int32 chains through the build side in Match
	// order: buckets maps a key to its bucket b, first[b] heads b's
	// chain and next[i] continues it.
	buckets     map[string]int32
	first, next []int32
}

// prepare readies step k for the run, once, on the first row that
// reaches it (the row path tests ready before it locks); st.err is then
// the preparation's error for every later row, in any chunk.
func (pc *pipeChunk) prepare(k int, sc *scanOp) *scanRun {
	st := &pc.scans[k]
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.ready.Load() {
		st.strategy = sc.strategy(pc.probes(k))
		noteJoinStrategy(joinStrategyNames[st.strategy])
		switch st.strategy {
		case joinCross:
			st.build, st.err = pc.ec.match(&st.refs, sc.s, sc.p, sc.o)
		case joinHash:
			st.err = st.index(pc.ec, sc)
		}
		st.ready.Store(true)
	}
	return st
}

// probes is the row count step k picks its strategy for: the rows
// entering the pipeline, times the match count of each cross step before
// k (a cross step passes on that many rows per row, bar repeated
// variables). For the step right after a cross-join head that is
// exactly the row count it joins against; a later step behind 1:1 joins
// sees about the count that reaches it; behind FILTERs and fan-out
// joins (a nested-loop or hash head too) the estimate is off by their
// selectivity or fan-out.
func (pc *pipeChunk) probes(k int) int {
	n := pc.in
	for j := range k {
		if st := &pc.scans[j]; st.ready.Load() && st.strategy == joinCross {
			if m := len(st.build); m > 1 {
				n = min(n, unknownCardinality/m) * m
			}
		}
	}
	return n
}

// index matches the pattern once with constants only and hashes the
// result on the shared (definitely-bound) slots. Filling the chains from
// the back leaves every chain in ascending build order, so each row's
// extensions come out in the order the nested loop would produce them,
// and no triple is copied; extend re-checks every bound position, so
// the key only has to be sound, not exact.
func (st *scanRun) index(ec *execCtx, sc *scanOp) error {
	build, err := ec.match(&st.refs, sc.s, sc.p, sc.o)
	if err != nil {
		return err
	}
	st.build = build
	st.buckets = make(map[string]int32, len(build))
	st.next = make([]int32, len(build))
	var kb []byte
	n := 0
	for i := len(build) - 1; i >= 0; i-- {
		if err := ec.tick(&n); err != nil {
			return err
		}
		kb = kb[:0]
		for _, slot := range sc.keys {
			kb = appendSolutionKey(kb, sc.tripleAt(build[i], slot))
		}
		b, ok := st.buckets[string(kb)]
		if !ok {
			b = int32(len(st.first))
			st.buckets[string(kb)] = b
			st.first = append(st.first, -1)
		}
		st.next[i], st.first[b] = st.first[b], int32(i)
	}
	return nil
}

// push joins one row with the pattern and pushes every extension on: a
// cross head only the row's window of matches. A match bucket is
// charged in one tickN, a hash chain per element.
func (sc *scanOp) push(pc *pipeChunk, k int, r row, scratch bool) error {
	ec := pc.ec
	st := &pc.scans[k]
	if !st.ready.Load() {
		pc.prepare(k, sc)
	}
	if st.err != nil {
		return st.err
	}
	var matches []rdf.Ref
	switch st.strategy {
	case joinCross:
		matches = st.build
	case joinHash:
		kb := pc.kb[:0]
		for _, slot := range sc.keys {
			kb = appendSolutionKey(kb, r[slot])
		}
		pc.kb = kb
		// map lookup on string(kb) does not allocate.
		b, ok := st.buckets[string(kb)]
		if !ok {
			return nil
		}
		dst := pc.scratch(k)
		for i := st.first[b]; i >= 0; i = st.next[i] {
			if err := ec.tick(&pc.n); err != nil {
				return err
			}
			if nr, ok := sc.extend(r, st.build[i], dst); ok {
				if err := pc.next(k, nr, scratch || sameRow(nr, dst)); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		if pc.batched != nil && k == 0 {
			matches = pc.batched[pc.at]
		} else {
			s := resolve(sc.sSlot, sc.s, r)
			p := resolve(sc.pSlot, sc.p, r)
			o := resolve(sc.oSlot, sc.o, r)
			var err error
			if matches, err = ec.match(&pc.refs[k], s, p, o); err != nil {
				return err
			}
		}
	}
	lo, hi := 0, len(matches)
	if k == 0 && st.strategy == joinCross {
		lo, hi = pc.lo, pc.hi
	}
	if lo >= hi {
		return nil
	}
	if err := ec.tickN(&pc.n, hi-lo); err != nil {
		return err
	}
	dst := pc.scratch(k)
	for i := lo; i < hi; i++ {
		if nr, ok := sc.extend(r, matches[i], dst); ok {
			if err := pc.next(k, nr, scratch || sameRow(nr, dst)); err != nil {
				return err
			}
		}
	}
	return nil
}

// tripleAt returns the match's term at the first pattern position
// carrying the given slot.
func (sc *scanOp) tripleAt(t rdf.Ref, slot int) *rdf.Term {
	switch {
	case sc.sSlot == slot:
		return t.S
	case sc.pSlot == slot:
		return t.P
	default:
		return t.O
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
