package segment

import (
	"cmp"
	"slices"
	"time"

	"applab/internal/rdf"
)

// The read path (DESIGN.md §12): one merged cursor over the memtable
// and the runs. Each source yields its candidates in canonical order —
// (S,P,O) by term key, then valid time — and the cursor steps through
// them in a k-way merge, so equal triples from different sources meet at
// the same step and the newest source decides whether the triple is
// live. Inside a run everything is dictionary ids; terms are compared
// only between sources, in place, and a triple is materialized only by
// the consumer, only for rows that survive.

// head is the triple a source currently offers.
type head struct {
	s, p, o *rdf.Term
	validTime
	run int         // index of the run it comes from; -1 for the memtable
	row *row        // the run's own row, nil for the memtable
	mem *rdf.Triple // the memtable's own triple, nil for a run
}

// validTime is a triple's valid time and flags exactly as a run row
// stores them: zero times and a clear rowHasVT bit for a triple without
// valid time.
type validTime struct {
	vf, vt int64
	flags  uint8
}

func validTimeOf(t *rdf.Triple) validTime {
	if !t.HasValidTime() {
		return validTime{}
	}
	return validTime{t.ValidFrom.UnixNano(), t.ValidTo.UnixNano(), rowHasVT}
}

// compare orders valid times the way rowLess orders them inside a run.
func (a validTime) compare(b validTime) int {
	if c := cmp.Compare(a.vf, b.vf); c != 0 {
		return c
	}
	if c := cmp.Compare(a.vt, b.vt); c != 0 {
		return c
	}
	return cmp.Compare(a.flags&rowHasVT, b.flags&rowHasVT)
}

// triple materializes the head.
func (h *head) triple() rdf.Triple {
	if h.mem != nil {
		return *h.mem
	}
	t := rdf.Triple{S: *h.s, P: *h.p, O: *h.o}
	if h.flags&rowHasVT != 0 {
		t.ValidFrom = time.Unix(0, h.vf).UTC()
		t.ValidTo = time.Unix(0, h.vt).UTC()
	}
	return t
}

// source is one input of the merge: a runScan, or a slice of memtable
// triples, all live or all tombstones, read in canonical order through
// perm.
type source struct {
	runScan
	run      int
	mem      []rdf.Triple
	memFlags uint8
	head     head
	// taken marks a head the merge has consumed: the source advances at
	// the next step, and is done when it cannot.
	taken, done bool
}

func (s *source) advance() bool {
	if s.lo >= s.hi {
		return false
	}
	i := s.lo
	s.lo++
	if s.perm != nil {
		i = int(s.perm[i])
	}
	if s.mem != nil {
		t := &s.mem[i]
		s.head = head{s: &t.S, p: &t.P, o: &t.O, validTime: validTimeOf(t), run: -1, mem: t}
		s.head.flags |= s.memFlags
		return true
	}
	rw := &s.rows[i]
	s.head = head{s: &s.terms[rw.s], p: &s.terms[rw.p], o: &s.terms[rw.o], validTime: validTime{rw.vf, rw.vt, rw.flags}, run: s.run, row: rw}
	return true
}

// compareTriples is the canonical order on materialized triples.
func compareTriples(a, b *rdf.Triple) int {
	if c := a.S.Compare(b.S); c != 0 {
		return c
	}
	if c := a.P.Compare(b.P); c != 0 {
		return c
	}
	if c := a.O.Compare(b.O); c != 0 {
		return c
	}
	return validTimeOf(a).compare(validTimeOf(b))
}

// merge is the merged cursor. Sources are held newest first: the first
// few inline, so that a merge on its caller's stack allocates nothing
// (it holds no pointer into itself), any further ones in spill.
type merge struct {
	buf   [4]source
	spill []source
	n     int
	// free marks the unbound pattern positions — the only ones on which
	// two sources' heads can differ.
	free [3]bool
	// upper bounds the number of triples the cursor can yield.
	upper int
	// early records that a triple valid from before 1970 was yielded.
	early bool
}

func (m *merge) src(i int) *source {
	if i < len(m.buf) {
		return &m.buf[i]
	}
	return &m.spill[i-len(m.buf)]
}

func (m *merge) add(src source) {
	src.taken = true // advanced to its first head by the first step
	if m.n < len(m.buf) {
		m.buf[m.n] = src
	} else {
		m.spill = append(m.spill, src)
	}
	m.n++
}

func (m *merge) addRun(run int, sc runScan) {
	if sc.lo < sc.hi {
		m.add(source{runScan: sc, run: run})
		m.upper += sc.hi - sc.lo
	}
}

// addMem adds memtable triples. They are ordered through a permutation,
// compared in place: a triple is 216 bytes, too many to copy per
// comparison or move per swap.
func (m *merge) addMem(ts []rdf.Triple, flags uint8) {
	if len(ts) == 0 {
		return
	}
	var perm []uint32
	if len(ts) > 1 {
		perm = make([]uint32, len(ts))
		for i := range perm {
			perm[i] = uint32(i)
		}
		slices.SortFunc(perm, func(a, b uint32) int { return compareTriples(&ts[a], &ts[b]) })
	}
	m.add(source{runScan: runScan{perm: perm, hi: len(ts)}, mem: ts, memFlags: flags})
	if flags&rowTombstone == 0 {
		m.upper += len(ts)
	}
}

func (m *merge) compare(a, b *head) int {
	if m.free[0] {
		if c := a.s.Compare(*b.s); c != 0 {
			return c
		}
	}
	if m.free[1] {
		if c := a.p.Compare(*b.p); c != 0 {
			return c
		}
	}
	if m.free[2] {
		if c := a.o.Compare(*b.o); c != 0 {
			return c
		}
	}
	return a.validTime.compare(b.validTime)
}

// next returns the next live triple in canonical order, or nil at the
// end. The head stays valid until the following call.
func (m *merge) next() *head {
	for {
		// The smallest head wins; of equal heads the first, which is the
		// newest, wins and the others are consumed with it.
		var best *source
		for i := 0; i < m.n; i++ {
			s := m.src(i)
			if s.taken {
				s.taken = false
				s.done = !s.advance()
			}
			if s.done {
				continue
			}
			c := -1
			if best != nil {
				c = m.compare(&s.head, &best.head)
			}
			if c < 0 {
				for j := 0; j < i; j++ {
					m.src(j).taken = false
				}
				best = s
			}
			s.taken = c <= 0
		}
		if best == nil {
			return nil
		}
		h := &best.head
		if h.flags&rowTombstone != 0 {
			continue
		}
		if h.vf < 0 && h.flags&rowHasVT != 0 {
			m.early = true
		}
		return h
	}
}

// hoistTimeless finishes the canonical order of a cursor's output.
// Runs sort a triple without valid time as if it were valid from 1970;
// canonically it precedes every timed triple of the same (S,P,O), so
// it is moved ahead of those valid from earlier. Only needed when the
// cursor reports such triples (merge.early).
func hoistTimeless(ts []rdf.Triple) {
	same := func(a, b *rdf.Triple) bool { return a.S.Equal(b.S) && a.P.Equal(b.P) && a.O.Equal(b.O) }
	for i := 1; i < len(ts); i++ {
		if ts[i].HasValidTime() || !ts[i-1].HasValidTime() {
			continue
		}
		j := i
		for j > 0 && same(&ts[j-1], &ts[i]) {
			j--
		}
		t := ts[i]
		copy(ts[j+1:i+1], ts[j:i])
		ts[j] = t
	}
}
