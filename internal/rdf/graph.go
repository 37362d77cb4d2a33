package rdf

import (
	"slices"
	"time"
)

// Graph is an in-memory set of triples held in id space: a term
// dictionary, one 12-byte (s, p, o) id row per triple and, per position,
// a posting list of slots for every term (the SPO/POS/OSP indexes). It
// is the simple (non-spatial) store of the stack; the Strabon package
// wraps a Graph-compatible model with spatial and temporal indexes.
//
// Terms become rdf.Triple values again only in the slices Match and
// Triples hand out. Only Add interns: every reader resolves its bound
// terms with a plain dictionary lookup and answers empty on a miss, so
// Graph is not safe for concurrent mutation but concurrent readers are
// fine once loading is complete.
//
// Valid time is kept the way every persisted form keeps it (segment
// runs, the WAL): nanoseconds since 1970 plus a has-valid-time bit,
// read back in UTC.
type Graph struct {
	ids   map[Term]uint32 // term -> id
	terms []Term          // id -> term, in first-use order

	// rows holds the triples in insertion order. Removal marks the slot
	// dead, so slot numbers stay valid in the posting lists; the slots
	// are compacted away once the dead outnumber the live.
	rows  [][3]uint32
	dead  []bool
	ndead int
	// times is the valid-time column, parallel to rows. It stays nil
	// until the first triple with valid time arrives.
	times []validTime

	// post[id][k] lists, ascending, the live slots whose position k
	// (0 subject, 1 predicate, 2 object) holds term id.
	post [][3][]int32
	// seen and seenTimed map a live triple (without and with valid
	// time) to its slot.
	seen      map[[3]uint32]int32
	seenTimed map[timedRow]int32
}

type validTime struct {
	from, to int64
	has      bool
}

type timedRow struct {
	row [3]uint32
	validTime
}

func validTimeOf(t *Triple) validTime {
	if !t.HasValidTime() {
		return validTime{}
	}
	return validTime{t.ValidFrom.UnixNano(), t.ValidTo.UnixNano(), true}
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return NewGraphSized(0) }

// NewGraphSized returns an empty graph with room for n triples, and as
// many distinct terms, before any of its tables regrows.
func NewGraphSized(n int) *Graph {
	return &Graph{
		ids:   make(map[Term]uint32, n),
		terms: make([]Term, 0, n),
		post:  make([][3][]int32, 0, n),
		rows:  make([][3]uint32, 0, n),
		dead:  make([]bool, 0, n),
		seen:  make(map[[3]uint32]int32, n),
	}
}

func (g *Graph) intern(t Term) uint32 {
	id, ok := g.ids[t]
	if !ok {
		id = uint32(len(g.terms))
		g.ids[t] = id
		g.terms = append(g.terms, t)
		g.post = append(g.post, [3][]int32{})
	}
	return id
}

// slot returns the slot of a live triple.
func (g *Graph) slot(row [3]uint32, vt validTime) (int32, bool) {
	if vt.has {
		i, ok := g.seenTimed[timedRow{row, vt}]
		return i, ok
	}
	i, ok := g.seen[row]
	return i, ok
}

// lookup finds a live triple without interning its terms.
func (g *Graph) lookup(t *Triple) (row [3]uint32, vt validTime, i int32, ok bool) {
	var okS, okP, okO bool
	row[0], okS = g.ids[t.S]
	row[1], okP = g.ids[t.P]
	row[2], okO = g.ids[t.O]
	if vt = validTimeOf(t); okS && okP && okO {
		i, ok = g.slot(row, vt)
	}
	return row, vt, i, ok
}

// triple materializes the triple in slot i.
func (g *Graph) triple(i int32) Triple {
	r := g.rows[i]
	t := Triple{S: g.terms[r[0]], P: g.terms[r[1]], O: g.terms[r[2]]}
	if int(i) < len(g.times) && g.times[i].has {
		t.ValidFrom = time.Unix(0, g.times[i].from).UTC()
		t.ValidTo = time.Unix(0, g.times[i].to).UTC()
	}
	return t
}

// Add inserts a triple. Duplicate triples (including valid time) are
// ignored; Add reports whether the triple was newly inserted.
func (g *Graph) Add(t Triple) bool {
	row := [3]uint32{g.intern(t.S), g.intern(t.P), g.intern(t.O)}
	vt := validTimeOf(&t)
	if _, dup := g.slot(row, vt); dup {
		return false
	}
	i := int32(len(g.rows))
	g.rows = append(g.rows, row)
	g.dead = append(g.dead, false)
	if vt.has {
		if g.times == nil {
			g.times = make([]validTime, i, cap(g.rows))
			g.seenTimed = map[timedRow]int32{}
		}
		g.seenTimed[timedRow{row, vt}] = i
	} else {
		g.seen[row] = i
	}
	if g.times != nil {
		g.times = append(g.times, vt)
	}
	for k, id := range row {
		g.post[id][k] = append(g.post[id][k], i)
	}
	return true
}

// Remove deletes a triple (exact identity: terms plus valid time),
// reporting whether it was present. The slot is marked dead and its
// posting-list entries pruned — O(log bucket) to find, a bucket tail to
// close up — and the table is compacted (insertion order preserved)
// once dead slots outnumber live ones.
func (g *Graph) Remove(t Triple) bool {
	row, vt, i, ok := g.lookup(&t)
	if !ok {
		return false
	}
	if vt.has {
		delete(g.seenTimed, timedRow{row, vt})
	} else {
		delete(g.seen, row)
	}
	for k, id := range row {
		j, _ := slices.BinarySearch(g.post[id][k], i)
		g.post[id][k] = slices.Delete(g.post[id][k], j, j+1)
	}
	g.dead[i] = true
	g.ndead++
	if g.ndead > 16 && g.ndead > len(g.rows)/2 {
		g.compact()
	}
	return true
}

// compact rebuilds the graph over its live triples only, which also
// drops the dictionary entries no live triple uses any more.
func (g *Graph) compact() {
	live := g.Triples()
	*g = *NewGraphSized(len(live))
	for _, t := range live {
		g.Add(t)
	}
}

// AddAll inserts every triple in ts, returning the number newly added.
func (g *Graph) AddAll(ts []Triple) int {
	n := 0
	for _, t := range ts {
		if g.Add(t) {
			n++
		}
	}
	return n
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int { return len(g.rows) - g.ndead }

// Triples returns a copy of all live triples in insertion order.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.Len())
	for i := range g.rows {
		if !g.dead[i] {
			out = append(out, g.triple(int32(i)))
		}
	}
	return out
}

// Contains reports whether the graph holds the exact triple.
func (g *Graph) Contains(t Triple) bool {
	_, _, _, ok := g.lookup(&t)
	return ok
}

// pattern is a triple pattern in id space. known is false when a bound
// term is not in the dictionary, so nothing can match.
type pattern struct {
	ids   [3]uint32
	bound [3]bool
	known bool
}

func (g *Graph) pattern(s, p, o Term) pattern {
	pt := pattern{known: true}
	for k, t := range [3]*Term{&s, &p, &o} {
		if t.IsZero() {
			continue
		}
		pt.ids[k], pt.known = g.ids[*t]
		if !pt.known {
			break
		}
		pt.bound[k] = true
	}
	return pt
}

// candidates returns the shortest posting list among the pattern's
// bound positions and how many positions are bound.
func (g *Graph) candidates(pt *pattern) (list []int32, nbound int) {
	for k, b := range pt.bound {
		if !b {
			continue
		}
		if l := g.post[pt.ids[k]][k]; nbound == 0 || len(l) < len(list) {
			list = l
		}
		nbound++
	}
	return list, nbound
}

func (pt *pattern) matches(row [3]uint32) bool {
	for k, b := range pt.bound {
		if b && row[k] != pt.ids[k] {
			return false
		}
	}
	return true
}

// Match returns all triples matching the pattern, in insertion order, in
// a slice of exactly that size which is the caller's. Zero-valued terms
// (Term{}) act as wildcards. The shortest posting list drives the scan.
func (g *Graph) Match(s, p, o Term) []Triple {
	pt := g.pattern(s, p, o)
	if !pt.known {
		return nil
	}
	list, nbound := g.candidates(&pt)
	if nbound == 0 {
		return g.Triples()
	}
	n := len(list)
	if nbound > 1 {
		n = 0
		for _, i := range list {
			if pt.matches(g.rows[i]) {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Triple, 0, n)
	for _, i := range list {
		if nbound == 1 || pt.matches(g.rows[i]) {
			out = append(out, g.triple(i))
		}
	}
	return out
}

// Cardinality estimates how many triples match the pattern without
// materializing them: the size of the shortest posting list among the
// bound positions (an upper bound on the true count, exact when one
// position is bound). Zero terms are wildcards; an all-wildcard pattern
// estimates the graph size. Implements the query planner's StatsSource.
func (g *Graph) Cardinality(s, p, o Term) int {
	pt := g.pattern(s, p, o)
	if !pt.known {
		return 0
	}
	list, nbound := g.candidates(&pt)
	if nbound == 0 {
		return g.Len()
	}
	return len(list)
}

// Subjects returns the distinct subjects of triples matching (p, o),
// sorted by term key for determinism.
func (g *Graph) Subjects(p, o Term) []Term {
	return g.distinct(0, g.pattern(Term{}, p, o))
}

// Objects returns the distinct objects of triples matching (s, p), sorted
// by term key.
func (g *Graph) Objects(s, p Term) []Term {
	return g.distinct(2, g.pattern(s, p, Term{}))
}

// distinct returns, sorted, the distinct terms at position k of the
// triples matching pt.
func (g *Graph) distinct(k int, pt pattern) []Term {
	if !pt.known {
		return []Term{}
	}
	var ids []uint32
	list, nbound := g.candidates(&pt)
	if nbound == 0 {
		for i, row := range g.rows {
			if !g.dead[i] {
				ids = append(ids, row[k])
			}
		}
	}
	for _, i := range list {
		if pt.matches(g.rows[i]) {
			ids = append(ids, g.rows[i][k])
		}
	}
	slices.Sort(ids)
	return g.sortedTerms(slices.Compact(ids))
}

// Predicates returns the distinct predicates in the graph, sorted.
func (g *Graph) Predicates() []Term {
	var ids []uint32
	for id := range g.post {
		if len(g.post[id][1]) > 0 {
			ids = append(ids, uint32(id))
		}
	}
	return g.sortedTerms(ids)
}

// sortedTerms orders distinct ids by term key and materializes them.
func (g *Graph) sortedTerms(ids []uint32) []Term {
	slices.SortFunc(ids, func(a, b uint32) int { return g.terms[a].Compare(g.terms[b]) })
	out := make([]Term, len(ids))
	for i, id := range ids {
		out[i] = g.terms[id]
	}
	return out
}

// FirstObject returns the object of the first triple matching (s, p).
func (g *Graph) FirstObject(s, p Term) (Term, bool) {
	sid, okS := g.ids[s]
	pid, okP := g.ids[p]
	if okS && okP {
		for _, i := range g.post[sid][0] {
			if g.rows[i][1] == pid {
				return g.terms[g.rows[i][2]], true
			}
		}
	}
	return Term{}, false
}

// Merge adds every live triple of other into g, returning the count
// added.
func (g *Graph) Merge(other *Graph) int {
	n := 0
	for i := range other.rows {
		if !other.dead[i] && g.Add(other.triple(int32(i))) {
			n++
		}
	}
	return n
}
