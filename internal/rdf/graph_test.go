package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func tr(s, p, o string) Triple {
	return NewTriple(NewIRI(s), NewIRI(p), NewLiteral(o))
}

func TestGraphAddAndLen(t *testing.T) {
	g := NewGraph()
	if !g.Add(tr("s1", "p1", "o1")) {
		t.Fatal("first Add must succeed")
	}
	if g.Add(tr("s1", "p1", "o1")) {
		t.Fatal("duplicate Add must report false")
	}
	g.Add(tr("s1", "p2", "o2"))
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	if !g.Contains(tr("s1", "p2", "o2")) {
		t.Error("Contains should find the triple")
	}
	if g.Contains(tr("s1", "p2", "o3")) {
		t.Error("Contains should not find missing triple")
	}
}

func TestGraphMatchPatterns(t *testing.T) {
	g := NewGraph()
	g.Add(tr("s1", "p1", "o1"))
	g.Add(tr("s1", "p2", "o2"))
	g.Add(tr("s2", "p1", "o1"))
	g.Add(tr("s2", "p2", "o3"))

	cases := []struct {
		s, p, o string // "" = wildcard
		want    int
	}{
		{"", "", "", 4},
		{"s1", "", "", 2},
		{"", "p1", "", 2},
		{"", "", "o1", 2},
		{"s1", "p1", "", 1},
		{"s1", "", "o2", 1},
		{"", "p2", "o3", 1},
		{"s2", "p2", "o3", 1},
		{"s3", "", "", 0},
		{"s1", "p1", "o2", 0},
	}
	for _, c := range cases {
		var s, p, o Term
		if c.s != "" {
			s = NewIRI(c.s)
		}
		if c.p != "" {
			p = NewIRI(c.p)
		}
		if c.o != "" {
			o = NewLiteral(c.o)
		}
		got := g.Match(s, p, o)
		if len(got) != c.want {
			t.Errorf("Match(%q,%q,%q) = %d results, want %d", c.s, c.p, c.o, len(got), c.want)
		}
	}
}

func TestGraphSubjectsObjectsPredicates(t *testing.T) {
	g := NewGraph()
	g.Add(tr("s1", "p1", "o1"))
	g.Add(tr("s2", "p1", "o1"))
	g.Add(tr("s1", "p2", "o2"))

	subs := g.Subjects(NewIRI("p1"), NewLiteral("o1"))
	if len(subs) != 2 {
		t.Errorf("Subjects = %v", subs)
	}
	objs := g.Objects(NewIRI("s1"), NewIRI("p1"))
	if len(objs) != 1 || objs[0].Value != "o1" {
		t.Errorf("Objects = %v", objs)
	}
	preds := g.Predicates()
	if len(preds) != 2 {
		t.Errorf("Predicates = %v", preds)
	}
	if o, ok := g.FirstObject(NewIRI("s1"), NewIRI("p2")); !ok || o.Value != "o2" {
		t.Errorf("FirstObject = %v, %v", o, ok)
	}
	if _, ok := g.FirstObject(NewIRI("nope"), NewIRI("p2")); ok {
		t.Error("FirstObject on missing subject must fail")
	}
}

func TestGraphMerge(t *testing.T) {
	a, b := NewGraph(), NewGraph()
	a.Add(tr("s1", "p", "o"))
	b.Add(tr("s1", "p", "o"))
	b.Add(tr("s2", "p", "o"))
	if n := a.Merge(b); n != 1 {
		t.Errorf("Merge added %d, want 1", n)
	}
	if a.Len() != 2 {
		t.Errorf("merged Len = %d", a.Len())
	}
}

// Property: for any set of generated triples, Match with full wildcards
// returns exactly the deduplicated insertion set, and Match(s,-,-) is the
// subset with that subject.
func TestGraphMatchProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		g := NewGraph()
		uniq := map[string]bool{}
		for i, id := range ids {
			s := fmt.Sprintf("s%d", id%5)
			p := fmt.Sprintf("p%d", i%3)
			o := fmt.Sprintf("o%d", id%7)
			g.Add(tr(s, p, o))
			uniq[s+"|"+p+"|"+o] = true
		}
		if g.Len() != len(uniq) {
			return false
		}
		if len(g.Match(Term{}, Term{}, Term{})) != len(uniq) {
			return false
		}
		// Per-subject partition sums to the whole.
		total := 0
		for i := 0; i < 5; i++ {
			total += len(g.Match(NewIRI(fmt.Sprintf("s%d", i)), Term{}, Term{}))
		}
		return total == len(uniq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGraphRemove(t *testing.T) {
	g := NewGraph()
	a, b, c := tr("s1", "p1", "o1"), tr("s1", "p2", "o2"), tr("s2", "p1", "o3")
	g.Add(a)
	g.Add(b)
	g.Add(c)

	if g.Remove(tr("sX", "p1", "o1")) {
		t.Fatal("removing an absent triple must report false")
	}
	if !g.Remove(b) {
		t.Fatal("removing a present triple must report true")
	}
	if g.Remove(b) {
		t.Fatal("double remove must report false")
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	if g.Contains(b) {
		t.Fatal("Contains found a removed triple")
	}
	// Indexes no longer surface the removed triple.
	if got := g.Match(NewIRI("s1"), Term{}, Term{}); len(got) != 1 || !got[0].O.Equal(a.O) {
		t.Fatalf("subject match after remove = %v", got)
	}
	if got := g.Match(Term{}, NewIRI("p2"), Term{}); len(got) != 0 {
		t.Fatalf("predicate match after remove = %v", got)
	}
	if got := g.Cardinality(Term{}, NewIRI("p2"), Term{}); got != 0 {
		t.Fatalf("cardinality after remove = %d", got)
	}
	// Insertion order survives a removal in the middle.
	want := []Triple{a, c}
	got := g.Triples()
	if len(got) != 2 || !got[0].O.Equal(want[0].O) || !got[1].O.Equal(want[1].O) {
		t.Fatalf("Triples after remove = %v, want [a c]", got)
	}
	// A removed triple can come back.
	if !g.Add(b) {
		t.Fatal("re-Add after Remove must succeed")
	}
	if g.Len() != 3 || !g.Contains(b) {
		t.Fatal("re-added triple missing")
	}
}

// TestGraphRemoveBulkCompaction drives enough removals to cross the
// compaction threshold and checks every view of the graph afterwards.
func TestGraphRemoveBulkCompaction(t *testing.T) {
	g := NewGraph()
	const n = 200
	var all []Triple
	for i := 0; i < n; i++ {
		tt := tr(fmt.Sprintf("s%d", i%7), fmt.Sprintf("p%d", i%3), fmt.Sprintf("o%d", i))
		all = append(all, tt)
		g.Add(tt)
	}
	// Remove every even-indexed triple: well past the dead>live/2 mark.
	var kept []Triple
	for i, tt := range all {
		if i%2 == 0 {
			if !g.Remove(tt) {
				t.Fatalf("Remove #%d failed", i)
			}
		} else {
			kept = append(kept, tt)
		}
	}
	if g.Len() != len(kept) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(kept))
	}
	got := g.Triples()
	if len(got) != len(kept) {
		t.Fatalf("Triples = %d, want %d", len(got), len(kept))
	}
	for i := range kept {
		if !got[i].O.Equal(kept[i].O) {
			t.Fatalf("order broken at %d: got %v want %v", i, got[i], kept[i])
		}
	}
	// Indexes answer correctly post-compaction.
	for _, tt := range kept {
		if !g.Contains(tt) {
			t.Fatalf("kept triple missing: %v", tt)
		}
		found := false
		for _, m := range g.Match(tt.S, tt.P, Term{}) {
			if m.O.Equal(tt.O) {
				found = true
			}
		}
		if !found {
			t.Fatalf("Match lost kept triple: %v", tt)
		}
	}
	for i, tt := range all {
		if i%2 == 0 && g.Contains(tt) {
			t.Fatalf("removed triple still present: %v", tt)
		}
	}
	// Merge skips dead slots.
	g2 := NewGraph()
	if added := g2.Merge(g); added != len(kept) {
		t.Fatalf("Merge added %d, want %d", added, len(kept))
	}
}

// refGraph is the string-keyed graph this package had before the
// id-space table, kept as the differential oracle: triples in insertion
// order, identity by Term.Key strings plus valid time with its has-bit,
// every read a linear scan.
type refGraph struct {
	triples []Triple
	seen    map[string]bool
}

func refKey(t Triple) string {
	return fmt.Sprintf("%q %q %q %v", t.S.Key(), t.P.Key(), t.O.Key(), validTimeOf(&t))
}

func (r *refGraph) add(t Triple) bool {
	if r.seen == nil {
		r.seen = map[string]bool{}
	}
	if r.seen[refKey(t)] {
		return false
	}
	r.seen[refKey(t)] = true
	r.triples = append(r.triples, t)
	return true
}

func (r *refGraph) remove(t Triple) bool {
	if !r.seen[refKey(t)] {
		return false
	}
	delete(r.seen, refKey(t))
	r.triples = slices.DeleteFunc(r.triples, func(u Triple) bool { return refKey(u) == refKey(t) })
	return true
}

// match returns nil for an empty answer to a bound pattern, as Graph
// always has.
func (r *refGraph) match(s, p, o Term) []Triple {
	out := []Triple{}
	for _, t := range r.triples {
		if (s.IsZero() || t.S.Equal(s)) && (p.IsZero() || t.P.Equal(p)) && (o.IsZero() || t.O.Equal(o)) {
			out = append(out, t)
		}
	}
	if len(out) == 0 && !(s.IsZero() && p.IsZero() && o.IsZero()) {
		return nil
	}
	return out
}

// cardinality is the smallest single-position bucket among the bound
// terms.
func (r *refGraph) cardinality(s, p, o Term) int {
	est := len(r.triples)
	if !s.IsZero() {
		est = min(est, len(r.match(s, Term{}, Term{})))
	}
	if !p.IsZero() {
		est = min(est, len(r.match(Term{}, p, Term{})))
	}
	if !o.IsZero() {
		est = min(est, len(r.match(Term{}, Term{}, o)))
	}
	return est
}

// refDistinct dedupes by key and orders by key string.
func refDistinct(ts []Term) []Term {
	set := map[string]Term{}
	for _, t := range ts {
		set[t.Key()] = t
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Term, len(keys))
	for i, k := range keys {
		out[i] = set[k]
	}
	return out
}

// graphPools are the terms and valid times the differential draws from:
// few enough to collide often, with every term kind, terms that differ
// only in datatype or language, and valid times on both sides of 1970,
// and at the instant time.Time{}.UnixNano() wraps to.
var graphPools = func() (p struct {
	s, p, o []Term
	times   [][2]time.Time
}) {
	for i := 0; i < 6; i++ {
		p.s = append(p.s, NewIRI(fmt.Sprintf("http://ex/s%d", i)))
	}
	p.s = append(p.s, NewBlank("b0"), NewBlank("b1"))
	for i := 0; i < 3; i++ {
		p.p = append(p.p, NewIRI(fmt.Sprintf("http://ex/p%d", i)))
	}
	p.o = append(p.o, p.s[0], p.s[1], p.s[6], NewLiteral("1"), NewInteger(1), NewDouble(1),
		NewLangLiteral("1", "en"), NewLangLiteral("1", "de"), NewLiteral(""), NewIRI("http://ex/p0"))
	at := func(ns int64) time.Time { return time.Unix(0, ns).UTC() }
	wrap := at(time.Time{}.UnixNano())
	p.times = [][2]time.Time{{}, {}, {}, {at(0), at(1)}, {at(-5e18), at(5e18)}, {wrap, wrap}, {wrap, at(7)}, {at(1e18), at(2e18)}}
	return p
}()

// diffGraphOps runs one random schedule of Add/Remove/compact against
// Graph and the reference, comparing every return value and, every few
// steps, every read the graph offers. pick(n) draws from [0, n) and
// reports false when the schedule is over.
func diffGraphOps(t testing.TB, pick func(n int) (int, bool)) {
	g, ref := NewGraph(), &refGraph{}
	draw := func(n int) int { v, _ := pick(n); return v }
	triple := func() Triple {
		tr := NewTriple(graphPools.s[draw(len(graphPools.s))], graphPools.p[draw(len(graphPools.p))], graphPools.o[draw(len(graphPools.o))])
		vt := graphPools.times[draw(len(graphPools.times))]
		tr.ValidFrom, tr.ValidTo = vt[0], vt[1]
		return tr
	}
	// term draws a bound term for position k: mostly from the pool, now
	// and then one the graph has never seen.
	term := func(k int) Term {
		pool := [][]Term{graphPools.s, graphPools.p, graphPools.o}[k]
		if i := draw(len(pool) + 1); i < len(pool) {
			return pool[i]
		}
		return NewIRI("http://ex/unknown")
	}
	check := func(step int) {
		t.Helper()
		if g.Len() != len(ref.triples) {
			t.Fatalf("step %d: Len = %d, want %d", step, g.Len(), len(ref.triples))
		}
		for shape := 0; shape < 8; shape++ {
			var s, p, o Term
			if shape&1 != 0 {
				s = term(0)
			}
			if shape&2 != 0 {
				p = term(1)
			}
			if shape&4 != 0 {
				o = term(2)
			}
			want := ref.match(s, p, o)
			if got := g.Match(s, p, o); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Match(%v %v %v)\n got %v\nwant %v", step, s, p, o, got, want)
			} else if cap(got) != len(got) {
				t.Fatalf("step %d: Match slice has cap %d for %d triples", step, cap(got), len(got))
			}
			if got, want := g.Cardinality(s, p, o), ref.cardinality(s, p, o); got != want {
				t.Fatalf("step %d: Cardinality(%v %v %v) = %d, want %d", step, s, p, o, got, want)
			}
			var subs, objs, preds []Term
			for _, m := range ref.match(Term{}, p, o) {
				subs = append(subs, m.S)
			}
			for _, m := range ref.match(s, p, Term{}) {
				objs = append(objs, m.O)
			}
			for _, m := range ref.triples {
				preds = append(preds, m.P)
			}
			if got, want := g.Subjects(p, o), refDistinct(subs); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Subjects(%v %v) = %v, want %v", step, p, o, got, want)
			}
			if got, want := g.Objects(s, p), refDistinct(objs); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Objects(%v %v) = %v, want %v", step, s, p, got, want)
			}
			if got, want := g.Predicates(), refDistinct(preds); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Predicates = %v, want %v", step, got, want)
			}
			// FirstObject takes its terms literally: a zero term is no
			// wildcard there.
			fs, fp := term(0), term(1)
			var wantO Term
			first := ref.match(fs, fp, Term{})
			if len(first) > 0 {
				wantO = first[0].O
			}
			if got, ok := g.FirstObject(fs, fp); ok != (len(first) > 0) || got != wantO {
				t.Fatalf("step %d: FirstObject(%v %v) = %v %v, want %v", step, fs, fp, got, ok, wantO)
			}
		}
		probe := triple()
		if got, want := g.Contains(probe), ref.seen[refKey(probe)]; got != want {
			t.Fatalf("step %d: Contains(%v) = %v, want %v", step, probe, got, want)
		}
		merged, refMerged := NewGraph(), &refGraph{}
		merged.Add(probe)
		refMerged.add(probe)
		wantAdded := 0
		for _, tr := range ref.triples {
			if refMerged.add(tr) {
				wantAdded++
			}
		}
		if got := merged.Merge(g); got != wantAdded || !reflect.DeepEqual(merged.Triples(), refMerged.triples) {
			t.Fatalf("step %d: Merge added %d, want %d; triples %v, want %v", step, got, wantAdded, merged.Triples(), refMerged.triples)
		}
	}
	for step := 0; ; step++ {
		op, more := pick(16)
		if !more {
			check(step)
			return
		}
		switch {
		case op < 8:
			tr := triple()
			if got, want := g.Add(tr), ref.add(tr); got != want {
				t.Fatalf("step %d: Add(%v) = %v, want %v", step, tr, got, want)
			}
		case op < 14:
			tr := triple()
			if len(ref.triples) > 0 && op < 12 { // mostly remove what is there
				tr = ref.triples[draw(len(ref.triples))]
			}
			if got, want := g.Remove(tr), ref.remove(tr); got != want {
				t.Fatalf("step %d: Remove(%v) = %v, want %v", step, tr, got, want)
			}
		case op == 14:
			g.compact()
		default:
			check(step)
		}
	}
}

// TestGraphAgainstReference is the order-exact differential: 200 seeded
// schedules of Add/Remove/compact, with all eight pattern shapes (known
// and unknown terms) through Match and Cardinality, and Subjects,
// Objects, Predicates, FirstObject, Contains and Merge checked along
// the way against the string-keyed reference.
func TestGraphAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		steps := 150 + rng.Intn(250)
		diffGraphOps(t, func(n int) (int, bool) {
			steps--
			return rng.Intn(n), steps > 0
		})
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// FuzzGraphOps feeds the differential a schedule read off the fuzz input,
// one byte per draw.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 15, 8, 1, 1, 1, 0, 14, 15})
	f.Add([]byte("\x00\x00\x00\x03\x05\x00\x00\x00\x03\x00\x0f\x09\x00\x0f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		diffGraphOps(t, func(n int) (int, bool) {
			if len(data) == 0 {
				return 0, false
			}
			v := int(data[0]) % n
			data = data[1:]
			return v, true
		})
	})
}

// TestGraphValidTimeIdentity pins the has-valid-time bit in triple
// identity: a timeless triple and the same triple valid at the instant
// the zero time's UnixNano wraps to are two triples (they were one), as
// they are in a segment run, and a date before 1678 — outside UnixNano's
// range — is still an identity of its own.
func TestGraphValidTimeIdentity(t *testing.T) {
	wrap := time.Unix(0, time.Time{}.UnixNano()).UTC() // 1754-08-30T22:43:41.128654848Z
	timeless := tr("s", "p", "o")
	atWrap, early := timeless, timeless
	atWrap.ValidFrom, atWrap.ValidTo = wrap, wrap
	early.ValidFrom = time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC)
	early.ValidTo = time.Date(1601, 1, 1, 0, 0, 0, 0, time.UTC)

	g := NewGraph()
	for _, tr := range []Triple{timeless, atWrap, early} {
		if !g.Add(tr) {
			t.Fatalf("Add(%v) reported a duplicate", tr)
		}
		if g.Add(tr) {
			t.Fatalf("second Add(%v) reported a new triple", tr)
		}
	}
	got := g.Match(timeless.S, Term{}, Term{})
	if len(got) != 3 || got[0] != timeless || got[1] != atWrap || !got[2].HasValidTime() {
		t.Fatalf("Match = %v, want the timeless triple, the one at %v and one with valid time", got, wrap)
	}
	if !g.Remove(atWrap) || !g.Contains(timeless) || !g.Contains(early) || g.Contains(atWrap) {
		t.Fatal("removing the triple valid at the wrap instant must leave the other two")
	}
	if !g.Remove(timeless) || !g.Remove(early) || g.Len() != 0 {
		t.Fatalf("Len = %d after removing all three", g.Len())
	}
}

// TestGraphConcurrentReaders runs every read from several goroutines
// over a loaded graph, unknown terms included: readers never intern, so
// under -race this must stay silent.
func TestGraphConcurrentReaders(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 500; i++ {
		g.Add(tr(fmt.Sprintf("s%d", i%20), fmt.Sprintf("p%d", i%3), fmt.Sprintf("o%d", i%50)))
	}
	want := len(g.Match(NewIRI("s1"), Term{}, Term{}))
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				unknown := NewIRI(fmt.Sprintf("nope-%d-%d", r, i))
				if got := len(g.Match(NewIRI("s1"), Term{}, Term{})); got != want {
					t.Errorf("Match = %d triples, want %d", got, want)
				}
				if g.Match(unknown, NewIRI("p1"), Term{}) != nil || g.Cardinality(Term{}, Term{}, unknown) != 0 ||
					g.Contains(NewTriple(unknown, unknown, unknown)) {
					t.Error("an unknown term matched")
				}
				g.Subjects(NewIRI("p1"), Term{})
				g.Objects(unknown, Term{})
				g.Predicates()
				g.FirstObject(NewIRI("s2"), unknown)
				g.Triples()
			}
		}(r)
	}
	wg.Wait()
}

// TestGraphAllocations guards the two properties the id-space table is
// for (ci.sh pins it): a read with an unknown bound term allocates
// nothing, and neither — amortized over a presized graph — does adding a
// triple whose terms are already interned.
func TestGraphAllocations(t *testing.T) {
	const side = 32
	g := NewGraphSized(side * side * 4)
	var s, p, o []Term
	for i := 0; i < side; i++ {
		s = append(s, NewIRI(fmt.Sprintf("http://ex/s%d", i)))
		p = append(p, NewIRI(fmt.Sprintf("http://ex/p%d", i%4)))
		o = append(o, NewInteger(int64(i)))
		g.Add(NewTriple(s[i], p[i], o[i]))
	}
	unknown, known := NewIRI("http://ex/unknown"), p[0]
	if n := testing.AllocsPerRun(100, func() {
		if g.Match(unknown, known, Term{}) != nil || g.Cardinality(Term{}, known, unknown) != 0 {
			t.Fatal("an unknown term matched")
		}
	}); n != 0 {
		t.Errorf("Match + Cardinality on an unknown bound term: %v allocs, want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(side*side*4-side-1, func() {
		i++
		g.Add(NewTriple(s[i%side], p[i/side%4], o[i/side/4]))
	}); n != 0 {
		t.Errorf("Add of interned terms into a presized graph: %v allocs per triple, want 0 amortized", n)
	}
	if g.Len() < side*side*4-side {
		t.Fatalf("Len = %d: the schedule added duplicates", g.Len())
	}
}
