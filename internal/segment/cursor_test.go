package segment

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"applab/internal/rdf"
)

// Differential test of the merged cursor against the read path it
// replaced (matchReference): seeded add / delete / re-add / flush /
// compact schedules over a universe small enough that runs and the
// memtable constantly hold the same triples, checked for slice equality
// — order included — on all 8 pattern shapes.

type universe struct {
	subjects, predicates, objects []rdf.Term
	times                         [][2]time.Time
}

func newUniverse() universe {
	var u universe
	for i := 0; i < 5; i++ {
		u.subjects = append(u.subjects, rdf.NewIRI("http://ex/s"+strconv.Itoa(i)))
	}
	u.subjects = append(u.subjects, rdf.NewBlank("b0"), rdf.NewBlank("b1"))
	for i := 0; i < 3; i++ {
		u.predicates = append(u.predicates, rdf.NewIRI("http://ex/p"+strconv.Itoa(i)))
	}
	// Objects whose keys differ only in where datatype, language tag and
	// lexical form meet, next to IRIs and blanks the subjects share.
	u.objects = append(u.objects, u.subjects[0], u.subjects[5],
		rdf.NewIRI("http://ex/s"), rdf.NewLiteral("s0"), rdf.NewLiteral(""),
		rdf.NewInteger(7), rdf.NewTypedLiteral("7", rdf.XSDInteger+"x"),
		rdf.NewLangLiteral("sept", "fr"), rdf.NewLangLiteral("sept", "fr-CA"),
		rdf.NewTypedLiteral("fr\x00sept", rdf.RDFLangString+"@"))
	at := func(sec int64) time.Time { return time.Unix(0, sec*1e9).UTC() }
	u.times = [][2]time.Time{
		{}, {}, {}, // most triples carry no valid time
		{at(100), at(200)}, {at(100), at(300)}, {at(0), at(50)},
		{at(-500), at(-100)}, {at(-500), at(700)}, // valid from before 1970
	}
	return u
}

func (u universe) triple(r *rand.Rand) rdf.Triple {
	t := rdf.NewTriple(u.subjects[r.Intn(len(u.subjects))], u.predicates[r.Intn(len(u.predicates))], u.objects[r.Intn(len(u.objects))])
	vt := u.times[r.Intn(len(u.times))]
	t.ValidFrom, t.ValidTo = vt[0], vt[1]
	return t
}

// pattern binds the positions named by shape's low three bits, mostly
// to terms that occur, sometimes to one that does not.
func (u universe) pattern(r *rand.Rand, shape int) (s, p, o rdf.Term) {
	pick := func(from []rdf.Term) rdf.Term {
		if r.Intn(8) == 0 {
			return rdf.NewIRI("http://ex/absent")
		}
		return from[r.Intn(len(from))]
	}
	if shape&1 != 0 {
		s = pick(u.subjects)
	}
	if shape&2 != 0 {
		p = pick(u.predicates)
	}
	if shape&4 != 0 {
		o = pick(u.objects)
	}
	return s, p, o
}

func checkAgainstReference(t *testing.T, e *Engine, u universe, r *rand.Rand, step int) {
	t.Helper()
	for shape := 0; shape < 8; shape++ {
		s, p, o := u.pattern(r, shape)
		got, want := e.Match(s, p, o), matchReference(e, s, p, o)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Match(%v %v %v):\n got %v\nwant %v", step, s, p, o, got, want)
		}
	}
	if got, want := e.Len(), len(matchReference(e, rdf.Term{}, rdf.Term{}, rdf.Term{})); got != want {
		t.Fatalf("step %d: Len = %d, reference %d", step, got, want)
	}
}

func TestMatchAgainstReference(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	u := newUniverse()
	for seed := 1; seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		// Odd seeds never compact on their own, so reads merge many runs.
		opts := Options{FlushEvery: 5 + seed%7, CompactAt: 3}
		if seed%2 == 1 {
			opts.CompactAt = -1
		}
		e := mustOpen(t, t.TempDir(), opts)
		var recent []rdf.Triple
		for step := 0; step < 48; step++ {
			var err error
			switch op := r.Intn(12); {
			case op < 6:
				batch := make([]rdf.Triple, 1+r.Intn(4))
				for i := range batch {
					batch[i] = u.triple(r)
				}
				recent = append(recent, batch...)
				_, err = e.AddAll(batch)
			case op < 8 && len(recent) > 0: // delete something that exists
				_, err = e.Delete(recent[r.Intn(len(recent))])
			case op < 9:
				_, err = e.Delete(u.triple(r))
			case op < 10 && len(recent) > 0: // re-add, maybe after a delete
				_, err = e.Add(recent[r.Intn(len(recent))])
			case op < 11:
				err = e.Flush()
			default:
				err = e.Compact()
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if step%8 == 7 {
				checkAgainstReference(t, e, u, r, step)
			}
		}
		checkAgainstReference(t, e, u, r, 48)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// twoRunEngine returns an engine of two runs, nothing in the memtable:
// perSubject triples for each of subjects subjects in the older run,
// and the odd-numbered ones again (plus one new per subject) in the
// newer.
func twoRunEngine(tb testing.TB, subjects, perSubject int) *Engine {
	tb.Helper()
	e := mustOpen(tb, tb.TempDir(), Options{FlushEvery: -1, CompactAt: -1})
	tb.Cleanup(func() { e.Close() })
	var older, newer []rdf.Triple
	for s := 0; s < subjects; s++ {
		for i := 0; i < perSubject; i++ {
			tr := rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://ex/s%06d", s)), rdf.NewIRI("http://ex/p"+strconv.Itoa(i%8)), rdf.NewInteger(int64(i)))
			older = append(older, tr)
			if i%2 == 1 {
				newer = append(newer, tr)
			}
		}
		newer = append(newer, rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://ex/s%06d", s)), rdf.NewIRI("http://ex/p0"), rdf.NewLiteral("new")))
	}
	for _, batch := range [][]rdf.Triple{older, newer} {
		mustAdd(tb, e, batch...)
		if err := e.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	if e.Segments() != 2 {
		tb.Fatalf("%d runs, want 2", e.Segments())
	}
	return e
}

// TestMatchAllocations: a subject-bound Match over two runs allocates
// its output slice and nothing that grows with the rows matched.
func TestMatchAllocations(t *testing.T) {
	allocs := func(perSubject int) float64 {
		e := twoRunEngine(t, 4, perSubject)
		s := rdf.NewIRI("http://ex/s000002")
		if n := len(e.Match(s, rdf.Term{}, rdf.Term{})); n != perSubject+1 {
			t.Fatalf("matched %d rows, want %d", n, perSubject+1)
		}
		return testing.AllocsPerRun(50, func() { e.Match(s, rdf.Term{}, rdf.Term{}) })
	}
	few, many := allocs(10), allocs(1000)
	if few != many || many > 1 {
		t.Fatalf("subject-bound Match allocates %v objects for 11 rows, %v for 1001; want the same, at most 1", few, many)
	}
}

// TestUnrelatedTombstonesCostNothing: tombstones are reached through
// their graph's indexes, so a thousand of them on other subjects leave a
// subject-bound read with the sources, the steps and the allocations it
// has with none.
func TestUnrelatedTombstonesCostNothing(t *testing.T) {
	s := rdf.NewIRI("http://ex/s000002")
	measure := func(tombstones int) (sources, steps int, allocs float64) {
		e := twoRunEngine(t, 4, 10)
		for i := 0; i < tombstones; i++ {
			if _, err := e.Delete(tri("gone"+strconv.Itoa(i), "p", "o")); err != nil {
				t.Fatal(err)
			}
		}
		var m merge
		e.open(&m, s, rdf.Term{}, rdf.Term{}, true, func(err error) { t.Fatal(err) })
		sources = m.n
		for m.next() != nil {
			steps++
		}
		return sources, steps, testing.AllocsPerRun(50, func() { e.Match(s, rdf.Term{}, rdf.Term{}) })
	}
	s0, n0, a0 := measure(0)
	s1, n1, a1 := measure(1000)
	// The tombstone graph is consulted once it is non-empty: one index
	// lookup, which builds the subject's key.
	if s0 != s1 || n0 != n1 || a1 > a0+1 {
		t.Fatalf("with 1000 unrelated tombstones: %d sources, %d steps, %v allocs; with none: %d, %d, %v", s1, n1, a1, s0, n0, a0)
	}
	// And one that does match is honoured.
	e := twoRunEngine(t, 4, 10)
	victim := e.Match(s, rdf.Term{}, rdf.Term{})[3]
	if _, err := e.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Match(s, rdf.Term{}, rdf.Term{}), matchReference(e, s, rdf.Term{}, rdf.Term{}); len(got) != 10 || !reflect.DeepEqual(got, want) {
		t.Fatalf("after deleting one of 11: %d rows, reference %d", len(got), len(want))
	}
}

// The micro-benchmarks of the read path: a two-run engine of ~50k
// live triples (5 000 subjects, 9 rows each in one run, 5 in the other).

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e := twoRunEngine(b, 5000, 9)
	e.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}) // load every section
	b.ReportAllocs()
	b.ResetTimer()
	return e
}

var benchSink int

func BenchmarkEngine_MatchSubject(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%06d", i%5000))
		benchSink += len(e.Match(s, rdf.Term{}, rdf.Term{}))
	}
}

func BenchmarkEngine_MatchPredicate(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		benchSink += len(e.Match(rdf.Term{}, rdf.NewIRI("http://ex/p"+strconv.Itoa(i%8)), rdf.Term{}))
	}
}

func BenchmarkEngine_MatchPredObj(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		benchSink += len(e.Match(rdf.Term{}, rdf.NewIRI("http://ex/p"+strconv.Itoa(i%8)), rdf.NewInteger(int64(i%8))))
	}
}

func BenchmarkEngine_MatchAll(b *testing.B) {
	e := benchEngine(b)
	for i := 0; i < b.N; i++ {
		benchSink += len(e.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}))
	}
}

func BenchmarkEngine_Compact(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := twoRunEngine(b, 5000, 9)
		b.StartTimer()
		if err := e.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
