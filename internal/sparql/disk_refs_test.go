package sparql_test

import (
	"slices"
	"testing"
	"time"

	"applab/internal/rdf"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
)

// A disk-backed strabon.Store is a RefSource: the compiled engine reads
// its scans as handles into run dictionaries and the memtable's per-call
// copies. These tests hold that path to the seed evaluator's answers and
// to its allocation budget.

// layeredDiskStore loads data into a disk-backed store in every layer a
// read merges — three runs, a memtable tail, tombstones in a run and in
// the memtable masking rows of older runs, rows repeated across runs —
// and returns the store with an rdf.Graph that took the same writes.
// (p5 ex:age 25) also lives at two valid times, one before 1970, beside
// its timeless twin: the triples whose canonical order needs hoisting on
// the materializing path.
func layeredDiskStore(tb testing.TB, data []rdf.Triple) (*strabon.Store, *rdf.Graph) {
	tb.Helper()
	st, err := strabon.Open(tb.TempDir(), segment.Options{FlushEvery: -1, CompactAt: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = st.Close() })
	live := rdf.NewGraph()
	add := func(ts ...rdf.Triple) {
		st.AddAll(ts)
		live.AddAll(ts)
	}
	del := func(ts ...rdf.Triple) {
		for _, t := range ts {
			st.Delete(t)
			live.Remove(t)
		}
	}
	flush := func() {
		if err := st.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	at := func(from, to int) rdf.Triple {
		t := rdf.NewTriple(rdf.NewIRI("http://ex.org/p5"), rdf.NewIRI("http://ex.org/age"), rdf.NewInteger(25))
		t.ValidFrom = time.Date(from, 1, 1, 0, 0, 0, 0, time.UTC)
		t.ValidTo = time.Date(to, 1, 1, 0, 0, 0, 0, time.UTC)
		return t
	}
	n := len(data)
	add(data[:n/2]...)
	add(at(1960, 1965))
	flush()
	add(data[n/4 : 3*n/4]...)
	add(at(2018, 2019))
	flush()
	del(data[n/8 : n/8+40]...)     // rows only the first run holds
	del(data[n/2 : n/2+40]...)     // rows only the second run holds
	del(data[3*n/8 : 3*n/8+10]...) // rows both runs hold
	add(data[n/8 : n/8+5]...)      // five revived before the flush
	flush()
	add(data[3*n/4:]...)
	del(data[40:60]...) // memtable tombstones over the first run
	del(data[n-10:]...) // and over the memtable's own rows

	if got := st.Engine().Segments(); got != 3 {
		tb.Fatalf("%d runs, want 3", got)
	}
	if s := st.Engine().Stats(); s.MemtableTriples == 0 || s.Tombstones == 0 {
		tb.Fatalf("memtable holds %d triples and the store %d tombstones; want both", s.MemtableTriples, s.Tombstones)
	}
	return st, live
}

// canonical sorts triples in place into canonical order, valid time
// included, and renders them.
func canonical(ts []rdf.Triple) []string {
	slices.SortFunc(ts, func(a, b rdf.Triple) int { return a.Compare(&b) })
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

// TestCompiledEngineMatchesSeedOverDiskStore runs the seed-equivalence
// queries over the by-reference path: compiled at 1, 2 and 8 workers
// over a layered disk store against EvalSeed over a graph of the same
// live triples, ORDER BY order included.
func TestCompiledEngineMatchesSeedOverDiskStore(t *testing.T) {
	st, live := layeredDiskStore(t, sparql.LoopedGraph(400).Triples())
	if _, ok := sparql.Source(st).(sparql.RefSource); !ok {
		t.Fatal("a disk-backed strabon.Store is not a sparql.RefSource")
	}
	// The oracle graph holds the live triples in canonical order, the
	// order a store with runs answers in: a few of the queries (a GROUP
	// BY's non-aggregated projection, CONSTRUCT's blank nodes) answer by
	// the first row of a group, which follows scan order.
	stored, want := st.Engine().Triples(), live.Triples()
	if !slices.Equal(canonical(stored), canonical(want)) {
		t.Fatalf("the store holds %d live triples, the graph %d; the fixture must agree with itself", len(stored), len(want))
	}
	oracle := rdf.NewGraph()
	oracle.AddAll(want)
	for _, q := range sparql.EquivQueries {
		parsed, err := sparql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		seed, err1 := parsed.EvalSeed(oracle)
		for _, workers := range []int{1, 2, 8} {
			comp, err2 := parsed.EvalWorkers(st, workers, 1)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("error disagreement for %q: seed=%v compiled(%d workers)=%v", q, err1, workers, err2)
			}
			if err1 != nil {
				continue
			}
			if sparql.ResultsKey(seed) != sparql.ResultsKey(comp) {
				t.Errorf("result mismatch for %q at %d workers:\nseed:     %d rows\ncompiled: %d rows",
					q, workers, len(seed.Bindings), len(comp.Bindings))
			}
			if len(parsed.OrderBy) > 0 && sparql.OrderedKey(seed) != sparql.OrderedKey(comp) {
				t.Errorf("ORDER BY result order differs from seed for %q at %d workers", q, workers)
			}
		}
	}
}

// TestDiskScanAllocations is the allocation guard ci.sh names for scans
// over runs: Engine_BGPJoin's query over a disk store with two runs and
// a memtable tail. Its scans hand the engine 24-byte refs into the run
// dictionaries (1.6 MB per evaluation, most of it the memtable's own
// copies and the result's Binding maps); materializing a 216-byte triple
// per match instead costs 2.6 MB and trips the ceiling.
func TestDiskScanAllocations(t *testing.T) {
	const ceiling = 2_000_000
	data := sparql.EquivGraph(sparql.BenchSubjects).Triples()
	st, err := strabon.Open(t.TempDir(), segment.Options{FlushEvery: -1, CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := len(data)
	for _, part := range [][]rdf.Triple{data[:n/3], data[n/3 : 2*n/3]} {
		st.AddAll(part)
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st.AddAll(data[2*n/3:])
	if got := st.Engine().Segments(); got != 2 {
		t.Fatalf("%d runs, want 2", got)
	}
	bytes, allocs := perEval(t, plainEval(joinQuery(t), st))
	t.Logf("%d B, %d allocs per evaluation", bytes, allocs)
	if bytes > ceiling {
		t.Fatalf("allocates %d B per evaluation, ceiling is %d", bytes, ceiling)
	}
}
