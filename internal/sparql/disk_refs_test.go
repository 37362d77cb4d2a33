package sparql_test

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"applab/internal/rdf"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
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
// dictionaries (542 KB per evaluation, the ceiling 15 % above);
// materializing a 216-byte triple per match instead costs 1.7 MB and
// trips the byte ceiling. Each nested-loop step appends its refs to one
// buffer it reuses for every row (1,306 allocations per evaluation, the
// ceiling 11 % above); a fresh ref slice per scan costs 5,057 and trips
// the allocation ceiling.
func TestDiskScanAllocations(t *testing.T) {
	const (
		ceiling      = 625_000
		allocCeiling = 1_450
	)
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
	if allocs > allocCeiling {
		t.Fatalf("makes %d allocations per evaluation, ceiling is %d", allocs, allocCeiling)
	}
}

// scanGraph holds n probe subjects with an ex:kind, and 2n subjects with
// an ex:val each, so that a join of the two runs as a nested loop: the
// constants-only estimate of the val pattern (2n) exceeds the n rows
// that probe it, which rules out a hash join.
func scanGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	kind, val := rdf.NewIRI("http://ex.org/kind"), rdf.NewIRI("http://ex.org/val")
	for i := 0; i < 2*n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", i))
		if i < n {
			g.Add(rdf.NewTriple(s, kind, rdf.NewLiteral("k")))
		}
		g.Add(rdf.NewTriple(s, val, rdf.NewInteger(int64(i))))
	}
	return g
}

// TestGraphScanAllocations is the allocation guard ci.sh names for scans
// of an rdf.Graph: a bound-subject nested-loop join at 1k and at 4k
// probe rows. The graph answers each row's scan by reference into the
// step's reused buffer, so an evaluation allocates the same handful of
// times at either size (the COUNT keeps the result one row). A slice
// per row — what Graph.Match hands out — adds 3,000 allocations at 4k.
func TestGraphScanAllocations(t *testing.T) {
	const slack = 16
	q, err := sparql.Parse(`SELECT (COUNT(*) AS ?c) WHERE { ?s <http://ex.org/kind> "k" . ?s <http://ex.org/val> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sparql.SetMetrics(reg)
	t.Cleanup(func() { sparql.SetMetrics(nil) })
	nested := `sparql_join_strategy_total{strategy="nested_loop"}`
	var allocs [2]uint64
	for i, n := range []int{1000, 4000} {
		g := scanGraph(n)
		before := reg.Snapshot().Counters[nested]
		res, err := q.EvalOneWorker(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Binding(0)["c"].Value; got != fmt.Sprint(n) {
			t.Fatalf("COUNT = %s at %d subjects, want %d", got, n, n)
		}
		if reg.Snapshot().Counters[nested] == before {
			t.Fatalf("no nested-loop step at %d subjects; the fixture must exercise one", n)
		}
		var bytes uint64
		bytes, allocs[i] = perEval(t, plainEval(q, g))
		t.Logf("%d subjects: %d B, %d allocs per evaluation", n, bytes, allocs[i])
	}
	if allocs[1] > allocs[0]+slack {
		t.Fatalf("%d allocs per evaluation at 4k subjects, %d at 1k: scans allocate per row", allocs[1], allocs[0])
	}
}
