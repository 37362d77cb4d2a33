package sparql_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"applab/internal/geographica"
	"applab/internal/rdf"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// The spatial-join operator must be answer-invisible: for every
// strategy (off/inl/store/auto), any worker count, and both the
// in-memory and the segment-backed disk store, a Geographica join query
// returns exactly the rows the seed evaluator produces. This is the
// differential oracle the perf work is gated on.

const sjSelectTmpl = `SELECT ?a ?b WHERE {
  ?a <%s> ?clsA .
  ?a geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?b <%s> ?clsB .
  ?b geo:hasGeometry ?gb .
  ?gb geo:asWKT ?wb .
  FILTER(geof:%s(?wa, ?wb))
}`

const sjCountTmpl = `SELECT (COUNT(*) AS ?n) WHERE {
  ?a <%s> ?clsA .
  ?a geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?b <%s> ?clsB .
  ?b geo:hasGeometry ?gb .
  ?gb geo:asWKT ?wb .
  FILTER(geof:%s(?wa, ?wb))
}`

// The bare ?gb geo:asWKT ?wb build side is the shape the operator can
// push down to the store's own R-tree.
const sjStoreShapeTmpl = `SELECT ?a ?gb WHERE {
  ?a <%s> ?clsA .
  ?a geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?gb geo:asWKT ?wb .
  FILTER(geof:%s(?wa, ?wb))
}`

func oracleQueries() []string {
	return []string{
		fmt.Sprintf(sjSelectTmpl, rdf.NSOSM+"poiType", rdf.NSCLC+"hasCorineValue", "sfIntersects"),
		fmt.Sprintf(sjSelectTmpl, rdf.NSUA+"hasClass", rdf.NSGADM+"hasType", "sfWithin"),
		fmt.Sprintf(sjCountTmpl, rdf.NSOSM+"poiType", rdf.NSGADM+"hasType", "sfIntersects"),
		fmt.Sprintf(sjStoreShapeTmpl, rdf.NSOSM+"poiType", "sfIntersects"),
	}
}

func TestSpatialJoinOracle(t *testing.T) {
	mem, err := geographica.LoadStore(geographica.NewWorkload(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()

	// The same triples in a segment-backed store, flushed, closed, and
	// reopened cold: the R-tree is rebuilt from segments on first use.
	dir := t.TempDir()
	disk, err := strabon.Open(dir, segment.Options{FlushEvery: 128, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	disk.AddAll(mem.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}))
	if err := disk.Err(); err != nil {
		t.Fatalf("disk ingest: %v", err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	cold, err := strabon.Open(dir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()

	modes := []string{
		sparql.SpatialOff, sparql.SpatialINL, sparql.SpatialStore, sparql.SpatialAuto,
	}
	for qi, qs := range oracleQueries() {
		parsed, err := sparql.Parse(qs)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		seedRes, err := parsed.EvalSeed(mem)
		if err != nil {
			t.Fatalf("query %d seed: %v", qi, err)
		}
		oracle := sparql.RowsKey(seedRes)
		if oracle == "" {
			t.Fatalf("query %d: oracle is empty; workload too sparse to prove anything", qi)
		}
		for _, store := range []struct {
			name string
			st   *strabon.Store
		}{{"memory", mem}, {"disk-reopened", cold}} {
			for _, mode := range modes {
				for _, workers := range []int{1, 4} {
					sparql.Force(t, workers, 1, mode)
					res, err := store.st.Query(qs)
					if err != nil {
						t.Fatalf("query %d %s mode=%s workers=%d: %v", qi, store.name, mode, workers, err)
					}
					if got := sparql.RowsKey(res); got != oracle {
						t.Fatalf("query %d %s mode=%s workers=%d: %d rows diverge from seed oracle (%d rows)",
							qi, store.name, mode, workers, len(res.Bindings), len(seedRes.Bindings))
					}
				}
			}
		}
	}
}

// BenchmarkSpatialJoin times the oracle queries on the per-row filter
// path (off) and on the planner-selected spatial join (auto); which
// strategies run and that they agree is TestSpatialJoinOracle's job.
func BenchmarkSpatialJoin(b *testing.B) {
	st, err := geographica.LoadStore(geographica.NewWorkload(200, 11))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	var queries []*sparql.Query
	for _, qs := range oracleQueries() {
		q, err := sparql.Parse(qs)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	for _, mode := range []string{sparql.SpatialOff, sparql.SpatialAuto} {
		b.Run(mode, func(b *testing.B) {
			sparql.Force(b, 0, 0, mode)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := q.Eval(st); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestSpatialJoinWarmAllocations: the spatial join reads both sides'
// geometries from geosparql's memo, so once one evaluation has decoded
// the store's 1,000 polygons, an SJ1-shaped evaluation over them
// allocates for its scans, joins and envelope index (~2,500, four in
// five of them the store's Match slices) and decodes nothing. Decoding
// per evaluation costs six allocations a polygon (~14,700 in all); even
// one a polygon trips the ceiling.
func TestSpatialJoinWarmAllocations(t *testing.T) {
	const perSide = 500
	st := sjPolygons(t, perSide)
	q, err := sparql.Parse(`SELECT (COUNT(*) AS ?n) WHERE {
  ?a <urn:sj:kind> <urn:sj:a> .
  ?a geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?b <urn:sj:kind> <urn:sj:b> .
  ?b geo:hasGeometry ?gb .
  ?gb geo:asWKT ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb))
  FILTER(geof:sfIntersects(?wa, "POLYGON ((0 0, 30 0, 30 30, 0 30, 0 0))"^^geo:wktLiteral))
}`)
	if err != nil {
		t.Fatal(err)
	}
	var n rdf.Term
	eval := func() {
		res, err := q.EvalOneWorker(context.Background(), st)
		if err != nil {
			t.Fatal(err)
		}
		n = res.Binding(0)["n"]
	}
	eval() // decode every polygon into the memo
	allocs := testing.AllocsPerRun(5, eval)
	if v, _ := n.Int(); v != perSide {
		t.Fatalf("COUNT = %s, want %d pairs", n, perSide)
	}
	const ceiling = 3000
	if allocs > ceiling {
		t.Fatalf("%.0f allocations per warm evaluation, ceiling %d", allocs, ceiling)
	}
	t.Logf("%.0f allocations per warm evaluation", allocs)
}

// sjPolygons is a store of perSide features of class a and of class b,
// half-unit squares on a 25-wide grid; feature i of a intersects
// feature i of b only.
func sjPolygons(t *testing.T, perSide int) *strabon.Store {
	kind := rdf.NewIRI("urn:sj:kind")
	hasGeom := rdf.NewIRI(rdf.NSGeo + "hasGeometry")
	asWKT := rdf.NewIRI(rdf.NSGeo + "asWKT")
	st := strabon.New()
	t.Cleanup(func() { _ = st.Close() })
	var triples []rdf.Triple
	for side, class := range []string{"a", "b"} {
		for i := 0; i < perSide; i++ {
			f := rdf.NewIRI(fmt.Sprintf("urn:sj:%s%d", class, i))
			gn := rdf.NewIRI(fmt.Sprintf("urn:sj:%s%d/geom", class, i))
			x, y := float64(i%25)+0.3*float64(side), float64(i/25)+0.3*float64(side)
			triples = append(triples,
				rdf.NewTriple(f, kind, rdf.NewIRI("urn:sj:"+class)),
				rdf.NewTriple(f, hasGeom, gn),
				rdf.NewTriple(gn, asWKT, rdf.NewWKT(fmt.Sprintf(
					"POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))", x, y, x+0.5, y, x+0.5, y+0.5, x, y+0.5, x, y))))
		}
	}
	st.AddAll(triples)
	return st
}

// TestSpatialJoinLargeBuildSide: the planner runs the R-tree nested loop
// whatever the build side's size, and a join of 1,500 features a side
// pairs exactly feature i of a with feature i of b, on one worker and
// on four.
func TestSpatialJoinLargeBuildSide(t *testing.T) {
	const perSide = 1500
	st := sjPolygons(t, perSide)
	const where = `WHERE {
  ?a <urn:sj:kind> <urn:sj:a> .
  ?a geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?b <urn:sj:kind> <urn:sj:b> .
  ?b geo:hasGeometry ?gb .
  ?gb geo:asWKT ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb))
}`
	pairs, err := sparql.Parse("SELECT ?a ?b " + where)
	if err != nil {
		t.Fatal(err)
	}
	count, err := sparql.Parse("SELECT (COUNT(*) AS ?n) " + where)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		sparql.Force(t, workers, 1, sparql.SpatialAuto)
		reg := telemetry.NewRegistry()
		sparql.SetMetrics(reg)
		res, err := pairs.Eval(st)
		sparql.SetMetrics(nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Bindings) != perSide {
			t.Fatalf("workers=%d: %d pairs, want %d", workers, len(res.Bindings), perSide)
		}
		for i := range res.Bindings {
			b := res.Binding(i)
			if a, bb := b["a"].Value, b["b"].Value; strings.TrimPrefix(a, "urn:sj:a") != strings.TrimPrefix(bb, "urn:sj:b") {
				t.Fatalf("workers=%d: pair %s, %s is not feature i of both sides", workers, a, bb)
			}
		}
		if got := reg.Snapshot().Counters[`spatial_join_total{strategy="inl"}`]; got != 1 {
			t.Fatalf(`workers=%d: spatial_join_total{strategy="inl"} = %d, want 1`, workers, got)
		}
		res, err = count.Eval(st)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n, _ := res.Binding(0)["n"].Int(); n != perSide {
			t.Fatalf("workers=%d: COUNT = %d, want %d", workers, n, perSide)
		}
	}
}

// TestSpatialJoinFilterAllocations is the allocation ceiling ci.sh
// names for side filters: an SJ1-shaped join whose constant FILTER on
// the build side's geometry keeps 25 of 500 features. The filter runs
// inside the build side, so the join indexes and pairs only the rows
// it keeps: 72 KB per evaluation, up to 93 KB under the race detector,
// the ceiling 18 % above that. Filtering after the join builds all 500
// and pairs them (284 KB) and trips it.
func TestSpatialJoinFilterAllocations(t *testing.T) {
	const (
		perSide = 500
		ceiling = 110_000
	)
	st := sjPolygons(t, perSide)
	q, err := sparql.Parse(`SELECT (COUNT(*) AS ?n) WHERE {
  ?a <urn:sj:kind> <urn:sj:a> .
  ?a geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?b <urn:sj:kind> <urn:sj:b> .
  ?b geo:hasGeometry ?gb .
  ?gb geo:asWKT ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb))
  FILTER(geof:sfIntersects(?wb, "POLYGON ((0 0, 25 0, 25 1, 0 1, 0 0))"^^geo:wktLiteral))
}`)
	if err != nil {
		t.Fatal(err)
	}
	eval := func() (*sparql.Results, error) { return q.EvalOneWorker(context.Background(), st) }
	res, err := eval()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Binding(0)["n"].Int(); n != 25 {
		t.Fatalf("COUNT = %d, want 25 pairs", n)
	}
	bytes, allocs := perEval(t, eval)
	t.Logf("%d B, %d allocs per evaluation", bytes, allocs)
	if bytes > ceiling {
		t.Fatalf("allocates %d B per evaluation, ceiling is %d", bytes, ceiling)
	}
}
