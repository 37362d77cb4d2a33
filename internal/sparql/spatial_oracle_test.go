package sparql_test

import (
	"fmt"
	"testing"

	"applab/internal/geographica"
	"applab/internal/rdf"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
)

// The spatial-join operator must be answer-invisible: for every
// strategy (off/inl/cells/store/auto), any worker count, and both the
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
	sys, err := geographica.NewStrabonSystem(geographica.NewWorkload(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	mem := sys.Store()
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
		sparql.SpatialOff, sparql.SpatialINL, sparql.SpatialCells,
		sparql.SpatialStore, sparql.SpatialAuto,
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
	sys, err := geographica.NewStrabonSystem(geographica.NewWorkload(200, 11))
	if err != nil {
		b.Fatal(err)
	}
	st := sys.Store()
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
