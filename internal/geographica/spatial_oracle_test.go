package geographica

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"applab/internal/rdf"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/workload"
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

// canonicalRows renders a result as a sorted row multiset.
func canonicalRows(t *testing.T, res *sparql.Results) string {
	t.Helper()
	rows := make([]string, 0, len(res.Bindings))
	for _, b := range res.Bindings {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var sb strings.Builder
		for _, v := range vars {
			fmt.Fprintf(&sb, "%s=%s;", v, b[v].Key())
		}
		rows = append(rows, sb.String())
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

func restoreEngineKnobs(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		sparql.SetQueryWorkers(0)
		sparql.SetParallelThreshold(0)
		if err := sparql.SetSpatialJoin(""); err != nil {
			t.Fatal(err)
		}
		sparql.SetSpatialCells(0)
	})
}

func TestSpatialJoinOracle(t *testing.T) {
	restoreEngineKnobs(t)
	w := NewWorkload(40, 7)
	sys, err := NewStrabonSystem(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Store().Close()
	mem := sys.Store()

	// The same triples in a segment-backed store, flushed, closed, and
	// reopened cold: the R-tree is rebuilt from segments on first use.
	var triples []rdf.Triple
	for _, name := range []string{"osm", "clc", "ua", "gadm"} {
		feats, err := w.dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		ns := datasetNS[name]
		triples = append(triples, workload.FeaturesToRDF(ns.ns, ns.classProp, feats)...)
	}
	dir := t.TempDir()
	disk, err := strabon.Open(dir, segment.Options{FlushEvery: 128, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	disk.AddAll(triples)
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

	sparql.SetParallelThreshold(1)
	modes := []string{
		sparql.SpatialJoinOff, sparql.SpatialJoinINL, sparql.SpatialJoinCells,
		sparql.SpatialJoinStore, sparql.SpatialJoinAuto,
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
		oracle := canonicalRows(t, seedRes)
		if oracle == "" {
			t.Fatalf("query %d: oracle is empty; workload too sparse to prove anything", qi)
		}
		for _, store := range []struct {
			name string
			st   *strabon.Store
		}{{"memory", mem}, {"disk-reopened", cold}} {
			for _, mode := range modes {
				if err := sparql.SetSpatialJoin(mode); err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					sparql.SetQueryWorkers(workers)
					res, err := store.st.Query(qs)
					if err != nil {
						t.Fatalf("query %d %s mode=%s workers=%d: %v", qi, store.name, mode, workers, err)
					}
					if got := canonicalRows(t, res); got != oracle {
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
	sys, err := NewStrabonSystem(NewWorkload(200, 11))
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
	for _, mode := range []string{sparql.SpatialJoinOff, sparql.SpatialJoinAuto} {
		b.Run(mode, func(b *testing.B) {
			if err := sparql.SetSpatialJoin(mode); err != nil {
				b.Fatal(err)
			}
			defer sparql.SetSpatialJoin("")
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
