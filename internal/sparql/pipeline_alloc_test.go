package sparql_test

import (
	"context"
	"fmt"
	"testing"

	"applab/internal/rdf"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
)

// viewportFeatures is a Listing-3-shaped dataset of n features, each
// typed and with a point geometry on a 20x20 grid; every other one has a
// LAI value.
func viewportFeatures(n int) []rdf.Triple {
	typ := rdf.NewIRI(rdf.NSRDF + "type")
	feature := rdf.NewIRI(rdf.NSAppLab + "Feature")
	lai := rdf.NewIRI(rdf.NSLAI + "lai")
	hasGeom := rdf.NewIRI(rdf.NSGeo + "hasGeometry")
	asWKT := rdf.NewIRI(rdf.NSGeo + "asWKT")
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex.org/f%d", i))
		g := rdf.NewIRI(fmt.Sprintf("http://ex.org/f%d/geom", i))
		if i%2 == 0 {
			ts = append(ts, rdf.NewTriple(s, lai, rdf.NewDouble(float64(i%9)/2)))
		}
		ts = append(ts,
			rdf.NewTriple(s, typ, feature),
			rdf.NewTriple(s, hasGeom, g),
			rdf.NewTriple(g, asWKT, rdf.NewTypedLiteral(fmt.Sprintf("POINT (%d %d)", i%20, (i/20)%20), rdf.NSGeo+"wktLiteral")))
	}
	return ts
}

// pipelineViewportQuery is a map viewport over viewportFeatures: four
// patterns and a FILTER that keeps one grid row of twenty, 5 % of them.
const pipelineViewportQuery = `SELECT ?s ?wkt ?lai WHERE {
  ?s a applab:Feature . ?s lai:lai ?lai . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt .
  FILTER(geof:sfWithin(?wkt, "POLYGON ((-0.5 -0.5, 19.5 -0.5, 19.5 0.5, -0.5 0.5, -0.5 -0.5))"^^geo:wktLiteral)) }`

// TestPipelineAllocations is the allocation guard ci.sh names for the
// pipelined engine: the viewport query over a disk store with two runs.
// Per evaluation it may allocate for the 50 surviving rows and their
// answer table, and for the scans' reused ref buffers, plus slack: 23 KB
// measured, up to 44 KB under the race detector (its sync.Pool drops
// pooled chunks at random, 5 KB each), the ceiling 24 % above that. The
// unit is one pipeline: the head scan's 1,000 matches, the three later
// scans and the FILTER run row by row through per-step scratch rows, so
// the rows the FILTER drops are never copied; materializing the head's
// output before the rest of the unit costs 81 KB and trips it.
func TestPipelineAllocations(t *testing.T) {
	const (
		features = 2000
		ceiling  = 55_000
	)
	data := viewportFeatures(features)
	st, err := strabon.Open(t.TempDir(), segment.Options{FlushEvery: -1, CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, part := range [][]rdf.Triple{data[:len(data)/2], data[len(data)/2:]} {
		st.AddAll(part)
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Engine().Segments(); got != 2 {
		t.Fatalf("%d runs, want 2", got)
	}
	q, err := sparql.Parse(pipelineViewportQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.EvalOneWorker(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != features/40 {
		t.Fatalf("%d rows, want %d", len(res.Bindings), features/40)
	}
	bytes, allocs := perEval(t, plainEval(q, st))
	t.Logf("%d B, %d allocs per evaluation", bytes, allocs)
	if bytes > ceiling {
		t.Fatalf("allocates %d B per evaluation, ceiling is %d", bytes, ceiling)
	}
}
