package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"applab/internal/admission"
	"applab/internal/geom"
	"applab/internal/rdf"
	"applab/internal/telemetry"
)

// The spatial-join operator must be invisible except for speed: every
// strategy (R-tree nested loop, store pushdown) has to
// produce exactly the rows the per-row filter path produces, in the
// same order for any worker count. These tests pin the detection rules
// and the equivalence, forcing each strategy through Force.

var (
	spKind = rdf.NewIRI("urn:sp:kind")
	spWKT  = rdf.NewIRI("urn:sp:wkt")
)

// spatialGraph holds nRegions unit squares on a 10x10 grid plus nPlaces
// random points and segments, each feature tagged with its kind and a
// WKT serialization. A few broken features (unparsable WKT, IRI-valued
// geometry) exercise the decode-failure path.
func spatialGraph(nRegions, nPlaces int) *rdf.Graph {
	g := rdf.NewGraph()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < nRegions; i++ {
		s := rdf.NewIRI(fmt.Sprintf("urn:sp:r%d", i))
		x := float64(i % 10)
		y := float64(i / 10)
		g.Add(rdf.NewTriple(s, spKind, rdf.NewLiteral("region")))
		g.Add(rdf.NewTriple(s, spWKT, rdf.NewWKT(geom.NewRect(x, y, x+1, y+1).WKT())))
	}
	for i := 0; i < nPlaces; i++ {
		s := rdf.NewIRI(fmt.Sprintf("urn:sp:p%d", i))
		g.Add(rdf.NewTriple(s, spKind, rdf.NewLiteral("place")))
		x := rng.Float64() * 11
		y := rng.Float64() * 11
		var w string
		if i%4 == 0 {
			w = (&geom.LineString{Points: []geom.Point{{X: x, Y: y}, {X: x + 0.8, Y: y + 0.4}}}).WKT()
		} else {
			w = geom.NewPoint(x, y).WKT()
		}
		g.Add(rdf.NewTriple(s, spWKT, rdf.NewWKT(w)))
	}
	bad := rdf.NewIRI("urn:sp:bad")
	g.Add(rdf.NewTriple(bad, spKind, rdf.NewLiteral("place")))
	g.Add(rdf.NewTriple(bad, spWKT, rdf.NewLiteral("POINT (not wkt")))
	iri := rdf.NewIRI("urn:sp:irigeom")
	g.Add(rdf.NewTriple(iri, spKind, rdf.NewLiteral("place")))
	g.Add(rdf.NewTriple(iri, spWKT, rdf.NewIRI("urn:sp:not-a-literal")))
	return g
}

const spatialJoinQuery = `PREFIX sp: <urn:sp:>
SELECT ?a ?b WHERE {
  ?a sp:kind "place" . ?a sp:wkt ?wa .
  ?b sp:kind "region" . ?b sp:wkt ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb))
}`

func opsContainSpatialJoin(ops []op) *spatialJoinOp {
	for _, o := range ops {
		if sj, ok := o.(*spatialJoinOp); ok {
			return sj
		}
	}
	return nil
}

func compileOps(t *testing.T, query string, src Source) []op {
	t.Helper()
	q, err := Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	return compileQuery(q, capabilities(src)).ops
}

func TestSpatialJoinDetection(t *testing.T) {
	g := spatialGraph(40, 40)

	sj := opsContainSpatialJoin(compileOps(t, spatialJoinQuery, g))
	if sj == nil {
		t.Fatal("spatial unit not detected on the canonical two-component query")
	}
	if sj.scan != nil {
		t.Fatal("sp:wkt build side misdetected as a geo:asWKT store scan")
	}

	// A second, non-spatial filter in the run must survive as a filterOp.
	withExtra := `PREFIX sp: <urn:sp:>
SELECT ?a ?b WHERE {
  ?a sp:kind "place" . ?a sp:wkt ?wa .
  ?b sp:kind "region" . ?b sp:wkt ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb)) FILTER(?a != ?b)
}`
	ops := compileOps(t, withExtra, g)
	if opsContainSpatialJoin(ops) == nil {
		t.Fatal("extra trailing filter blocked detection")
	}
	hasFilter := false
	for _, o := range ops {
		p, ok := o.(*pipeOp)
		if !ok {
			continue
		}
		for _, s := range p.steps {
			if _, ok := s.(*filterOp); ok {
				hasFilter = true
			}
		}
	}
	if !hasFilter {
		t.Fatal("non-spatial filter was swallowed by the spatial unit")
	}

	// The bare geo:asWKT build side is the store-pushdown shape.
	storeShape := `PREFIX sp: <urn:sp:> PREFIX geo: <http://www.opengis.net/ont/geosparql#>
SELECT ?a ?b WHERE {
  ?a sp:kind "place" . ?a geo:asWKT ?wa .
  ?b geo:asWKT ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb))
}`
	sj = opsContainSpatialJoin(compileOps(t, storeShape, spatialSourceGraph(10, 20)))
	if sj == nil {
		t.Fatal("store-shape query not detected")
	}
	if sj.scan == nil {
		t.Fatal("bare geo:asWKT build side not recognized as store scan shape")
	}
}

func TestSpatialJoinNotDetected(t *testing.T) {
	g := spatialGraph(10, 10)
	cases := map[string]string{
		"shared variable connects the components": `PREFIX sp: <urn:sp:>
SELECT ?a WHERE { ?a sp:wkt ?wa . ?a sp:kind ?wb . FILTER(geof:sfIntersects(?wa, ?wb)) }`,
		"function that is not a relation": `PREFIX sp: <urn:sp:>
SELECT ?a ?b WHERE { ?a sp:kind "place" . ?a sp:wkt ?wa . ?b sp:kind "region" . ?b sp:wkt ?wb .
  FILTER(geof:sfDisjoint(?wa, ?wb)) }`,
		"constant argument": `PREFIX sp: <urn:sp:>
SELECT ?a ?b WHERE { ?a sp:kind "place" . ?a sp:wkt ?wa . ?b sp:kind "region" . ?b sp:wkt ?wb .
  FILTER(geof:sfIntersects(?wa, "POINT (1 1)")) }`,
		"argument bound before the unit": `PREFIX sp: <urn:sp:>
SELECT ?b WHERE { VALUES ?wa { "POINT (1 1)" } ?b sp:kind "region" . ?b sp:wkt ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb)) }`,
	}
	for name, query := range cases {
		if opsContainSpatialJoin(compileOps(t, query, g)) != nil {
			t.Errorf("%s: spatial unit detected, want plain compilation", name)
		}
	}

	Force(t, 0, 0, SpatialOff)
	if opsContainSpatialJoin(compileOps(t, spatialJoinQuery, g)) != nil {
		t.Error("mode off still detected a spatial unit")
	}
}

// TestSpatialJoinMatchesFilterPath is the differential core: every
// strategy and worker count returns the canonical filter-path answer,
// and within a mode the row order is identical across worker counts.
func TestSpatialJoinMatchesFilterPath(t *testing.T) {
	g := spatialGraph(60, 150)
	q, err := Parse(spatialJoinQuery)
	if err != nil {
		t.Fatal(err)
	}

	Force(t, 0, 0, SpatialOff)
	base, err := q.Eval(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Bindings) == 0 {
		t.Fatal("filter-path baseline returned no rows; the workload is broken")
	}
	seed, err := q.EvalSeed(g)
	if err != nil {
		t.Fatal(err)
	}
	if resultsKey(seed) != resultsKey(base) {
		t.Fatal("compiled filter path disagrees with seed evaluator")
	}

	for _, mode := range []string{SpatialAuto, SpatialINL, SpatialStore} {
		Force(t, 0, 0, mode)
		var firstOrdered string
		for _, workers := range []int{1, 8} {
			res, err := q.eval(g, workers, 1)
			if err != nil {
				t.Fatalf("mode=%s workers=%d: %v", mode, workers, err)
			}
			if resultsKey(res) != resultsKey(base) {
				t.Fatalf("mode=%s workers=%d: %d rows, filter path %d rows",
					mode, workers, len(res.Bindings), len(base.Bindings))
			}
			if firstOrdered == "" {
				firstOrdered = orderedKey(res)
			} else if orderedKey(res) != firstOrdered {
				t.Fatalf("mode=%s: row order differs between worker counts", mode)
			}
		}
	}
}

// spatialSourceGraph builds a graph whose geometries hang off
// geo:asWKT, the store-pushdown shape.
func spatialSourceGraph(nRegions, nPlaces int) *rdf.Graph {
	g := rdf.NewGraph()
	asWKT := rdf.NewIRI(rdf.NSGeo + "asWKT")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < nRegions; i++ {
		s := rdf.NewIRI(fmt.Sprintf("urn:sp:r%d", i))
		x := float64(i % 5)
		y := float64(i / 5)
		g.Add(rdf.NewTriple(s, spKind, rdf.NewLiteral("region")))
		g.Add(rdf.NewTriple(s, asWKT, rdf.NewWKT(geom.NewRect(x, y, x+1, y+1).WKT())))
	}
	for i := 0; i < nPlaces; i++ {
		s := rdf.NewIRI(fmt.Sprintf("urn:sp:p%d", i))
		g.Add(rdf.NewTriple(s, spKind, rdf.NewLiteral("place")))
		g.Add(rdf.NewTriple(s, asWKT, rdf.NewWKT(geom.NewPoint(rng.Float64()*6, rng.Float64()*6).WKT())))
	}
	return g
}

// fakeSpatialSource wraps a graph with a brute-force SpatialCandidates,
// standing in for strabon.Store's R-tree. Probes arrive from concurrent
// worker chunks, so the call counter is atomic.
type fakeSpatialSource struct {
	*rdf.Graph
	calls atomic.Int64
}

func (f *fakeSpatialSource) SpatialCandidates(env geom.Envelope) ([]rdf.Triple, bool) {
	f.calls.Add(1)
	var out []rdf.Triple
	for _, tr := range f.Graph.Match(rdf.Term{}, asWKTTerm, rdf.Term{}) {
		g, err := geom.ParseWKT(tr.O.Value)
		if err != nil {
			continue
		}
		if env.Intersects(g.Envelope()) {
			out = append(out, tr)
		}
	}
	return out, true
}

func TestSpatialJoinStorePushdown(t *testing.T) {
	src := &fakeSpatialSource{Graph: spatialSourceGraph(25, 120)}
	query := `PREFIX sp: <urn:sp:> PREFIX geo: <http://www.opengis.net/ont/geosparql#>
SELECT ?a ?b WHERE {
  ?a sp:kind "place" . ?a geo:asWKT ?wa .
  ?b geo:asWKT ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb))
}`
	q, err := Parse(query)
	if err != nil {
		t.Fatal(err)
	}

	Force(t, 0, 0, SpatialOff)
	base, err := q.Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Bindings) == 0 {
		t.Fatal("baseline empty")
	}

	for _, mode := range []string{SpatialStore, SpatialAuto} {
		Force(t, 0, 0, mode)
		src.calls.Store(0)
		var firstOrdered string
		for _, workers := range []int{1, 6} {
			res, err := q.eval(src, workers, 1)
			if err != nil {
				t.Fatalf("mode=%s workers=%d: %v", mode, workers, err)
			}
			if resultsKey(res) != resultsKey(base) {
				t.Fatalf("mode=%s workers=%d: results diverge from filter path", mode, workers)
			}
			if firstOrdered == "" {
				firstOrdered = orderedKey(res)
			} else if orderedKey(res) != firstOrdered {
				t.Fatalf("mode=%s: row order differs between worker counts", mode)
			}
		}
		if src.calls.Load() == 0 {
			t.Fatalf("mode=%s never probed the store index", mode)
		}
	}
}

// TestSpatialJoinBudgetAbort: a query killed mid-join by the
// intermediate cap reports the structured budget error for every
// strategy and worker count, like any other operator.
func TestSpatialJoinBudgetAbort(t *testing.T) {
	g := spatialGraph(80, 400)
	q, err := Parse(spatialJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	Force(t, 0, 0, SpatialINL)
	for _, workers := range []int{1, 8} {
		b := admission.NewBudget(admission.Limits{MaxIntermediate: 60}, nil)
		ctx := admission.WithBudget(context.Background(), b)
		_, err := q.evalCtx(ctx, g, workers, 8)
		be, ok := admission.AsBudgetError(err)
		if !ok {
			t.Fatalf("workers=%d: err = %v, want budget error", workers, err)
		}
		if be.Kind != admission.KindIntermediate {
			t.Fatalf("workers=%d: kind = %s", workers, be.Kind)
		}
	}
}

// pinnedSpatialGraph holds 3 unit-square regions along the x axis and 4
// places, 3 of them inside a region, all under geo:asWKT: when the
// places are the probe side of a join, exactly 4 geometries go through a
// candidate index.
func pinnedSpatialGraph() *rdf.Graph {
	g := rdf.NewGraph()
	for i, p := range []geom.Point{{X: 0.5, Y: 0.5}, {X: 2.5, Y: 0.5}, {X: 4.5, Y: 0.5}, {X: 9, Y: 9}} {
		s := rdf.NewIRI(fmt.Sprintf("urn:sp:p%d", i))
		g.Add(rdf.NewTriple(s, spKind, rdf.NewLiteral("place")))
		g.Add(rdf.NewTriple(s, asWKTTerm, rdf.NewWKT(geom.NewPoint(p.X, p.Y).WKT())))
	}
	for i := 0; i < 3; i++ {
		s := rdf.NewIRI(fmt.Sprintf("urn:sp:r%d", i))
		x := float64(2 * i)
		g.Add(rdf.NewTriple(s, spKind, rdf.NewLiteral("region")))
		g.Add(rdf.NewTriple(s, asWKTTerm, rdf.NewWKT(geom.NewRect(x, 0, x+1, 1).WKT())))
	}
	return g
}

// TestSpatialJoinCounters pins each strategy's telemetry exactly: one
// spatial_join_total tick for the strategy that ran and one index probe
// per probe-side geometry, forced and as the planner picks them
// (internal/e2e pins the planner's picks over strabon.Store).
func TestSpatialJoinCounters(t *testing.T) {
	src := &fakeSpatialSource{Graph: pinnedSpatialGraph()}
	generic := `PREFIX sp: <urn:sp:>
SELECT ?a ?b WHERE {
  ?a sp:kind "place" . ?a geo:asWKT ?wa .
  ?b sp:kind "region" . ?b geo:asWKT ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb))
}`
	storeShape := `PREFIX sp: <urn:sp:>
SELECT ?a ?b WHERE {
  ?a sp:kind "place" . ?a geo:asWKT ?wa .
  ?b geo:asWKT ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb))
}`
	cases := []struct{ mode, query, want string }{
		{SpatialINL, generic, "inl"},
		{SpatialStore, storeShape, "store"},
		{SpatialAuto, generic, "inl"},
		{SpatialAuto, storeShape, "store"},
	}
	for _, c := range cases {
		q, err := Parse(c.query)
		if err != nil {
			t.Fatal(err)
		}
		seed, err := q.EvalSeed(src)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		SetMetrics(reg)
		Force(t, 1, 0, c.mode)
		res, err := q.Eval(src)
		SetMetrics(nil)
		if err != nil {
			t.Fatalf("mode=%s: %v", c.mode, err)
		}
		if len(res.Bindings) == 0 || resultsKey(res) != resultsKey(seed) {
			t.Fatalf("mode=%s %s: %d rows, the seed evaluator's %d", c.mode, c.want, len(res.Bindings), len(seed.Bindings))
		}
		counters := reg.Snapshot().Counters
		for _, strategy := range []string{"inl", "store"} {
			want := int64(0)
			if strategy == c.want {
				want = 1
			}
			if got := counters[`spatial_join_total{strategy="`+strategy+`"}`]; got != want {
				t.Errorf("mode=%s: spatial_join_total{strategy=%q} = %d, want %d", c.mode, strategy, got, want)
			}
		}
		if got := counters["spatial_index_probes_total"]; got != 4 {
			t.Errorf("mode=%s: spatial_index_probes_total = %d, want 4", c.mode, got)
		}
	}
}
