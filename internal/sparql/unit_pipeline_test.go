package sparql

import (
	"testing"

	"applab/internal/telemetry"
)

// A join unit runs as one pipeline whose head scan is never
// materialized, and a spatial join runs a FILTER inside the side that
// binds all of its variables. Both are plan changes only: these oracles
// hold every such plan to EvalSeed's answer on 1, 2 and 8 workers with
// threshold 1, in one row order for every worker count.

// matchesSeedAcrossWorkers evaluates q on 1, 2 and 8 workers with
// threshold 1 and fails unless each answer is EvalSeed's multiset, in
// one order for every worker count. It returns the seed's row count.
func matchesSeedAcrossWorkers(t *testing.T, src Source, q string) int {
	t.Helper()
	parsed, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	seed, err := parsed.EvalSeed(src)
	if err != nil {
		t.Fatalf("seed %q: %v", q, err)
	}
	var order string
	for _, workers := range []int{1, 2, 8} {
		res, err := parsed.eval(src, workers, 1)
		if err != nil {
			t.Fatalf("%q at %d workers: %v", q, workers, err)
		}
		if resultsKey(res) != resultsKey(seed) {
			t.Fatalf("%q at %d workers: %d rows, the seed evaluator's %d", q, workers, len(res.Bindings), len(seed.Bindings))
		}
		if workers == 1 {
			order = orderedKey(res)
		} else if orderedKey(res) != order {
			t.Fatalf("row order of %q differs between 1 and %d workers", q, workers)
		}
	}
	return len(seed.Bindings)
}

// TestCrossHeadPairsMatchSeed: a cross-join head over several input
// rows is chunked over (row, match) pairs, so with threshold 1 the chunk
// boundaries fall inside a row's matches: after a 3-row VALUES, and in
// an OPTIONAL body whose head binds nothing from the outer row.
func TestCrossHeadPairsMatchSeed(t *testing.T) {
	g := loopedGraph(60)
	for _, q := range []string{
		`PREFIX ex: <http://ex.org/>
SELECT * WHERE { VALUES ?k { 1 2 3 } ?s ex:city "Paris" . ?s ex:age ?a }`,
		`PREFIX ex: <http://ex.org/>
SELECT * WHERE { VALUES ?k { 1 2 3 } ?s ex:age ?a . FILTER(?a > 40 + ?k) BIND(?a * ?k AS ?b) }`,
		`PREFIX ex: <http://ex.org/>
SELECT * WHERE { VALUES ?k { 1 2 3 } ?s ex:city "Paris" . ?s ex:knows ?o . ?o ex:name ?n }`,
		`PREFIX ex: <http://ex.org/>
SELECT * WHERE { ?x ex:city "Athens" . OPTIONAL { ?y ex:city "Madrid" . ?y ex:age ?a . FILTER(?a < 40) } }`,
		`PREFIX ex: <http://ex.org/>
SELECT * WHERE { ?x ex:city "Athens" . OPTIONAL { ?y ex:city "Berlin" } }`,
	} {
		// The unit under test is the plan's last operator, or the body
		// of its last OPTIONAL.
		ops := compileOps(t, q, g)
		last := ops[len(ops)-1]
		if opt, ok := last.(*optionalOp); ok {
			last = opt.body[0]
		}
		head, ok := last.(*pipeOp)
		if !ok {
			t.Fatalf("%q: plan %v does not end in a pipeline", q, ops)
		}
		if sc, ok := head.steps[0].(*scanOp); !ok || !sc.canHash || len(sc.keys) != 0 {
			t.Fatalf("%q: the unit's head is not a cross-join scan", q)
		}
		if n := matchesSeedAcrossWorkers(t, g, q); n == 0 {
			t.Fatalf("%q: no rows; the workload is broken", q)
		}
	}
}

// sideFilters returns where the plan runs its FILTERs: inside the probe
// side (before the join, in the same pipeline as its scans), inside the
// build side, and after the join.
func sideFilters(t *testing.T, ops []op) (probe, build, after int) {
	t.Helper()
	filters := func(o op) int {
		n := 0
		if p, ok := o.(*pipeOp); ok {
			for _, s := range p.steps {
				if _, ok := s.(*filterOp); ok {
					n++
				}
			}
		}
		return n
	}
	joined := false
	for _, o := range ops {
		if sj, ok := o.(*spatialJoinOp); ok {
			joined = true
			for _, b := range sj.body {
				build += filters(b)
			}
			continue
		}
		if joined {
			after += filters(o)
		} else {
			probe += filters(o)
		}
	}
	if !joined {
		t.Fatal("no spatial join in the plan")
	}
	return probe, build, after
}

// TestSpatialSideFiltersMatchSeed: a FILTER over one side's variables
// runs inside that side, one over both sides or over none after the
// join, and every placement answers what EvalSeed does. spatialGraph's
// places carry one unparsable WKT literal and one IRI geometry, so a
// geometry FILTER on the place side errors on those rows; the places
// are the probe side in the 60-region graph and the build side in the
// 150-region one.
func TestSpatialSideFiltersMatchSeed(t *testing.T) {
	const window = `"POLYGON ((0 0, 5 0, 5 5, 0 5, 0 0))"^^geo:wktLiteral`
	query := func(filters string) string {
		return `PREFIX sp: <urn:sp:>
SELECT ?a ?b WHERE {
  ?a sp:kind "place" . ?a sp:wkt ?wa .
  ?b sp:kind "region" . ?b sp:wkt ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb)) ` + filters + `
}`
	}
	placesProbe, placesBuild := spatialGraph(60, 150), spatialGraph(150, 60)
	cases := []struct {
		name, filters       string
		g                   Source
		probe, build, after int
	}{
		{"probe side", `FILTER(geof:sfIntersects(?wa, ` + window + `))`, placesProbe, 1, 0, 0},
		{"build side", `FILTER(geof:sfWithin(?wb, ` + window + `))`, placesProbe, 0, 1, 0},
		{"both sides apart", `FILTER(STR(?a) != "urn:sp:p3") FILTER(geof:sfWithin(?wb, ` + window + `))`, placesProbe, 1, 1, 0},
		{"erroring, probe side", `FILTER(geof:sfWithin(?wa, ` + window + `))`, placesProbe, 1, 0, 0},
		{"erroring, build side", `FILTER(geof:sfWithin(?wa, ` + window + `))`, placesBuild, 0, 1, 0},
		{"over both sides", `FILTER(STR(?a) < STR(?b) || geof:sfWithin(?wb, ` + window + `))`, placesProbe, 0, 0, 1},
		{"no variable", `FILTER(1 < 2)`, placesProbe, 0, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := query(c.filters)
			probe, build, after := sideFilters(t, compileOps(t, q, c.g))
			if probe != c.probe || build != c.build || after != c.after {
				t.Fatalf("filters probe/build/after = %d/%d/%d, want %d/%d/%d",
					probe, build, after, c.probe, c.build, c.after)
			}
			if matchesSeedAcrossWorkers(t, c.g, q) == 0 {
				t.Fatal("no rows; the workload is broken")
			}
		})
	}
}

// TestSpatialForeignFilterAfterJoin: a FILTER holding an Expr the
// compiler does not look into runs after the join, whatever it reads.
func TestSpatialForeignFilterAfterJoin(t *testing.T) {
	q := MustParse(`PREFIX sp: <urn:sp:>
SELECT ?a ?b WHERE {
  ?a sp:kind "place" . ?a sp:wkt ?wa .
  ?b sp:kind "region" . ?b sp:wkt ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb)) FILTER(?a != ?wa)
}`)
	last := len(q.Where.Elements) - 1
	q.Where.Elements[last] = Filter{Expr: UnaryExpr{Op: "!", X: nameLength{}}}
	if probe, build, after := sideFilters(t, compileQuery(q, capabilities(spatialGraph(60, 150))).ops); probe != 0 || build != 0 || after != 1 {
		t.Fatalf("filters probe/build/after = %d/%d/%d, want 0/0/1", probe, build, after)
	}
}

// TestStoreShapeKeepsFilterAfterJoin: a FILTER on a bare geo:asWKT build
// side stays after the join, so the store's own index still serves it.
func TestStoreShapeKeepsFilterAfterJoin(t *testing.T) {
	src := &fakeSpatialSource{Graph: spatialSourceGraph(25, 120)}
	q := `PREFIX sp: <urn:sp:>
SELECT ?a ?b WHERE {
  ?a sp:kind "place" . ?a geo:asWKT ?wa .
  ?b geo:asWKT ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb))
  FILTER(geof:sfWithin(?wb, "POLYGON ((0 0, 3 0, 3 3, 0 3, 0 0))"^^geo:wktLiteral))
}`
	if probe, build, after := sideFilters(t, compileOps(t, q, src)); probe != 0 || build != 0 || after != 1 {
		t.Fatalf("filters probe/build/after = %d/%d/%d, want 0/0/1", probe, build, after)
	}
	matchesSeedAcrossWorkers(t, src, q)
	reg := telemetry.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	if _, err := MustParse(q).Eval(src); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters[`spatial_join_total{strategy="store"}`]; got != 1 {
		t.Fatalf(`spatial_join_total{strategy="store"} = %d, want 1`, got)
	}
}
