package sparql

import (
	"fmt"
	"testing"

	"applab/internal/geosparql"
	"applab/internal/rdf"
)

// A binary geof:* call with one constant geometry argument is lowered at
// compile time (constGeometry): the constant is decoded once per plan and
// the other argument through the geometry memo. These tests pin that the
// lowering is invisible except for cost: every lowered call answers what
// the seed evaluator's generic call path answers, row for row and in
// order, for any worker count.

// constGeometryFuncs are the functions constGeometry lowers.
var constGeometryFuncs = []string{
	geosparql.FnSfIntersects, geosparql.FnSfContains, geosparql.FnSfWithin,
	geosparql.FnSfTouches, geosparql.FnSfOverlaps, geosparql.FnSfCrosses,
	geosparql.FnSfEquals, geosparql.FnSfDisjoint, geosparql.FnDistance,
	geosparql.FnIntersection,
}

// constGeometryArgs are the constants the differential test places in
// either argument position, and whether each is lowered.
var constGeometryArgs = []struct {
	text    string
	lowered bool
}{
	{`"POLYGON ((1 1, 6 1, 6 6, 1 6, 1 1))"^^geo:wktLiteral`, true},
	{`"POINT (2 2)"^^geo:wktLiteral`, true},
	{`"LINESTRING (0 3, 9 3)"^^geo:wktLiteral`, true},
	{`"POLYGON ((0 0, 5 0, 5 5, 0 5, 0 0))"`, true}, // plain string holding WKT
	{`<urn:g:not-a-geometry>`, false},
	{`"POLYGON ((oops"^^geo:wktLiteral`, false},
}

// constGeometryGraph holds subjects whose urn:g:w value rotates through
// points, polygons, lines, plain-string WKT, unparsable WKT, a number and
// an IRI; every fifth subject has no urn:g:w at all, so the OPTIONAL in
// the test queries leaves the argument unbound.
func constGeometryGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	kind, w := rdf.NewIRI("urn:g:k"), rdf.NewIRI("urn:g:w")
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("urn:g:s%03d", i))
		g.Add(rdf.NewTriple(s, kind, rdf.NewLiteral("f")))
		x, y := float64(i%9), float64(i/9%9)
		var o rdf.Term
		switch i % 10 {
		case 0, 5:
			continue
		case 1, 6:
			o = rdf.NewWKT(fmt.Sprintf("POINT (%g %g)", x, y))
		case 2:
			o = rdf.NewWKT(fmt.Sprintf("POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))", x, y, x+2, y, x+2, y+2, x, y+2, x, y))
		case 3:
			o = rdf.NewWKT(fmt.Sprintf("LINESTRING (%g %g, %g %g)", x, y, x+3, y+1))
		case 4:
			o = rdf.NewLiteral(fmt.Sprintf("POINT (%g %g)", y, x))
		case 7:
			o = rdf.NewWKT("POINT (broken")
		case 8:
			o = rdf.NewInteger(int64(i))
		default:
			o = rdf.NewIRI(fmt.Sprintf("urn:g:o%d", i))
		}
		g.Add(rdf.NewTriple(s, w, o))
	}
	return g
}

func TestConstGeometryMatchesSeed(t *testing.T) {
	g := constGeometryGraph(120)
	uses := []string{
		`SELECT ?s WHERE { ?s <urn:g:k> ?k OPTIONAL { ?s <urn:g:w> ?w } FILTER(%s) } ORDER BY ?s`,
		`SELECT ?s ?v WHERE { ?s <urn:g:k> ?k OPTIONAL { ?s <urn:g:w> ?w } BIND(%s AS ?v) } ORDER BY ?s`,
		`SELECT ?s (%s AS ?v) WHERE { ?s <urn:g:k> ?k OPTIONAL { ?s <urn:g:w> ?w } } ORDER BY ?s`,
	}
	vt := newVarTable()
	kept, bound := 0, 0 // rows FILTERs kept, values BIND/SELECT computed
	for _, fn := range constGeometryFuncs {
		for _, c := range constGeometryArgs {
			for _, call := range []string{
				fmt.Sprintf("<%s>(%s, ?w)", fn, c.text),
				fmt.Sprintf("<%s>(?w, %s)", fn, c.text),
			} {
				for ui, use := range uses {
					query := fmt.Sprintf(use, call)
					q, err := Parse(query)
					if err != nil {
						t.Fatalf("%s: %v", query, err)
					}
					if ui == 0 {
						ce := q.Where.Elements[len(q.Where.Elements)-1].(Filter).Expr.(CallExpr)
						args := []compiledExpr{compileExpr(ce.Args[0], vt), compileExpr(ce.Args[1], vt)}
						if lowered := constGeometry(ce, args) != nil; lowered != c.lowered {
							t.Fatalf("%s: lowered = %v, want %v", call, lowered, c.lowered)
						}
					}
					seed, err := q.EvalSeed(g)
					if err != nil {
						t.Fatalf("%s: seed: %v", query, err)
					}
					for i := range seed.Bindings {
						b := seed.Binding(i)
						if _, ok := b["v"]; ui == 0 {
							kept++
						} else if ok {
							bound++
						}
					}
					for _, workers := range []int{1, 4} {
						Force(t, workers, 1, SpatialAuto)
						res, err := q.Eval(g)
						if err != nil {
							t.Fatalf("%s at %d workers: %v", query, workers, err)
						}
						if orderedKey(res) != orderedKey(seed) {
							t.Fatalf("%s at %d workers: %d rows, the seed evaluator's %d (or a different order)",
								query, workers, len(res.Bindings), len(seed.Bindings))
						}
					}
				}
			}
		}
	}
	if kept == 0 || bound == 0 {
		t.Fatalf("degenerate workload: FILTERs kept %d rows, BIND/SELECT bound %d values", kept, bound)
	}
	t.Logf("FILTERs kept %d rows, BIND/SELECT bound %d values", kept, bound)
}

// TestConstGeometryNotLowered: two constants, or a call that is not a
// binary geometry function, keep the generic call path.
func TestConstGeometryNotLowered(t *testing.T) {
	vt := newVarTable()
	for _, expr := range []string{
		`geof:sfWithin("POINT (1 1)"^^geo:wktLiteral, "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"^^geo:wktLiteral)`,
		`geof:sfWithin(?a, ?b)`,
		`geof:buffer(?a, 2)`,
		`geof:area("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"^^geo:wktLiteral)`,
		`geof:distance(?a, "POINT (1 1)"^^geo:wktLiteral, <urn:uom:metre>)`,
	} {
		q, err := Parse("SELECT * WHERE { FILTER(" + expr + ") }")
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		ce := q.Where.Elements[len(q.Where.Elements)-1].(Filter).Expr.(CallExpr)
		args := make([]compiledExpr, len(ce.Args))
		for i, a := range ce.Args {
			args[i] = compileExpr(a, vt)
		}
		if constGeometry(ce, args) != nil {
			t.Errorf("%s was lowered", expr)
		}
	}
}
