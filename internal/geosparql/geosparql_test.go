package geosparql_test

import (
	"testing"

	"applab/internal/geosparql"
	"applab/internal/rdf"
	"applab/internal/sparql"
)

func geoGraph(t *testing.T) *rdf.Graph {
	t.Helper()
	src := `
@prefix geo: <http://www.opengis.net/ont/geosparql#> .
@prefix osm: <http://www.app-lab.eu/osm/> .
@prefix lai: <http://www.app-lab.eu/lai/> .

osm:park a osm:Park ;
  geo:hasGeometry osm:parkGeom .
osm:parkGeom geo:asWKT "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"^^geo:wktLiteral .

lai:obs1 lai:lai 3.5 ; geo:hasGeometry lai:g1 .
lai:g1 geo:asWKT "POINT (5 5)"^^geo:wktLiteral .
lai:obs2 lai:lai 0.8 ; geo:hasGeometry lai:g2 .
lai:g2 geo:asWKT "POINT (50 50)"^^geo:wktLiteral .
lai:obs3 lai:lai 6.1 ; geo:hasGeometry lai:g3 .
lai:g3 geo:asWKT "POINT (9 1)"^^geo:wktLiteral .
`
	triples, _, err := rdf.ParseTurtleString(src)
	if err != nil {
		t.Fatal(err)
	}
	g := rdf.NewGraph()
	g.AddAll(triples)
	return g
}

func TestSfIntersectsFilter(t *testing.T) {
	g := geoGraph(t)
	// The shape of the paper's Listing 1: park geometry x LAI observations.
	res, err := sparql.Eval(g, `
SELECT DISTINCT ?lai WHERE {
  ?park a osm:Park ; geo:hasGeometry ?pg .
  ?pg geo:asWKT ?pwkt .
  ?obs lai:lai ?lai ; geo:hasGeometry ?og .
  ?og geo:asWKT ?owkt .
  FILTER(geof:sfIntersects(?pwkt, ?owkt))
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 2 {
		t.Fatalf("rows = %v", res.Bindings)
	}
	vals := map[string]bool{}
	for _, b := range res.Bindings {
		vals[b["lai"].Value] = true
	}
	if !vals["3.5"] || !vals["6.1"] || vals["0.8"] {
		t.Errorf("lai values = %v", vals)
	}
}

func TestSpatialRelationsViaSPARQL(t *testing.T) {
	g := rdf.NewGraph()
	cases := []struct {
		fn   string
		a, b string
		want bool
	}{
		{"sfIntersects", "POINT (5 5)", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", true},
		{"sfIntersects", "POINT (50 50)", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", false},
		{"sfContains", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", "POINT (5 5)", true},
		{"sfWithin", "POINT (5 5)", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", true},
		{"sfTouches", "POINT (10 5)", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", true},
		{"sfDisjoint", "POINT (50 50)", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", true},
		{"sfEquals", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", true},
		{"sfOverlaps", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", "POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))", true},
		{"sfCrosses", "LINESTRING (-5 5, 15 5)", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", true},
	}
	for _, c := range cases {
		q := `ASK { FILTER(geof:` + c.fn + `("` + c.a + `"^^geo:wktLiteral, "` + c.b + `"^^geo:wktLiteral)) }`
		res, err := sparql.Eval(g, q)
		if err != nil {
			t.Errorf("%s: %v", c.fn, err)
			continue
		}
		if res.Bool != c.want {
			t.Errorf("geof:%s(%s, %s) = %v, want %v", c.fn, c.a, c.b, res.Bool, c.want)
		}
	}
}

func TestDistanceAreaEnvelope(t *testing.T) {
	g := rdf.NewGraph()
	res, err := sparql.Eval(g, `
SELECT (geof:distance("POINT (0 0)"^^geo:wktLiteral, "POINT (3 4)"^^geo:wktLiteral) AS ?d)
       (geof:area("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"^^geo:wktLiteral) AS ?a)
WHERE {}`)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Bindings[0]
	if d, _ := b["d"].Float(); d != 5 {
		t.Errorf("distance = %v", b["d"])
	}
	if a, _ := b["a"].Float(); a != 16 {
		t.Errorf("area = %v", b["a"])
	}
	// envelope and convex hull return parseable WKT
	res, err = sparql.Eval(g, `
SELECT (geof:envelope("LINESTRING (0 0, 4 2)"^^geo:wktLiteral) AS ?e)
       (geof:convexHull("MULTIPOINT ((0 0), (4 0), (2 3))"^^geo:wktLiteral) AS ?h)
       (geof:buffer("POINT (5 5)"^^geo:wktLiteral, 1) AS ?b)
WHERE {}`)
	if err != nil {
		t.Fatal(err)
	}
	b = res.Bindings[0]
	for _, v := range []string{"e", "h", "b"} {
		if b[v].Datatype != rdf.WKTLiteral {
			t.Errorf("%s datatype = %s", v, b[v].Datatype)
		}
		if _, err := geosparql.ParseGeometryTerm(b[v]); err != nil {
			t.Errorf("%s output unparseable: %v", v, err)
		}
	}
}

func TestTemporalFunctions(t *testing.T) {
	g := rdf.NewGraph()
	ask := func(q string) bool {
		t.Helper()
		res, err := sparql.Eval(g, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res.Bool
	}
	if !ask(`ASK { FILTER(time:during("2018-06-15T00:00:00Z"^^xsd:dateTime,
		"2018-06-01T00:00:00Z"^^xsd:dateTime, "2018-06-30T00:00:00Z"^^xsd:dateTime)) }`) {
		t.Error("instant during interval should hold")
	}
	if ask(`ASK { FILTER(time:during("2018-07-15T00:00:00Z"^^xsd:dateTime,
		"2018-06-01T00:00:00Z"^^xsd:dateTime, "2018-06-30T00:00:00Z"^^xsd:dateTime)) }`) {
		t.Error("instant outside interval should not hold")
	}
	if !ask(`ASK { FILTER(time:before("2018-01-01T00:00:00Z"^^xsd:dateTime, "2019-01-01T00:00:00Z"^^xsd:dateTime)) }`) {
		t.Error("before should hold")
	}
	if !ask(`ASK { FILTER(time:after("2019-01-01T00:00:00Z"^^xsd:dateTime, "2018-01-01T00:00:00Z"^^xsd:dateTime)) }`) {
		t.Error("after should hold")
	}
	if !ask(`ASK { FILTER(time:overlaps(
		"2018-01-01T00:00:00Z"^^xsd:dateTime, "2018-06-01T00:00:00Z"^^xsd:dateTime,
		"2018-03-01T00:00:00Z"^^xsd:dateTime, "2018-09-01T00:00:00Z"^^xsd:dateTime)) }`) {
		t.Error("overlapping intervals should hold")
	}
	if ask(`ASK { FILTER(time:overlaps(
		"2018-01-01T00:00:00Z"^^xsd:dateTime, "2018-02-01T00:00:00Z"^^xsd:dateTime,
		"2018-03-01T00:00:00Z"^^xsd:dateTime, "2018-09-01T00:00:00Z"^^xsd:dateTime)) }`) {
		t.Error("disjoint intervals should not overlap")
	}
	// interval during interval (4-arg form)
	if !ask(`ASK { FILTER(time:during(
		"2018-03-01T00:00:00Z"^^xsd:dateTime, "2018-04-01T00:00:00Z"^^xsd:dateTime,
		"2018-01-01T00:00:00Z"^^xsd:dateTime, "2018-09-01T00:00:00Z"^^xsd:dateTime)) }`) {
		t.Error("contained interval should be during")
	}
}

func TestFilterErrorsAreFalse(t *testing.T) {
	g := geoGraph(t)
	// Malformed WKT makes the filter an expression error -> row dropped,
	// not a query failure.
	res, err := sparql.Eval(g, `
SELECT ?lai WHERE {
  ?obs lai:lai ?lai .
  FILTER(geof:sfIntersects("NOT-WKT"^^geo:wktLiteral, "POINT (0 0)"^^geo:wktLiteral))
}`)
	if err != nil {
		t.Fatalf("query must not fail: %v", err)
	}
	if len(res.Bindings) != 0 {
		t.Errorf("rows = %v", res.Bindings)
	}
}

func TestParseGeometryTermErrors(t *testing.T) {
	if _, err := geosparql.ParseGeometryTerm(rdf.NewIRI("http://x")); err == nil {
		t.Error("IRI must not parse as geometry")
	}
	if _, err := geosparql.ParseGeometryTerm(rdf.NewWKT("JUNK")); err == nil {
		t.Error("junk WKT must error")
	}
	// memoization returns identical geometry
	g1, err := geosparql.ParseGeometryTerm(rdf.NewWKT("POINT (1 2)"))
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := geosparql.ParseGeometryTerm(rdf.NewWKT("POINT (1 2)"))
	if g1 != g2 {
		t.Error("memoized geometries must be identical")
	}
}

func TestFunctionArgumentErrors(t *testing.T) {
	g := rdf.NewGraph()
	ask := func(q string) int {
		res, err := sparql.Eval(g, `SELECT ?x WHERE { VALUES ?x { 1 } `+q+` }`)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return len(res.Bindings)
	}
	// Wrong arities make the filter an expression error: zero rows, no
	// query failure.
	errCases := []string{
		`FILTER(geof:sfIntersects("POINT (0 0)"^^geo:wktLiteral))`,
		`FILTER(geof:buffer("POINT (0 0)"^^geo:wktLiteral) = 1)`,
		`FILTER(geof:buffer("POINT (0 0)"^^geo:wktLiteral, "wide") = 1)`,
		`FILTER(geof:envelope() = 1)`,
		`FILTER(geof:convexHull() = 1)`,
		`FILTER(geof:area() = 1)`,
		`FILTER(geof:area("JUNK"^^geo:wktLiteral) = 1)`,
		`FILTER(geof:envelope("JUNK"^^geo:wktLiteral) = 1)`,
		`FILTER(geof:convexHull("JUNK"^^geo:wktLiteral) = 1)`,
		`FILTER(geof:buffer("JUNK"^^geo:wktLiteral, 1) = 1)`,
		`FILTER(time:before("2018-01-01T00:00:00Z"^^xsd:dateTime))`,
		`FILTER(time:after("not-a-time", "2018-01-01T00:00:00Z"^^xsd:dateTime))`,
		`FILTER(time:before("not-a-time", "2018-01-01T00:00:00Z"^^xsd:dateTime))`,
		`FILTER(time:overlaps("2018-01-01T00:00:00Z"^^xsd:dateTime, "2018-02-01T00:00:00Z"^^xsd:dateTime))`,
		`FILTER(time:during("2018-01-01T00:00:00Z"^^xsd:dateTime))`,
		// interval end before start
		`FILTER(time:during("2018-06-15T00:00:00Z"^^xsd:dateTime,
		  "2018-06-30T00:00:00Z"^^xsd:dateTime, "2018-06-01T00:00:00Z"^^xsd:dateTime))`,
	}
	for _, q := range errCases {
		if n := ask(q); n != 0 {
			t.Errorf("%s: rows = %d, want 0 (expression error)", q, n)
		}
	}
}

// TestFunctionAndRelationTables: every envelope-conservative geof:sf*
// relation is also a filter function, geof:sfDisjoint is a function but
// not a relation (disjoint pairs have no envelope overlap to prune by),
// and an unknown IRI is neither.
func TestFunctionAndRelationTables(t *testing.T) {
	for _, iri := range []string{
		geosparql.FnSfIntersects, geosparql.FnSfContains, geosparql.FnSfWithin, geosparql.FnSfTouches,
		geosparql.FnSfOverlaps, geosparql.FnSfCrosses, geosparql.FnSfEquals,
	} {
		if _, ok := geosparql.Relation(iri); !ok {
			t.Errorf("%s is not a relation", iri)
		}
		if _, ok := geosparql.Function(iri); !ok {
			t.Errorf("%s is not a function", iri)
		}
	}
	if _, ok := geosparql.Relation(geosparql.FnSfDisjoint); ok {
		t.Error("sfDisjoint must not be a spatial-join relation")
	}
	for _, iri := range []string{
		geosparql.FnSfDisjoint, geosparql.FnDistance, geosparql.FnBuffer, geosparql.FnEnvelope,
		geosparql.FnConvexHull, geosparql.FnArea, geosparql.FnIntersection, geosparql.FnTimeDuring,
		geosparql.FnTimeBefore, geosparql.FnTimeAfter, geosparql.FnTimeOverlaps,
	} {
		if _, ok := geosparql.Function(iri); !ok {
			t.Errorf("%s is not a function", iri)
		}
	}
	if _, ok := geosparql.Function(rdf.NSGeof + "noSuchFunction"); ok {
		t.Error("unknown IRI resolved to a function")
	}
	if _, ok := geosparql.Relation(rdf.NSGeof + "noSuchFunction"); ok {
		t.Error("unknown IRI resolved to a relation")
	}
}

func TestGeofIntersection(t *testing.T) {
	g := rdf.NewGraph()
	res, err := sparql.Eval(g, `
SELECT (geof:area(geof:intersection(
  "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"^^geo:wktLiteral,
  "POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))"^^geo:wktLiteral)) AS ?a)
WHERE {}`)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := res.Bindings[0]["a"].Float(); a != 25 {
		t.Errorf("intersection area = %v, want 25", res.Bindings[0]["a"])
	}
	// Line clipped to a viewport (the map-browsing use).
	res, err = sparql.Eval(g, `
SELECT (geof:intersection(
  "LINESTRING (-5 5, 15 5)"^^geo:wktLiteral,
  "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"^^geo:wktLiteral) AS ?l)
WHERE {}`)
	if err != nil {
		t.Fatal(err)
	}
	clipped, err := geosparql.ParseGeometryTerm(res.Bindings[0]["l"])
	if err != nil {
		t.Fatal(err)
	}
	env := clipped.Envelope()
	if env.MinX != 0 || env.MaxX != 10 {
		t.Errorf("clipped line envelope = %+v", env)
	}
	// Two concave operands are an expression error.
	res, err = sparql.Eval(g, `
SELECT ?x WHERE { VALUES ?x { 1 }
  FILTER(geof:area(geof:intersection(
    "POLYGON ((0 0, 10 0, 10 10, 7 10, 7 3, 3 3, 3 10, 0 10, 0 0))"^^geo:wktLiteral,
    "POLYGON ((0 0, 10 0, 10 10, 7 10, 7 3, 3 3, 3 10, 0 10, 0 0))"^^geo:wktLiteral)) > 0)
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 0 {
		t.Error("concave/concave intersection must be an expression error")
	}
}
