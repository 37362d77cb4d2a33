package sparql

import (
	"strings"
	"testing"

	"applab/internal/rdf"
)

// testGraph builds a small social/geo graph for the evaluator tests.
func testGraph(t *testing.T) *rdf.Graph {
	t.Helper()
	src := `
@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:alice a ex:Person ; ex:name "Alice" ; ex:age 30 ; ex:knows ex:bob, ex:carol .
ex:bob a ex:Person ; ex:name "Bob" ; ex:age 25 ; ex:knows ex:carol .
ex:carol a ex:Person ; ex:name "Carol" ; ex:age 35 .
ex:dave a ex:Robot ; ex:name "Dave" .
ex:alice ex:city "Paris" .
ex:bob ex:city "Athens" .
ex:carol ex:city "Paris" .
`
	triples, _, err := rdf.ParseTurtleString(src)
	if err != nil {
		t.Fatal(err)
	}
	g := rdf.NewGraph()
	g.AddAll(triples)
	return g
}

func evalQ(t *testing.T, g *rdf.Graph, q string) *Results {
	t.Helper()
	res, err := Eval(g, q)
	if err != nil {
		t.Fatalf("Eval(%q): %v", q, err)
	}
	return res
}

func TestSelectBasic(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?p a ex:Person . ?p ex:name ?name }`)
	if len(res.Bindings) != 3 {
		t.Fatalf("got %d rows: %v", len(res.Bindings), res.Bindings)
	}
	names := map[string]bool{}
	for _, b := range res.Bindings {
		names[b["name"].Value] = true
	}
	for _, n := range []string{"Alice", "Bob", "Carol"} {
		if !names[n] {
			t.Errorf("missing %s", n)
		}
	}
	if names["Dave"] {
		t.Error("Dave is not a Person")
	}
}

func TestSelectStar(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT * WHERE { ?p ex:knows ?q }`)
	if len(res.Bindings) != 3 {
		t.Fatalf("rows = %d", len(res.Bindings))
	}
	if len(res.Vars) != 2 {
		t.Fatalf("vars = %v", res.Vars)
	}
}

func TestJoinAcrossPatterns(t *testing.T) {
	g := testGraph(t)
	// Friends-of-friends: alice knows bob, bob knows carol.
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?fof WHERE { ex:alice ex:knows ?f . ?f ex:knows ?fof }`)
	if len(res.Bindings) != 1 || !strings.HasSuffix(res.Bindings[0]["fof"].Value, "carol") {
		t.Fatalf("fof = %v", res.Bindings)
	}
}

func TestFilterComparison(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?p ex:age ?a . ?p ex:name ?name . FILTER(?a > 26) }`)
	if len(res.Bindings) != 2 {
		t.Fatalf("rows = %v", res.Bindings)
	}
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?p ex:age ?a . ?p ex:name ?name . FILTER(?a >= 25 && ?a < 31) }`)
	if len(res.Bindings) != 2 {
		t.Fatalf("range rows = %v", res.Bindings)
	}
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?p ex:name ?name . FILTER(?name = "Alice" || ?name = "Bob") }`)
	if len(res.Bindings) != 2 {
		t.Fatalf("or rows = %v", res.Bindings)
	}
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?p ex:name ?name . FILTER(!(?name = "Alice")) }`)
	if len(res.Bindings) != 3 {
		t.Fatalf("negation rows = %v", res.Bindings)
	}
}

func TestFilterRegexAndStrings(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?p ex:name ?name . FILTER regex(?name, "^A") }`)
	if len(res.Bindings) != 1 || res.Bindings[0]["name"].Value != "Alice" {
		t.Fatalf("regex rows = %v", res.Bindings)
	}
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?p ex:name ?name . FILTER(STRSTARTS(?name, "C")) }`)
	if len(res.Bindings) != 1 || res.Bindings[0]["name"].Value != "Carol" {
		t.Fatalf("strstarts rows = %v", res.Bindings)
	}
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?p ex:name ?name . FILTER(CONTAINS(LCASE(?name), "o")) }`)
	if len(res.Bindings) != 2 {
		t.Fatalf("contains rows = %v", res.Bindings)
	}
}

func TestOptional(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?friend WHERE {
  ?p a ex:Person ; ex:name ?name .
  OPTIONAL { ?p ex:knows ?friend }
}`)
	// alice x2, bob x1, carol x1 (no friends -> row without ?friend)
	if len(res.Bindings) != 4 {
		t.Fatalf("rows = %v", res.Bindings)
	}
	carolHasFriend := false
	for _, b := range res.Bindings {
		if b["name"].Value == "Carol" {
			if _, ok := b["friend"]; ok {
				carolHasFriend = true
			}
		}
	}
	if carolHasFriend {
		t.Error("Carol must have an unbound ?friend")
	}
	// BOUND filter over optional
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  ?p a ex:Person ; ex:name ?name .
  OPTIONAL { ?p ex:knows ?friend }
  FILTER(!BOUND(?friend))
}`)
	if len(res.Bindings) != 1 || res.Bindings[0]["name"].Value != "Carol" {
		t.Fatalf("!BOUND rows = %v", res.Bindings)
	}
}

func TestUnion(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?n WHERE {
  { ?p a ex:Person . ?p ex:name ?n } UNION { ?p a ex:Robot . ?p ex:name ?n }
}`)
	if len(res.Bindings) != 4 {
		t.Fatalf("union rows = %v", res.Bindings)
	}
}

func TestDistinctOrderLimitOffset(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT DISTINCT ?city WHERE { ?p ex:city ?city }`)
	if len(res.Bindings) != 2 {
		t.Fatalf("distinct rows = %v", res.Bindings)
	}
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?age WHERE { ?p ex:name ?name ; ex:age ?age } ORDER BY DESC(?age)`)
	if res.Bindings[0]["name"].Value != "Carol" || res.Bindings[2]["name"].Value != "Bob" {
		t.Fatalf("order rows = %v", res.Bindings)
	}
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?p ex:name ?name ; ex:age ?age } ORDER BY ?age LIMIT 1`)
	if len(res.Bindings) != 1 || res.Bindings[0]["name"].Value != "Bob" {
		t.Fatalf("limit rows = %v", res.Bindings)
	}
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?p ex:name ?name ; ex:age ?age } ORDER BY ?age LIMIT 1 OFFSET 1`)
	if len(res.Bindings) != 1 || res.Bindings[0]["name"].Value != "Alice" {
		t.Fatalf("offset rows = %v", res.Bindings)
	}
	// ORDER BY a non-projected variable.
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?p ex:name ?name ; ex:age ?age } ORDER BY DESC(?age)`)
	if res.Bindings[0]["name"].Value != "Carol" {
		t.Fatalf("order by non-projected = %v", res.Bindings)
	}
	if _, ok := res.Bindings[0]["age"]; ok {
		t.Error("age must not leak into projected bindings")
	}
}

func TestAsk(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/> ASK { ex:alice ex:knows ex:bob }`)
	if !res.Bool {
		t.Error("ASK should be true")
	}
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/> ASK { ex:bob ex:knows ex:alice }`)
	if res.Bool {
		t.Error("ASK should be false")
	}
}

func TestConstruct(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
CONSTRUCT { ?p ex:friendName ?n } WHERE { ?x ex:knows ?p . ?p ex:name ?n }`)
	if len(res.Graph) != 2 { // bob, carol (carol appears twice, deduped)
		t.Fatalf("construct graph = %v", res.Graph)
	}
	for _, tr := range res.Graph {
		if tr.P.Value != "http://ex.org/friendName" {
			t.Errorf("bad predicate %v", tr.P)
		}
	}
}

func TestAggregates(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT (COUNT(*) AS ?n) WHERE { ?p a ex:Person }`)
	if v, _ := res.Bindings[0]["n"].Int(); v != 3 {
		t.Fatalf("count = %v", res.Bindings)
	}
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT (AVG(?a) AS ?avg) (MAX(?a) AS ?max) (MIN(?a) AS ?min) (SUM(?a) AS ?sum)
WHERE { ?p ex:age ?a }`)
	b := res.Bindings[0]
	if f, _ := b["avg"].Float(); f != 30 {
		t.Errorf("avg = %v", b["avg"])
	}
	if f, _ := b["max"].Float(); f != 35 {
		t.Errorf("max = %v", b["max"])
	}
	if f, _ := b["min"].Float(); f != 25 {
		t.Errorf("min = %v", b["min"])
	}
	if f, _ := b["sum"].Float(); f != 90 {
		t.Errorf("sum = %v", b["sum"])
	}
	// GROUP BY
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?city (COUNT(*) AS ?n) WHERE { ?p ex:city ?city } GROUP BY ?city ORDER BY DESC(?n)`)
	if len(res.Bindings) != 2 {
		t.Fatalf("group rows = %v", res.Bindings)
	}
	if res.Bindings[0]["city"].Value != "Paris" {
		t.Fatalf("group order = %v", res.Bindings)
	}
	if v, _ := res.Bindings[0]["n"].Int(); v != 2 {
		t.Fatalf("paris count = %v", res.Bindings[0]["n"])
	}
	// COUNT(DISTINCT ?x)
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT (COUNT(DISTINCT ?city) AS ?n) WHERE { ?p ex:city ?city }`)
	if v, _ := res.Bindings[0]["n"].Int(); v != 2 {
		t.Fatalf("count distinct = %v", res.Bindings)
	}
}

func TestExpressionProjection(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name (?a * 2 AS ?double) WHERE { ?p ex:name ?name ; ex:age ?a } ORDER BY ?a`)
	if len(res.Bindings) != 3 {
		t.Fatalf("rows = %v", res.Bindings)
	}
	if v, _ := res.Bindings[0]["double"].Float(); v != 50 {
		t.Fatalf("double = %v", res.Bindings[0]["double"])
	}
}

// TestExtensionFunctionRegistry: extension IRIs resolve to geosparql's
// fixed function table over any source, and an unknown IRI is an
// expression error (the rows drop), not a query failure.
func TestExtensionFunctionRegistry(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE { ?p ex:name ?name .
  FILTER(geof:sfIntersects("POINT (1 1)"^^geo:wktLiteral, "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"^^geo:wktLiteral)) }`)
	if len(res.Bindings) != 4 {
		t.Fatalf("extension fn rows = %v", res.Bindings)
	}
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/> PREFIX fn: <http://ex.org/fn/>
SELECT ?name WHERE { ?p ex:name ?name . FILTER(fn:always42() = 42) }`)
	if len(res.Bindings) != 0 {
		t.Fatalf("unknown fn rows = %v", res.Bindings)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT ?x`,
		`SELECT ?x WHERE`,
		`SELECT ?x WHERE { ?x ex:p ?y }`, // unbound prefix
		`FOO ?x WHERE { ?x ?p ?y }`,
		`SELECT ?x WHERE { ?x ?p ?y } LIMIT abc`,
		`SELECT ?x WHERE { ?x ?p ?y extra`,
		`SELECT (COUNT(*) AS ?n WHERE { ?x ?p ?y }`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
	}
}

func TestParseListing1Shape(t *testing.T) {
	// The paper's Listing 1 query (prefixes pre-bound by DefaultPrefixes).
	q := `SELECT DISTINCT ?geoA ?geoB ?lai WHERE
{ ?areaA osm:poiType osm:park .
  ?areaA geo:hasGeometry ?geomA .
  ?geomA geo:asWKT ?geoA .
  ?areaA osm:hasName "Bois de Boulogne"^^xsd:string .
  ?areaB lai:lai ?lai .
  ?areaB geo:hasGeometry ?geomB .
  ?geomB geo:asWKT ?geoB .
  FILTER(geof:sfIntersects(?geoA , ?geoB))
}`
	parsed, err := Parse(q)
	if err != nil {
		t.Fatalf("Listing 1 parse: %v", err)
	}
	if parsed.Type != QuerySelect || !parsed.Distinct {
		t.Error("Listing 1 must be SELECT DISTINCT")
	}
	if len(parsed.Projection) != 3 {
		t.Errorf("projection = %v", parsed.Projection)
	}
	nFilters := 0
	for _, el := range parsed.Where.Elements {
		if _, ok := el.(Filter); ok {
			nFilters++
		}
	}
	if nFilters != 1 {
		t.Errorf("filters = %d", nFilters)
	}
}

func TestEmptyGraphQueries(t *testing.T) {
	g := rdf.NewGraph()
	res := evalQ(t, g, `SELECT ?s WHERE { ?s ?p ?o }`)
	if len(res.Bindings) != 0 {
		t.Error("empty graph must yield no rows")
	}
	res = evalQ(t, g, `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`)
	if v, _ := res.Bindings[0]["n"].Int(); v != 0 {
		t.Errorf("count over empty graph = %v", res.Bindings)
	}
	res = evalQ(t, g, `ASK { ?s ?p ?o }`)
	if res.Bool {
		t.Error("ASK over empty graph must be false")
	}
}
