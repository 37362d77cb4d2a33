package sparql

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"applab/internal/geosparql"
	"applab/internal/rdf"
)

// geosparqlFunctions lists every function geosparql.Function resolves.
var geosparqlFunctions = []string{
	geosparql.FnSfIntersects, geosparql.FnSfContains, geosparql.FnSfWithin,
	geosparql.FnSfTouches, geosparql.FnSfOverlaps, geosparql.FnSfCrosses,
	geosparql.FnSfEquals, geosparql.FnSfDisjoint, geosparql.FnDistance,
	geosparql.FnBuffer, geosparql.FnEnvelope, geosparql.FnConvexHull,
	geosparql.FnArea, geosparql.FnIntersection, geosparql.FnTimeDuring,
	geosparql.FnTimeBefore, geosparql.FnTimeAfter, geosparql.FnTimeOverlaps,
}

// mixedTermGraph holds n triples whose objects rotate through every
// kind of term a function argument can be.
func mixedTermGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	p := rdf.NewIRI("urn:f:p")
	for i := 0; i < n; i++ {
		var o rdf.Term
		switch i % 6 {
		case 0:
			o = rdf.NewWKT(fmt.Sprintf("POINT (%d %d)", i%7, i%5))
		case 1:
			o = rdf.NewWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
		case 2:
			o = rdf.NewInteger(int64(i))
		case 3:
			o = rdf.NewTypedLiteral(fmt.Sprintf("2018-06-%02dT00:00:00Z", 1+i%28), rdf.XSDDateTime)
		case 4:
			o = rdf.NewLiteral(fmt.Sprintf("name-%d", i))
		default:
			o = rdf.NewIRI(fmt.Sprintf("urn:f:o%d", i))
		}
		g.Add(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("urn:f:s%d", i)), p, o))
	}
	return g
}

// TestEveryFunctionAnyArity calls every builtin and every geosparql
// function with 0–4 arguments over enough rows that the filter and BIND
// stages fan out to worker goroutines, where a panic would kill the
// process (net/http recovers only its own handler goroutine). Every call
// must produce a value or an expression error.
func TestEveryFunctionAnyArity(t *testing.T) {
	g := mixedTermGraph(2 * parallelThreshold)
	names := append([]string(nil), geosparqlFunctions...)
	for name := range builtins {
		names = append(names, name)
	}
	names = append(names, "BOUND", "XSD:DOUBLE", "urn:f:unknown")
	sort.Strings(names)
	workers := max(2, runtime.GOMAXPROCS(0))
	for _, name := range names {
		call := name
		if strings.Contains(name, ":") {
			call = "<" + name + ">"
		}
		for arity := 0; arity <= 4; arity++ {
			args := strings.TrimSuffix(strings.Repeat("?o, ", arity), ", ")
			query := fmt.Sprintf(`SELECT ?s ?v WHERE { ?s <urn:f:p> ?o .
  FILTER(%[1]s(%[2]s) || true) BIND(%[1]s(%[2]s) AS ?v) }`, call, args)
			q, err := Parse(query)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, arity, err)
			}
			res, err := q.eval(g, workers, parallelThreshold)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, arity, err)
			}
			if len(res.Bindings) != 2*parallelThreshold {
				t.Fatalf("%s/%d: %d rows, want every row", name, arity, len(res.Bindings))
			}
		}
	}
}

func TestXSDDoubleCast(t *testing.T) {
	res := evalQ(t, rdf.NewGraph(), `SELECT (xsd:double("1.5") AS ?d) (xsd:double(2) AS ?i) WHERE {}`)
	if got, want := res.Bindings[0]["d"], rdf.NewTypedLiteral("1.5", rdf.XSDDouble); !got.Equal(want) {
		t.Errorf(`xsd:double("1.5") = %v, want %v`, got, want)
	}
	if got, want := res.Bindings[0]["i"], rdf.NewDouble(2); !got.Equal(want) {
		t.Errorf("xsd:double(2) = %v, want %v", got, want)
	}
}

// TestGeoSPARQLOverBareGraph is the coordinator's path: a process that
// built no store and no virtual graph evaluates geof: and time: FILTERs
// over a plain source.
func TestGeoSPARQLOverBareGraph(t *testing.T) {
	g := rdf.NewGraph()
	s := rdf.NewIRI("urn:f:w")
	g.Add(rdf.NewTriple(s, rdf.NewIRI(geosparql.AsWKT), rdf.NewWKT("POINT (1 1)")))
	g.Add(rdf.NewTriple(s, rdf.NewIRI("urn:f:at"), rdf.NewTypedLiteral("2018-06-15T00:00:00Z", rdf.XSDDateTime)))
	for _, query := range []string{
		`SELECT ?w WHERE { ?w geo:asWKT ?g .
  FILTER(geof:sfIntersects(?g, "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"^^geo:wktLiteral)) }`,
		`SELECT ?w WHERE { ?w <urn:f:at> ?t .
  FILTER(time:during(?t, "2018-06-01T00:00:00Z"^^xsd:dateTime, "2018-06-30T00:00:00Z"^^xsd:dateTime)) }`,
	} {
		if res := evalQ(t, g, query); len(res.Bindings) != 1 {
			t.Errorf("%s: %d rows, want 1", query, len(res.Bindings))
		}
	}
}

// TestRegexConstantPatternAllocations: a constant REGEX pattern is
// compiled once per plan, so a FILTER over 1,000 rows allocates about
// what the scan does (~310). Compiling per row costs dozens of
// allocations each; even one allocation per row trips the ceiling.
func TestRegexConstantPatternAllocations(t *testing.T) {
	const rows = 1000
	g := rdf.NewGraph()
	for i := 0; i < rows; i++ {
		g.Add(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("urn:f:s%d", i)), rdf.NewIRI("urn:f:name"), rdf.NewLiteral(fmt.Sprintf("name-%d", i))))
	}
	q, err := Parse(`SELECT ?s WHERE { ?s <urn:f:name> ?n . FILTER(REGEX(?n, "^NAME-1", "i")) }`)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	allocs := testing.AllocsPerRun(5, func() {
		res, err := q.eval(g, 1, parallelThreshold)
		if err != nil {
			t.Fatal(err)
		}
		n = len(res.Bindings)
	})
	if n != 111 {
		t.Fatalf("rows = %d, want 111", n)
	}
	const ceiling = 1000
	if allocs > ceiling {
		t.Fatalf("%.0f allocations per evaluation, ceiling %d", allocs, ceiling)
	}
	t.Logf("%.0f allocations per evaluation", allocs)
}
