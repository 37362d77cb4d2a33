package sparql

import (
	"fmt"
	"testing"
	"testing/quick"

	"applab/internal/rdf"
)

func TestUnionThreeAlternatives(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?n WHERE {
  { ?p ex:name ?n . FILTER(?n = "Alice") }
  UNION { ?p ex:name ?n . FILTER(?n = "Bob") }
  UNION { ?p ex:name ?n . FILTER(?n = "Dave") }
}`)
	if len(res.Bindings) != 3 {
		t.Fatalf("rows = %v", res.Bindings)
	}
}

func TestNestedGroups(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?n WHERE {
  ?p a ex:Person .
  { ?p ex:name ?n . FILTER(?n != "Bob") }
}`)
	if len(res.Bindings) != 2 {
		t.Fatalf("rows = %v", res.Bindings)
	}
}

func TestOptionalChain(t *testing.T) {
	g := testGraph(t)
	// Two optionals; second depends on the first's binding.
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?n ?fn WHERE {
  ?p a ex:Person ; ex:name ?n .
  OPTIONAL { ?p ex:knows ?f . OPTIONAL { ?f ex:name ?fn } }
} ORDER BY ?n ?fn`)
	if len(res.Bindings) != 4 {
		t.Fatalf("rows = %v", res.Bindings)
	}
	// Alice's first friend (bob) must carry a name binding.
	found := false
	for i := range res.Bindings {
		b := res.Binding(i)
		if b["n"].Value == "Alice" {
			if fn, ok := b["fn"]; ok && fn.Value == "Bob" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("nested optional lost friend name: %v", res.Bindings)
	}
}

func TestConstructWithBlankTemplate(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
CONSTRUCT { ?p ex:profile _:b . _:b ex:profileName ?n }
WHERE { ?p a ex:Person ; ex:name ?n }`)
	if len(res.Graph) != 6 { // 2 triples per person
		t.Fatalf("graph = %v", res.Graph)
	}
	// Blank nodes must be distinct per solution.
	blanks := map[string]bool{}
	for _, tr := range res.Graph {
		if tr.O.IsBlank() {
			blanks[tr.O.Value] = true
		}
	}
	if len(blanks) != 3 {
		t.Errorf("distinct blanks = %d, want 3", len(blanks))
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	g := rdf.NewGraph()
	add := func(s string, grp int64, rank int64) {
		g.Add(rdf.NewTriple(rdf.NewIRI(s), rdf.NewIRI("http://g"), rdf.NewInteger(grp)))
		g.Add(rdf.NewTriple(rdf.NewIRI(s), rdf.NewIRI("http://r"), rdf.NewInteger(rank)))
	}
	add("a", 2, 1)
	add("b", 1, 2)
	add("c", 1, 1)
	add("d", 2, 0)
	res := evalQ(t, g, `SELECT ?s WHERE { ?s <http://g> ?g ; <http://r> ?r } ORDER BY ?g DESC(?r)`)
	want := []string{"b", "c", "a", "d"}
	for i := range res.Bindings {
		b := res.Binding(i)
		if b["s"].Value != want[i] {
			t.Fatalf("order = %v, want %v", res.Bindings, want)
		}
	}
}

func TestLimitZero(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `SELECT ?s WHERE { ?s ?p ?o } LIMIT 0`)
	if len(res.Bindings) != 0 {
		t.Errorf("LIMIT 0 rows = %d", len(res.Bindings))
	}
}

func TestOffsetBeyondEnd(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `SELECT ?s WHERE { ?s ?p ?o } OFFSET 100000`)
	if len(res.Bindings) != 0 {
		t.Errorf("huge OFFSET rows = %d", len(res.Bindings))
	}
}

func TestMinMaxOverDates(t *testing.T) {
	g := rdf.NewGraph()
	for i, d := range []string{"2018-03-01", "2018-01-01", "2018-12-01"} {
		g.Add(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("e%d", i)), rdf.NewIRI("http://when"),
			rdf.NewTypedLiteral(d, rdf.XSDDate)))
	}
	res := evalQ(t, g, `SELECT (MIN(?d) AS ?min) (MAX(?d) AS ?max) WHERE { ?e <http://when> ?d }`)
	b := res.Binding(0)
	if b["min"].Value != "2018-01-01" || b["max"].Value != "2018-12-01" {
		t.Errorf("min/max = %v / %v", b["min"], b["max"])
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `prefix ex: <http://ex.org/>
select distinct ?city where { ?p ex:city ?city } order by ?city limit 10`)
	if len(res.Bindings) != 2 || res.Binding(0)["city"].Value != "Athens" {
		t.Fatalf("rows = %v", res.Bindings)
	}
}

func TestFilterPlacementWithinGroup(t *testing.T) {
	g := testGraph(t)
	// FILTER before the pattern that binds the variable still works at
	// group granularity in standard SPARQL; our engine applies elements
	// in order, so the idiomatic post-pattern placement is required.
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ?p ex:age ?a . FILTER(?a > 26) ?p ex:name ?n }`)
	if len(res.Bindings) != 2 {
		t.Fatalf("rows = %v", res.Bindings)
	}
}

func TestComparisonTypeErrorsDropRows(t *testing.T) {
	g := testGraph(t)
	// ?p is an IRI: comparing it numerically is an expression error; all
	// rows drop but the query succeeds.
	res := evalQ(t, g, `SELECT ?p WHERE { ?p ?pred ?o . FILTER(?p > 5) }`)
	if len(res.Bindings) != 0 {
		t.Errorf("rows = %v", res.Bindings)
	}
}

func TestArithmetic(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(rdf.NewIRI("x"), rdf.NewIRI("http://v"), rdf.NewInteger(10)))
	res := evalQ(t, g, `SELECT (?v + 5 AS ?a) (?v - 3 AS ?b) (?v * 2 AS ?c) (?v / 4 AS ?d) (-?v AS ?e)
WHERE { ?x <http://v> ?v }`)
	b := res.Binding(0)
	checks := map[string]float64{"a": 15, "b": 7, "c": 20, "d": 2.5, "e": -10}
	for k, want := range checks {
		if f, _ := b[k].Float(); f != want {
			t.Errorf("%s = %v, want %v", k, b[k], want)
		}
	}
	// Integer ops stay integers (except division).
	if b["a"].Datatype != rdf.XSDInteger {
		t.Errorf("a datatype = %s", b["a"].Datatype)
	}
	if b["d"].Datatype != rdf.XSDDouble {
		t.Errorf("d datatype = %s", b["d"].Datatype)
	}
	// Division by zero is an expression error (unbound alias).
	res = evalQ(t, g, `SELECT (?v / 0 AS ?bad) WHERE { ?x <http://v> ?v }`)
	if _, ok := res.Binding(0)["bad"]; ok {
		t.Error("division by zero must leave the alias unbound")
	}
}

// Property: DISTINCT never returns more rows than the undistinct query,
// and LIMIT n never returns more than n.
func TestModifierProperty(t *testing.T) {
	g := testGraph(t)
	f := func(limit uint8) bool {
		n := int(limit % 10)
		q := fmt.Sprintf(`SELECT ?s WHERE { ?s ?p ?o } LIMIT %d`, n)
		res, err := Eval(g, q)
		if err != nil {
			return false
		}
		if len(res.Bindings) > n {
			return false
		}
		all, _ := Eval(g, `SELECT ?s WHERE { ?s ?p ?o }`)
		dis, _ := Eval(g, `SELECT DISTINCT ?s WHERE { ?s ?p ?o }`)
		return len(dis.Bindings) <= len(all.Bindings)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// nameLength is an Expr the compiler does not know: the engine hands it
// the row as a map binding.
type nameLength struct{}

func (nameLength) Eval(b Binding) (rdf.Term, error) {
	n, ok := b["n"]
	if !ok || len(b) != 2 {
		return rdf.Term{}, errUnbound
	}
	return rdf.NewInteger(int64(len(n.Value))), nil
}

func (nameLength) String() string { return "nameLength" }

func TestForeignExprSeesRowAsBinding(t *testing.T) {
	q := MustParse(`SELECT ?s ?len WHERE { ?s <http://ex.org/name> ?n }`)
	q.Projection[1].Expr = nameLength{}
	res, err := q.Eval(testGraph(t))
	if err != nil || len(res.Bindings) == 0 {
		t.Fatalf("%d rows, %v", len(res.Bindings), err)
	}
	for i := range res.Bindings {
		b := res.Binding(i)
		if n, _ := b["len"].Int(); n < 3 || len(b) != 2 {
			t.Errorf("row %d: %v", i, b)
		}
	}
}
