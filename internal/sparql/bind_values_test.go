package sparql

import (
	"testing"
)

func TestBind(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?double WHERE {
  ?p ex:name ?name ; ex:age ?a .
  BIND(?a * 2 AS ?double)
} ORDER BY ?double`)
	if len(res.Bindings) != 3 {
		t.Fatalf("rows = %v", res.Bindings)
	}
	if v, _ := res.Binding(0)["double"].Float(); v != 50 {
		t.Errorf("first double = %v", res.Binding(0)["double"])
	}
	// BIND usable in later filters.
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  ?p ex:name ?name ; ex:age ?a .
  BIND(?a * 2 AS ?double)
  FILTER(?double > 55)
}`)
	if len(res.Bindings) != 2 {
		t.Fatalf("filtered rows = %v", res.Bindings)
	}
	// BIND with an erroring expression leaves the variable unbound, row kept.
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?x WHERE {
  ?p ex:name ?name .
  BIND(?missing * 2 AS ?x)
}`)
	if len(res.Bindings) != 4 {
		t.Fatalf("error-bind rows = %v", res.Bindings)
	}
	for i := range res.Bindings {
		b := res.Binding(i)
		if _, ok := b["x"]; ok {
			t.Error("?x must be unbound on expression error")
		}
	}
}

func TestBindStringFunctions(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?up WHERE {
  ?p ex:name ?name .
  BIND(UCASE(?name) AS ?up)
  FILTER(?up = "ALICE")
}`)
	if len(res.Bindings) != 1 || res.Binding(0)["up"].Value != "ALICE" {
		t.Fatalf("rows = %v", res.Bindings)
	}
}

func TestValuesSingleVar(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name ?age WHERE {
  VALUES ?name { "Alice" "Bob" }
  ?p ex:name ?name ; ex:age ?age .
}`)
	if len(res.Bindings) != 2 {
		t.Fatalf("rows = %v", res.Bindings)
	}
}

func TestValuesMultiVar(t *testing.T) {
	g := testGraph(t)
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?p WHERE {
  VALUES (?name ?city) { ("Alice" "Paris") ("Bob" "Paris") }
  ?p ex:name ?name ; ex:city ?city .
}`)
	// Alice/Paris matches; Bob lives in Athens so only one row.
	if len(res.Bindings) != 1 {
		t.Fatalf("rows = %v", res.Bindings)
	}
}

func TestValuesAfterPatterns(t *testing.T) {
	g := testGraph(t)
	// VALUES can also restrict already-bound variables (join semantics).
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  ?p ex:name ?name .
  VALUES ?name { "Carol" "Dave" "Nobody" }
}`)
	if len(res.Bindings) != 2 {
		t.Fatalf("rows = %v", res.Bindings)
	}
}

func TestValuesParseErrors(t *testing.T) {
	bad := []string{
		`SELECT ?x WHERE { VALUES { "a" } ?s ?p ?x }`,
		`SELECT ?x WHERE { VALUES ?x { "a" `,
		`SELECT ?x WHERE { VALUES (?x ?y) { ("a") } ?s ?p ?x }`,
		`SELECT ?x WHERE { VALUES () { } ?s ?p ?x }`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestBindParseErrors(t *testing.T) {
	bad := []string{
		`SELECT ?x WHERE { BIND(1 + 2) }`,
		`SELECT ?x WHERE { BIND(1 AS x) }`,
		`SELECT ?x WHERE { BIND 1 AS ?x }`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestFilterExists(t *testing.T) {
	g := testGraph(t)
	// People who know someone.
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  ?p a ex:Person ; ex:name ?name .
  FILTER EXISTS { ?p ex:knows ?someone }
}`)
	if len(res.Bindings) != 2 {
		t.Fatalf("EXISTS rows = %v", res.Bindings)
	}
	// People nobody knows and who know nobody: only query by NOT EXISTS.
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  ?p a ex:Person ; ex:name ?name .
  FILTER NOT EXISTS { ?p ex:knows ?someone }
}`)
	if len(res.Bindings) != 1 || res.Binding(0)["name"].Value != "Carol" {
		t.Fatalf("NOT EXISTS rows = %v", res.Bindings)
	}
	// EXISTS correlates with outer bindings (uses ?p).
	res = evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?name WHERE {
  ?p ex:name ?name .
  FILTER EXISTS { ?q ex:knows ?p . ?q ex:city "Paris" }
}`)
	// Alice (Paris) knows bob+carol; carol also known by bob (Athens).
	names := map[string]bool{}
	for i := range res.Bindings {
		b := res.Binding(i)
		names[b["name"].Value] = true
	}
	if !names["Bob"] || !names["Carol"] || names["Alice"] {
		t.Fatalf("correlated EXISTS = %v", names)
	}
}

func TestFilterNotExistsParseError(t *testing.T) {
	if _, err := Parse(`SELECT ?x WHERE { ?x ?p ?o . FILTER NOT { ?x ?p ?o } }`); err == nil {
		t.Error("NOT without EXISTS must error")
	}
}
