package sparql

import "testing"

// TestConstBindMatchesSeed: a constant BIND points every row at one term
// the plan owns, and answers what EvalSeed answers on 1, 2 and 8
// workers (threshold 1 chunks every pipeline): a fresh variable, a
// variable a scan already bound to the same term on some rows and to
// another on the rest, one bound to another term on every row, a
// constant a later scan joins on, constant and computed BINDs in one
// pipeline, and BINDs inside OPTIONAL and UNION bodies.
func TestConstBindMatchesSeed(t *testing.T) {
	g := loopedGraph(80)
	for _, tc := range []struct {
		q    string
		rows int
	}{
		{`SELECT ?s ?n ?req WHERE { ?s ex:city "Paris" . ?s ex:name ?n . BIND(7 AS ?req) }`, 20},
		{`SELECT ?s ?c WHERE { ?s ex:city ?c . BIND("Paris" AS ?c) }`, 20},
		{`SELECT ?s ?c WHERE { ?s ex:city ?c . BIND("Rome" AS ?c) }`, 0},
		{`SELECT ?s ?a WHERE { ?s ex:age ?a . BIND(21 AS ?a) . ?s ex:city ?c }`, 2},
		{`SELECT ?s ?t ?n WHERE { ?s ex:knows ?k . BIND(ex:p3 AS ?t) . ?t ex:name ?n }`, 82},
		{`SELECT * WHERE { ?s ex:age ?a . BIND(?a + 1 AS ?b) BIND("x" AS ?c) BIND(?a AS ?d) BIND("x" AS ?c) FILTER(?a > 60) }`, 9},
		{`SELECT ?s ?x WHERE { ?s ex:city "Athens" OPTIONAL { ?s ex:name ?n BIND("named" AS ?x) } }`, 20},
		{`SELECT ?s ?x WHERE { { ?s ex:city "Berlin" BIND(1 AS ?x) } UNION { ?s ex:city "Madrid" BIND(2 AS ?x) } }`, 40},
		{`SELECT ?s ?x WHERE { BIND(ex:p1 AS ?s) ?s ex:name ?x }`, 1},
	} {
		q := "PREFIX ex: <http://ex.org/>\n" + tc.q
		parsed, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		seed, err := parsed.EvalSeed(g)
		if err != nil {
			t.Fatalf("seed %q: %v", q, err)
		}
		if len(seed.Bindings) != tc.rows {
			t.Fatalf("%q: the seed answers %d rows, the fixture expects %d", tc.q, len(seed.Bindings), tc.rows)
		}
		for _, workers := range []int{1, 2, 8} {
			comp, err := parsed.eval(g, workers, 1)
			if err != nil {
				t.Fatalf("%q at %d workers: %v", tc.q, workers, err)
			}
			if resultsKey(seed) != resultsKey(comp) {
				t.Fatalf("%q at %d workers: seed %d rows, compiled %d", tc.q, workers, len(seed.Bindings), len(comp.Bindings))
			}
		}
	}
}
