package sparql

import (
	"testing"

	"applab/internal/rdf"
)

// collisionGraph holds two subjects whose (?x, ?y) pairs collide under
// naive '|'-joined keys: ("a|", "b") and ("a", "|b") concatenate to the
// same string unless positions are length-prefixed.
func collisionGraph() *rdf.Graph {
	g := rdf.NewGraph()
	p1, p2 := rdf.NewIRI("http://ex.org/p1"), rdf.NewIRI("http://ex.org/p2")
	s1, s2 := rdf.NewIRI("http://ex.org/s1"), rdf.NewIRI("http://ex.org/s2")
	g.Add(rdf.NewTriple(s1, p1, rdf.NewLiteral("a|")))
	g.Add(rdf.NewTriple(s1, p2, rdf.NewLiteral("b")))
	g.Add(rdf.NewTriple(s2, p1, rdf.NewLiteral("a")))
	g.Add(rdf.NewTriple(s2, p2, rdf.NewLiteral("|b")))
	return g
}

func TestDistinctKeyNoPipeCollision(t *testing.T) {
	g := collisionGraph()
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT DISTINCT ?x ?y WHERE { ?s ex:p1 ?x ; ex:p2 ?y }`)
	if len(res.Bindings) != 2 {
		t.Fatalf("DISTINCT collapsed colliding rows: got %d rows %v", len(res.Bindings), res.Bindings)
	}
}

func TestGroupByKeyNoPipeCollision(t *testing.T) {
	g := collisionGraph()
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT ?x ?y (COUNT(*) AS ?n) WHERE { ?s ex:p1 ?x ; ex:p2 ?y } GROUP BY ?x ?y`)
	if len(res.Bindings) != 2 {
		t.Fatalf("GROUP BY merged colliding groups: got %d groups %v", len(res.Bindings), res.Bindings)
	}
	for i := range res.Bindings {
		b := res.Binding(i)
		if v, _ := b["n"].Int(); v != 1 {
			t.Errorf("group count = %v, want 1", b["n"])
		}
	}
}

func TestDistinctUnboundVsEmptyNoCollision(t *testing.T) {
	// An unbound position must not collide with any bound literal,
	// including the empty string.
	g := rdf.NewGraph()
	p1, p2 := rdf.NewIRI("http://ex.org/p1"), rdf.NewIRI("http://ex.org/p2")
	s1, s2 := rdf.NewIRI("http://ex.org/s1"), rdf.NewIRI("http://ex.org/s2")
	g.Add(rdf.NewTriple(s1, p1, rdf.NewLiteral("k")))
	g.Add(rdf.NewTriple(s1, p2, rdf.NewLiteral("")))
	g.Add(rdf.NewTriple(s2, p1, rdf.NewLiteral("k")))
	res := evalQ(t, g, `PREFIX ex: <http://ex.org/>
SELECT DISTINCT ?x ?y WHERE { ?s ex:p1 ?x . OPTIONAL { ?s ex:p2 ?y } }`)
	if len(res.Bindings) != 2 {
		t.Fatalf("unbound vs empty collapsed: %v", res.Bindings)
	}
}
