package sparql

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"applab/internal/rdf"
)

// The compiled slot engine must agree with the seed map evaluator on
// every query shape the engine supports. Differential tests run both
// paths over the same sources and compare canonicalized result sets
// (plan reordering may legally permute un-ORDER-BY'd rows), and the
// parallel path must agree with the sequential one row-for-row.

// equivGraph is a synthetic graph large enough to cross the hash-join
// and parallelism thresholds: n people with name/age/city/type triples
// and a ring of knows edges.
func equivGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	person := rdf.NewIRI("http://ex.org/Person")
	a := rdf.NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
	name := rdf.NewIRI("http://ex.org/name")
	age := rdf.NewIRI("http://ex.org/age")
	city := rdf.NewIRI("http://ex.org/city")
	knows := rdf.NewIRI("http://ex.org/knows")
	cities := []string{"Paris", "Athens", "Berlin", "Madrid"}
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex.org/p%d", i))
		g.Add(rdf.NewTriple(s, a, person))
		g.Add(rdf.NewTriple(s, name, rdf.NewLiteral(fmt.Sprintf("n%d", i))))
		g.Add(rdf.NewTriple(s, age, rdf.NewInteger(int64(20+i%50))))
		g.Add(rdf.NewTriple(s, city, rdf.NewLiteral(cities[i%len(cities)])))
		g.Add(rdf.NewTriple(s, knows, rdf.NewIRI(fmt.Sprintf("http://ex.org/p%d", (i+1)%n))))
	}
	return g
}

// loopedGraph is equivGraph plus a self loop and a back edge, so that
// repeated-variable patterns have something to match.
func loopedGraph(n int) *rdf.Graph {
	g := equivGraph(n)
	knows := rdf.NewIRI("http://ex.org/knows")
	p0, p1 := rdf.NewIRI("http://ex.org/p0"), rdf.NewIRI("http://ex.org/p1")
	g.Add(rdf.NewTriple(p0, knows, p0))
	g.Add(rdf.NewTriple(p1, knows, p0))
	return g
}

// equivQueries covers every evaluator feature. ORDER BY is only
// combined with LIMIT on keys that are total orders, so reordering
// cannot change which rows survive the cut.
var equivQueries = []string{
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?n WHERE { ?s a ex:Person . ?s ex:name ?n }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?n ?c WHERE { ?s ex:city "Paris" . ?s ex:name ?n . ?s ex:age ?c }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?o ?n WHERE { ?s ex:knows ?o . ?o ex:name ?n }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s WHERE { ?s ex:age ?a . FILTER(?a > 60) }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?n WHERE { ?s ex:city "Athens" . OPTIONAL { ?s ex:name ?n } }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?n WHERE { { ?s ex:city "Paris" } UNION { ?s ex:city "Berlin" } . ?s ex:name ?n }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?b WHERE { ?s ex:age ?a . BIND(?a + 1 AS ?b) . FILTER(?b < 25) }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?c WHERE { ?s ex:city ?c . VALUES ?c { "Paris" "Madrid" } ?s ex:age ?a . FILTER(?a = 21) }`,
	`PREFIX ex: <http://ex.org/>
SELECT DISTINCT ?c WHERE { ?s ex:city ?c }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?c (COUNT(*) AS ?n) (AVG(?a) AS ?avg) WHERE { ?s ex:city ?c . ?s ex:age ?a } GROUP BY ?c`,
	`PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ?s ex:name ?n . ?s ex:age ?a } ORDER BY ?n LIMIT 17`,
	`PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ?s ex:name ?n } ORDER BY DESC(?n) OFFSET 5 LIMIT 10`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s WHERE { ?s ex:city "Paris" . FILTER EXISTS { ?s ex:knows ?o } }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s WHERE { ?s ex:city "Paris" . FILTER NOT EXISTS { ?s ex:age 21 } }`,
	`PREFIX ex: <http://ex.org/>
ASK { ?s ex:city "Athens" . ?s ex:age 22 }`,
	`PREFIX ex: <http://ex.org/>
ASK { ?s ex:city "Nowhere" }`,
	`PREFIX ex: <http://ex.org/>
CONSTRUCT { ?s ex:livesIn ?c } WHERE { ?s ex:city ?c . ?s ex:age ?a . FILTER(?a > 65) }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?n WHERE { { ?s ex:age 21 . OPTIONAL { ?s ex:name ?n } } UNION { ?s ex:city "Berlin" } }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s WHERE { { ?s ex:city "Paris" . ?s ex:age ?a . FILTER(?a < 30) } }`,

	// Rows are handles into Match slices, VALUES constants and the term
	// arena, shared across every kind of fan-out: the shapes below make
	// sibling rows point at one ancestor's terms and then diverge.
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?a ?tag ?n WHERE { ?s ex:age ?a . FILTER(?a < 24) { ?s ex:city "Paris" . BIND("p" AS ?tag) } UNION { ?s ex:name ?n } UNION { ?s ex:knows ?n } }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?b ?o ?on WHERE { ?s ex:age ?a . BIND(?a * 2 AS ?b) OPTIONAL { ?s ex:knows ?o . ?o ex:name ?on . FILTER(?b > 60) } }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?c WHERE { ?s ex:city ?c . FILTER NOT EXISTS { ?s ex:knows ?o . ?o ex:city ?c } FILTER EXISTS { ?s ex:age ?a . FILTER(?a > 30) } }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?x ?y ?z WHERE { ?s ex:city "Madrid" . BIND(STR(?s) AS ?x) { BIND(STRLEN(?x) AS ?y) } UNION { BIND(UCASE(?x) AS ?z) } }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?c ?k WHERE { VALUES (?c ?k) { ("Paris" 1) ("Berlin" 2) ("Paris" 3) } ?s ex:city ?c . ?s ex:age 20 }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?c WHERE { VALUES ?c { "Athens" } ?s ex:city ?c . VALUES ?c { "Athens" "Paris" } }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?p WHERE { ?s ?p ?s }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?o WHERE { ?s ex:knows ?o . ?o ex:knows ?s }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?c (COUNT(*) AS ?n) (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) (SUM(?a) AS ?sum) WHERE { ?s ex:city ?c . ?s ex:age ?a . FILTER(?a >= 30 && ?a < 60) } GROUP BY ?c ORDER BY DESC(?n) ?c`,
	`PREFIX ex: <http://ex.org/>
SELECT ?c (COUNT(DISTINCT ?a) AS ?ages) (COUNT(?nope) AS ?zero) (?a + 1 AS ?first) ?s WHERE { ?s ex:city ?c . ?s ex:age ?a } GROUP BY ?c`,
	`PREFIX ex: <http://ex.org/>
SELECT (COUNT(*) AS ?n) (COUNT(DISTINCT *) AS ?one) WHERE { ?s ex:city "Nowhere" }`,
	`PREFIX ex: <http://ex.org/>
SELECT ?c ?a WHERE { ?s ex:city ?c . ?s ex:age ?a } GROUP BY ?c ?a ORDER BY ?c DESC(?a) OFFSET 3 LIMIT 40`,
	`PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ?s ex:name ?n . ?s ex:age ?a . ?s ex:city ?c } ORDER BY DESC(?a) ?c ?n LIMIT 25`,
	`PREFIX ex: <http://ex.org/>
SELECT ?n (?a * 2 AS ?twice) WHERE { ?s ex:name ?n . ?s ex:age ?a } ORDER BY ?twice ?n OFFSET 7 LIMIT 9`,
	`PREFIX ex: <http://ex.org/>
SELECT DISTINCT ?c ?a WHERE { ?s ex:city ?c . ?s ex:age ?a } ORDER BY ?a ?c OFFSET 10 LIMIT 30`,
	`PREFIX ex: <http://ex.org/>
SELECT DISTINCT ?c ?n WHERE { ?s ex:city ?c . OPTIONAL { ?s ex:age 20 . ?s ex:name ?n } } ORDER BY ?c ?n`,
	`PREFIX ex: <http://ex.org/>
SELECT DISTINCT * WHERE { ?s ex:city ?c . BIND(1 AS ?one) FILTER(?c = "Berlin") }`,
	`PREFIX ex: <http://ex.org/>
SELECT * WHERE { ?s ex:age 33 . BIND(STR(?s) AS ?str) VALUES ?v { 1 2 } }`,
	`PREFIX ex: <http://ex.org/>
CONSTRUCT { ?s ex:peer _:link . _:link ex:to ?o ; ex:via ?c } WHERE { ?s ex:knows ?o . ?s ex:city ?c . OPTIONAL { ?o ex:age ?a . FILTER(?a > 65) } FILTER(BOUND(?a)) }`,
	`PREFIX ex: <http://ex.org/>
CONSTRUCT { ?s ex:label ?n . ?s ex:missing ?never } WHERE { ?s ex:name ?n . ?s ex:age 20 }`,

	// A repeated projection is one column, and nothing unprojected
	// leaves either evaluator.
	`PREFIX ex: <http://ex.org/>
SELECT ?s ?s WHERE { ?s ex:knows ?o }`,
	`PREFIX ex: <http://ex.org/>
SELECT DISTINCT ?s ?a ?s WHERE { ?s ex:age ?a . FILTER(?a < 22) } ORDER BY ?a ?s`,
}

// TestSelectAliasInScope: SELECT (expr AS ?v) may not name a variable
// already in scope (SPARQL 1.1 §18.2.1), where the engine would
// overwrite it and the seed evaluator would keep both; BIND keeps its
// join semantics, and FILTER and EXISTS bind nothing.
func TestSelectAliasInScope(t *testing.T) {
	g := loopedGraph(20)
	for _, q := range []string{
		`SELECT ?s (?o AS ?s) WHERE { ?s <http://ex.org/knows> ?o }`,
		`SELECT (?o AS ?b) WHERE { ?s <http://ex.org/knows> ?o . BIND(1 AS ?b) }`,
		`SELECT (1 AS ?v) WHERE { ?s <http://ex.org/knows> ?o . VALUES ?v { 1 } }`,
		`SELECT (1 AS ?o) WHERE { ?s <http://ex.org/knows> ?p . OPTIONAL { ?p <http://ex.org/name> ?o } }`,
		`SELECT ?x (1 AS ?x) WHERE { ?s <http://ex.org/knows> ?o }`,
		`SELECT (1 AS ?x) (2 AS ?x) WHERE { ?s <http://ex.org/knows> ?o }`,
		`SELECT (COUNT(*) AS ?s) WHERE { ?s <http://ex.org/knows> ?o }`,
	} {
		if _, err := Parse(q); err == nil || !strings.Contains(err.Error(), "already in scope") {
			t.Errorf("%s: parse error %v, want an in-scope error", q, err)
		}
	}
	for _, q := range []string{
		`SELECT (?o AS ?t) ?t WHERE { ?s <http://ex.org/knows> ?o }`,
		`SELECT ?s ?o WHERE { ?s <http://ex.org/knows> ?o . BIND(?s AS ?o) }`,
		`SELECT ?s (1 AS ?z) WHERE { ?s <http://ex.org/knows> ?o FILTER(!BOUND(?z)) FILTER EXISTS { ?s <http://ex.org/name> ?y } } ORDER BY ?s`,
		`SELECT ?s (STR(?y) AS ?y2) WHERE { ?s <http://ex.org/name> ?y }`,
	} {
		seed, err := EvalSeed(g, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := Eval(g, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(got.Bindings) == 0 || rowsKey(got) != rowsKey(seed) {
			t.Errorf("%s: engine %d rows, seed %d rows, or they differ", q, len(got.Bindings), len(seed.Bindings))
		}
	}
}

// resultsKey canonicalizes any result kind (rows as a sorted multiset,
// CONSTRUCT graphs as sorted triples, ASK as the boolean).
func resultsKey(res *Results) string {
	if res.Graph != nil {
		keys := make([]string, len(res.Graph))
		for i, t := range res.Graph {
			keys[i] = t.S.Key() + "\x00" + t.P.Key() + "\x00" + t.O.Key()
		}
		sort.Strings(keys)
		return "graph:" + strings.Join(keys, "\n")
	}
	if len(res.Vars) == 0 && res.Bindings == nil {
		return fmt.Sprintf("ask:%v", res.Bool)
	}
	return rowsKey(res)
}

// orderedKey renders rows in result order for exact comparisons.
func orderedKey(res *Results) string {
	var sb strings.Builder
	for i := range res.Bindings {
		b := res.Binding(i)
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			fmt.Fprintf(&sb, "%s=%s;", v, b[v].Key())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestCompiledEngineMatchesSeed(t *testing.T) {
	g := loopedGraph(400)
	for _, q := range equivQueries {
		parsed, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		seed, err1 := parsed.EvalSeed(g)
		// threshold 1 forces every stage of the 2- and 8-worker runs
		// through the parallel path.
		for _, workers := range []int{1, 2, 8} {
			comp, err2 := parsed.eval(g, workers, 1)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("error disagreement for %q: seed=%v compiled(%d workers)=%v", q, err1, workers, err2)
			}
			if err1 != nil {
				continue
			}
			if resultsKey(seed) != resultsKey(comp) {
				t.Errorf("result mismatch for %q at %d workers:\nseed:     %d rows\ncompiled: %d rows",
					q, workers, len(seed.Bindings), len(comp.Bindings))
			}
			if len(parsed.OrderBy) > 0 && orderedKey(seed) != orderedKey(comp) {
				t.Errorf("ORDER BY result order differs from seed for %q at %d workers", q, workers)
			}
		}
	}
}

func TestParallelWorkersIdenticalResults(t *testing.T) {
	g := loopedGraph(600)
	for _, q := range equivQueries {
		parsed, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		// threshold 1 forces the parallel path for every stage.
		seq, err1 := parsed.eval(g, 1, 1)
		for _, workers := range []int{2, 8} {
			par, err2 := parsed.eval(g, workers, 1)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("error disagreement for %q: seq=%v par=%v", q, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if orderedKey(seq) != orderedKey(par) || seq.Bool != par.Bool || resultsKey(seq) != resultsKey(par) {
				t.Errorf("workers=1 vs workers=%d diverge for %q", workers, q)
			}
		}
	}
}

func TestParallelEvalRace(t *testing.T) {
	// Concurrent evaluations sharing one source, each fanning out
	// internally; run under -race in CI.
	g := equivGraph(300)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for _, q := range equivQueries[:8] {
				parsed, err := Parse(q)
				if err != nil {
					panic(err)
				}
				if _, err := parsed.eval(g, 4, 1); err != nil {
					panic(err)
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	close(done)
}

// countingSource wraps a graph and counts Match calls: the hash-join
// strategy must collapse per-row probes into a single build-side Match.
type countingSource struct {
	g     *rdf.Graph
	calls atomic.Int64
}

func (c *countingSource) Match(s, p, o rdf.Term) []rdf.Triple {
	c.calls.Add(1)
	return c.g.Match(s, p, o)
}

func (c *countingSource) Cardinality(s, p, o rdf.Term) int {
	return c.g.Cardinality(s, p, o)
}

func TestHashJoinReducesMatchCalls(t *testing.T) {
	g := equivGraph(200)
	q := `PREFIX ex: <http://ex.org/>
SELECT ?s ?c WHERE { ?s a ex:Person . ?s ex:city ?c }`
	parsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingSource{g: g}
	res, err := parsed.Eval(cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 200 {
		t.Fatalf("got %d rows, want 200", len(res.Bindings))
	}
	// Seed strategy: 1 call for the first pattern + 200 per-row calls.
	// Compiled: one Match per pattern (cross-join build + hash build).
	if calls := cs.calls.Load(); calls > 4 {
		t.Errorf("compiled engine made %d Match calls, want <= 4", calls)
	}
	ref, err := parsed.EvalSeed(g)
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := parsed.Eval(g)
	if rowsKey(ref) != rowsKey(comp) {
		t.Error("hash-join results differ from seed evaluator")
	}
}
