package sparql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"applab/internal/admission"
	"applab/internal/rdf"
	"applab/internal/telemetry"
)

// listing3Graph holds n features shaped like the paper's Listing 3 data:
// a LAI value, a geometry node and its WKT point, on a 10x10 degree
// grid. Every fifth feature has no LAI value.
func listing3Graph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	lai := rdf.NewIRI(rdf.NSLAI + "lai")
	hasGeom := rdf.NewIRI(rdf.NSGeo + "hasGeometry")
	asWKT := rdf.NewIRI(rdf.NSGeo + "asWKT")
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex.org/f%d", i))
		gn := rdf.NewIRI(fmt.Sprintf("http://ex.org/f%d/geom", i))
		if i%5 != 4 {
			g.Add(rdf.NewTriple(s, lai, rdf.NewDouble(float64(i%7)/2)))
		}
		g.Add(rdf.NewTriple(s, hasGeom, gn))
		g.Add(rdf.NewTriple(gn, asWKT, rdf.NewTypedLiteral(
			fmt.Sprintf("POINT (%d %d)", i%10, (i/10)%10), rdf.NSGeo+"wktLiteral")))
	}
	return g
}

const listing3Query = `SELECT DISTINCT ?s ?wkt ?lai
WHERE { ?s lai:lai ?lai .
        ?s geo:hasGeometry ?g .
        ?g geo:asWKT ?wkt }`

// viewportQuery is Listing 3 with a map client's viewport FILTER: the
// unit's last step keeps the features inside a 3x3 degree box.
const viewportQuery = `SELECT ?s ?wkt ?lai
WHERE { ?s lai:lai ?lai .
        ?s geo:hasGeometry ?g .
        ?g geo:asWKT ?wkt .
        FILTER(geof:sfWithin(?wkt, "POLYGON ((-0.5 -0.5, 2.5 -0.5, 2.5 2.5, -0.5 2.5, -0.5 -0.5))"^^geo:wktLiteral)) }`

type planCounts struct {
	cross, hash, nested, matches int64
}

// countPlan evaluates q over a counting wrapper of g and reports the
// join strategies the scans ran and the Match calls they issued.
func countPlan(t *testing.T, g *rdf.Graph, q string, workers, threshold int) planCounts {
	t.Helper()
	parsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	cs := &countingSource{g: g}
	if _, err := parsed.eval(cs, workers, threshold); err != nil {
		t.Fatal(err)
	}
	strategy := func(s string) int64 {
		return reg.Counter("sparql_join_strategy_total", "strategy", s).Value()
	}
	return planCounts{strategy("cross"), strategy("hash"), strategy("nested_loop"), cs.calls.Load()}
}

// TestPipelinePlanCounts pins the join strategies and Match calls of
// Listing 3, the three Engine_* shapes and the hash-join shape. The
// values are the ones operator-at-a-time evaluation recorded: pushing
// rows through a pipeline changes where rows live, not what is scanned.
func TestPipelinePlanCounts(t *testing.T) {
	people := equivGraph(benchSubjects)
	features := listing3Graph(300)
	cases := []struct {
		name string
		g    *rdf.Graph
		q    string
		want planCounts
	}{
		{"listing3", features, listing3Query, planCounts{cross: 1, nested: 2, matches: 481}},
		{"listing3-viewport", features, viewportQuery, planCounts{cross: 1, nested: 2, matches: 481}},
		{"bgp-join", people, benchJoinQuery, planCounts{cross: 1, nested: 3, matches: 3751}},
		{"star-join", people, benchStarQuery, planCounts{cross: 1, nested: 2, matches: 2501}},
		{"filter-bind", people, benchFilterQuery, planCounts{cross: 1, matches: 1}},
		{"hash-join", equivGraph(200), `PREFIX ex: <http://ex.org/>
SELECT ?s ?c WHERE { ?s a ex:Person . ?s ex:city ?c }`, planCounts{cross: 1, hash: 1, matches: 2}},
		// Filter-after-cross: the steps behind the cross see |A|·|B|
		// probe rows, so the second wkt scan stays a hash join.
		{"filter-after-cross", spatialGraph(40, 40), `PREFIX sp: <urn:sp:>
SELECT ?a ?b WHERE { ?a sp:kind "place" . ?a sp:wkt ?wa . ?b sp:kind "region" . ?b sp:wkt ?wb . FILTER(?wa != ?wb) }`, planCounts{cross: 2, hash: 1, nested: 1, matches: 43}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []struct{ workers, threshold int }{{1, parallelThreshold}, {2, 1}, {8, 1}} {
				got := countPlan(t, tc.g, tc.q, w.workers, w.threshold)
				if got != tc.want {
					t.Errorf("workers %d: got %+v, want %+v", w.workers, got, tc.want)
				}
			}
		})
	}
}

// pipelineQuery generates a query whose join units carry FILTERs and
// BINDs between and after their triple blocks, patterns with repeated
// variables, and OPTIONAL and EXISTS bodies that hold pipelines of
// their own.
func pipelineQuery(rnd *rand.Rand) string {
	patterns := []struct{ text, vars string }{
		{"?s ex:knows ?o", "s o"},
		{"?o ex:name ?n", "o n"},
		{"?s ex:age ?a", "s a"},
		{"?s ex:city ?c", "s c"},
		{"?o ex:city ?c", "o c"},
		{"?s a ex:Person", "s"},
		{"?s ex:knows ?s", "s"},
		{"?o ex:knows ?s", "s o"},
		{`?s ex:city "Paris"`, "s"},
		{"?o ex:age ?a", "o a"},
	}
	// Each FILTER and BIND names the variables it reads; extra picks
	// one over variables the query has bound so far.
	filters := []struct{ text, vars string }{
		{"FILTER(?a > 40)", "a"}, {`FILTER(?c != "Berlin")`, "c"}, {"FILTER(BOUND(?n))", "n"},
		{"FILTER(STRLEN(?n) > 2)", "n"}, {"FILTER(?s != ?o)", "s o"}, {`FILTER(?a < 30 || ?c = "Paris")`, "a c"},
	}
	binds := []struct{ text, vars string }{
		{"BIND(?a + 1 AS ?%s)", "a"}, {"BIND(STR(?s) AS ?%s)", "s"}, {"BIND(?c AS ?%s)", "c"}, {"BIND(UCASE(?n) AS ?%s)", "n"},
	}
	fresh := 0
	// block emits 1-3 patterns, each connected to the ones before it
	// (the first to seen, when seen is not empty).
	block := func(seen map[string]bool) string {
		var parts []string
		for n := 1 + rnd.Intn(3); len(parts) < n; {
			p := patterns[rnd.Intn(len(patterns))]
			connected := len(seen) == 0
			for _, v := range strings.Fields(p.vars) {
				connected = connected || seen[v]
			}
			if !connected {
				continue
			}
			for _, v := range strings.Fields(p.vars) {
				seen[v] = true
			}
			parts = append(parts, p.text)
		}
		return strings.Join(parts, " . ")
	}
	bound := func(vars string, seen map[string]bool) bool {
		for _, v := range strings.Fields(vars) {
			if !seen[v] {
				return false
			}
		}
		return true
	}
	filter := func(seen map[string]bool) string {
		for {
			if f := filters[rnd.Intn(len(filters))]; bound(f.vars, seen) || rnd.Intn(8) == 0 {
				return f.text
			}
		}
	}
	extra := func(seen map[string]bool) string {
		if rnd.Intn(2) == 0 {
			return filter(seen)
		}
		for {
			if b := binds[rnd.Intn(len(binds))]; bound(b.vars, seen) || rnd.Intn(8) == 0 {
				fresh++
				return fmt.Sprintf(b.text, fmt.Sprintf("b%d", fresh))
			}
		}
	}
	seen := map[string]bool{}
	var body []string
	for i, n := 0, 1+rnd.Intn(3); i < n; i++ {
		body = append(body, block(seen))
		for j := rnd.Intn(3); j > 0; j-- {
			body = append(body, extra(seen))
		}
	}
	inner := map[string]bool{"s": true}
	switch rnd.Intn(4) {
	case 0:
		b := block(inner)
		body = append(body, fmt.Sprintf("OPTIONAL { %s . %s }", b, extra(inner)))
	case 1:
		b := block(inner)
		neg := []string{"", "NOT "}[rnd.Intn(2)]
		body = append(body, fmt.Sprintf("FILTER %sEXISTS { %s . %s }", neg, b, filter(inner)))
	}
	return "PREFIX ex: <http://ex.org/>\nSELECT * WHERE { " + strings.Join(body, " ") + " }"
}

// TestPipelineMatchesSeed is the pipeline's differential oracle: every
// generated query answers EvalSeed's multiset on 1, 2 and 8 workers
// (threshold 1 chunks every pipeline), in one order for every worker
// count.
func TestPipelineMatchesSeed(t *testing.T) {
	g := loopedGraph(60)
	rnd := rand.New(rand.NewSource(34))
	for i := 0; i < 300; i++ {
		q := pipelineQuery(rnd)
		parsed, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		seed, err := parsed.EvalSeed(g)
		if err != nil {
			t.Fatalf("seed %q: %v", q, err)
		}
		var order string
		for _, workers := range []int{1, 2, 8} {
			comp, err := parsed.eval(g, workers, 1)
			if err != nil {
				t.Fatalf("%q at %d workers: %v", q, workers, err)
			}
			if resultsKey(seed) != resultsKey(comp) {
				t.Fatalf("result mismatch for %q at %d workers: seed %d rows, compiled %d",
					q, workers, len(seed.Bindings), len(comp.Bindings))
			}
			if workers == 1 {
				order = orderedKey(comp)
			} else if orderedKey(comp) != order {
				t.Fatalf("row order of %q differs between 1 and %d workers", q, workers)
			}
		}
	}
}

// fanoutGraph gives each of n people three friends and three likes, so
// every step of a knows/likes chain fans out to three rows per row.
func fanoutGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	person := rdf.NewIRI("http://ex.org/Person")
	knows, likes := rdf.NewIRI("http://ex.org/knows"), rdf.NewIRI("http://ex.org/likes")
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex.org/p%d", i))
		g.Add(rdf.NewTriple(s, rdf.NewIRI(rdf.RDFType), person))
		for j := 1; j <= 3; j++ {
			g.Add(rdf.NewTriple(s, knows, rdf.NewIRI(fmt.Sprintf("http://ex.org/p%d", (i+j)%n))))
			g.Add(rdf.NewTriple(s, likes, rdf.NewLiteral(fmt.Sprintf("thing%d", (i+j)%17))))
		}
	}
	return g
}

// TestPipelineStepsKeepOwnScanBuffers: a nested-loop step is still
// reading its ref buffer while the steps after it refill theirs for
// each of its matches, so every step needs a buffer of its own. Over a
// chain of two nested loops that both fan out, a buffer shared between
// the steps overwrites the first step's unread matches with the second
// step's, and the answer departs from the seed evaluator's.
func TestPipelineStepsKeepOwnScanBuffers(t *testing.T) {
	g := fanoutGraph(50)
	q := `PREFIX ex: <http://ex.org/>
SELECT ?a ?b ?c WHERE { ?a a ex:Person . ?a ex:knows ?b . ?b ex:likes ?c }`
	if got := countPlan(t, g, q, 1, parallelThreshold); got.nested != 2 {
		t.Fatalf("plan %+v: the fixture must run both later scans as nested loops", got)
	}
	parsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := parsed.EvalSeed(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(seed.Bindings) != 50*3*3 {
		t.Fatalf("seed answers %d rows, want %d", len(seed.Bindings), 50*3*3)
	}
	for _, workers := range []int{1, 2, 8} {
		comp, err := parsed.eval(g, workers, 1)
		if err != nil {
			t.Fatal(err)
		}
		if resultsKey(comp) != resultsKey(seed) {
			t.Fatalf("%d workers: the compiled answer (%d rows) differs from the seed's", workers, len(comp.Bindings))
		}
	}
}

// plainCounter counts Match calls on a source without statistics, so
// patterns run in textual order.
type plainCounter struct {
	g     *rdf.Graph
	calls atomic.Int64
	// onMatch, when set, runs before every Match with the call's number.
	onMatch func(n int64)
}

func (c *plainCounter) Match(s, p, o rdf.Term) []rdf.Triple {
	n := c.calls.Add(1)
	if c.onMatch != nil {
		c.onMatch(n)
	}
	return c.g.Match(s, p, o)
}

// TestPipelineUnreachedStepNoMatch: a cross step behind a step that
// passes no row on issues no Match and counts no strategy, as when the
// empty intermediate short-circuited the plan.
func TestPipelineUnreachedStepNoMatch(t *testing.T) {
	q, err := Parse(`PREFIX ex: <http://ex.org/>
SELECT * WHERE { ?s ex:city "Paris" . ?s ex:age 1000 . ?x ex:name ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		reg := telemetry.NewRegistry()
		SetMetrics(reg)
		src := &plainCounter{g: equivGraph(100)}
		res, err := q.eval(src, workers, 1)
		SetMetrics(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Bindings) != 0 {
			t.Fatalf("%d rows, want none", len(res.Bindings))
		}
		// One cross Match for the head, one per Paris row for ex:age.
		if got := src.calls.Load(); got != 1+25 {
			t.Errorf("workers %d: %d Match calls, want 26", workers, got)
		}
		cross := reg.Counter("sparql_join_strategy_total", "strategy", "cross").Value()
		nested := reg.Counter("sparql_join_strategy_total", "strategy", "nested_loop").Value()
		if cross != 1 || nested != 1 {
			t.Errorf("workers %d: cross %d, nested_loop %d; want 1 and 1", workers, cross, nested)
		}
	}
}

// fourStepQuery's join unit is one five-step pipeline: the head scan,
// three nested-loop scans and a FILTER.
const fourStepQuery = `PREFIX ex: <http://ex.org/>
SELECT ?s ?n WHERE { ?s a ex:Person . ?s ex:knows ?o . ?o ex:name ?n . ?o ex:age ?a . FILTER(?a >= 0) }`

// TestPipelineStopsWithinInterval: cancelled mid-pipeline, or over its
// intermediate budget, the evaluation issues at most one check
// interval's worth of further scans per worker.
func TestPipelineStopsWithinInterval(t *testing.T) {
	q, err := Parse(fourStepQuery)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := compileQuery(q, capabilities(&plainCounter{})).ops[0].(*pipeOp); !ok || len(p.steps) != 5 {
		t.Fatalf("plan %v does not run the unit as one five-step pipeline", compileQuery(q, capabilities(&plainCounter{})).ops)
	}
	const stopAt = 500
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("cancel/workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := &plainCounter{g: equivGraph(2000)}
			src.onMatch = func(n int64) {
				if n == stopAt {
					cancel()
				}
			}
			_, err := q.evalCtx(ctx, src, workers, 1)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if extra := src.calls.Load() - stopAt; extra > int64(workers*budgetCheckInterval) {
				t.Errorf("%d Match calls after the cancel; want <= %d", extra, workers*budgetCheckInterval)
			}
		})
		t.Run(fmt.Sprintf("budget/workers=%d", workers), func(t *testing.T) {
			// The head charges its 2,000 rows; the budget trips a few
			// hundred rows into the pipeline.
			b := admission.NewBudget(admission.Limits{MaxIntermediate: 4000}, nil)
			var tripped atomic.Int64
			src := &plainCounter{g: equivGraph(2000)}
			src.onMatch = func(n int64) {
				if b.Err() != nil {
					tripped.CompareAndSwap(0, n)
				}
			}
			_, err := q.evalCtx(admission.WithBudget(context.Background(), b), src, workers, 1)
			if be, ok := admission.AsBudgetError(err); !ok || be.Kind != admission.KindIntermediate {
				t.Fatalf("err = %v, want the intermediate budget error", err)
			}
			if calls := src.calls.Load(); calls <= 1 || calls >= 1+3*2000 {
				t.Fatalf("%d Match calls: the budget did not trip inside the pipeline", calls)
			}
			if at := tripped.Load(); at != 0 {
				if extra := src.calls.Load() - at; extra > int64(workers*budgetCheckInterval) {
					t.Errorf("%d Match calls after the trip; want <= %d", extra, workers*budgetCheckInterval)
				}
			}
		})
	}
}
