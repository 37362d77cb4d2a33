package sparql

import (
	"context"
	"sync"
	"testing"

	"applab/internal/rdf"
)

// refreshingGraph is a live view: it logs each Invalidate and each
// statistics read the planner makes.
type refreshingGraph struct {
	*rdf.Graph
	mu     sync.Mutex
	events []string
}

func (g *refreshingGraph) Invalidate() { g.log("invalidate") }

func (g *refreshingGraph) Cardinality(s, p, o rdf.Term) int {
	g.log("card")
	return g.Graph.Cardinality(s, p, o)
}

func (g *refreshingGraph) log(e string) {
	g.mu.Lock()
	g.events = append(g.events, e)
	g.mu.Unlock()
}

// take returns the events logged so far and forgets them.
func (g *refreshingGraph) take() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	ev := g.events
	g.events = nil
	return ev
}

// otherInvalidate has an Invalidate that is not a Refresher's.
type otherInvalidate struct {
	*rdf.Graph
	calls *int
}

func (g otherInvalidate) Invalidate() error { *g.calls++; return nil }

// TestEvalRefreshesOncePerEvaluation: the engine invalidates a
// Refresher exactly once per evaluation, before the planner reads its
// statistics, on one worker and on four; a source without a
// Refresher's Invalidate is left alone and answers the same.
func TestEvalRefreshesOncePerEvaluation(t *testing.T) {
	q, err := Parse(benchJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Eval(equivGraph(200))
	if err != nil || len(want.Bindings) == 0 {
		t.Fatalf("oracle: %d rows, %v", len(want.Bindings), err)
	}
	for _, workers := range []int{1, 4} {
		Force(t, workers, 1, "")
		src := &refreshingGraph{Graph: equivGraph(200)}
		for i := 0; i < 3; i++ {
			res, err := q.EvalContext(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if rowsKey(res) != rowsKey(want) {
				t.Fatalf("workers %d: the refreshed source answered differently", workers)
			}
			ev := src.take()
			invalidations := 0
			for _, e := range ev {
				if e == "invalidate" {
					invalidations++
				}
			}
			if invalidations != 1 || len(ev) < 2 || ev[0] != "invalidate" {
				t.Fatalf("workers %d, evaluation %d: events %v; want one invalidate, first, then the planner's reads", workers, i, ev)
			}
		}

		calls := 0
		res, err := q.EvalContext(context.Background(), otherInvalidate{Graph: equivGraph(200), calls: &calls})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 0 || rowsKey(res) != rowsKey(want) {
			t.Fatalf("workers %d: a source without a Refresher was invalidated %d times", workers, calls)
		}
	}
}
