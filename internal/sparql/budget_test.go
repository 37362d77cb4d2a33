package sparql

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"applab/internal/admission"
	"applab/internal/rdf"
	"applab/internal/telemetry"
)

// budgetGraph builds a graph whose two-pattern join examines well over
// budgetCheckInterval intermediate rows: n subjects with ex:p edges
// joined against n objects with ex:q edges.
func budgetGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	p := rdf.NewIRI("http://ex.org/p")
	q := rdf.NewIRI("http://ex.org/q")
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", i))
		o := rdf.NewIRI(fmt.Sprintf("http://ex.org/o%d", i))
		g.Add(rdf.NewTriple(s, p, o))
		g.Add(rdf.NewTriple(o, q, rdf.NewLiteral(fmt.Sprintf("v%d", i))))
	}
	return g
}

const budgetQuery = `PREFIX ex: <http://ex.org/>
SELECT ?s ?v WHERE { ?s ex:p ?o . ?o ex:q ?v }`

// TestBudgetMaxIntermediateIdenticalAcrossWorkers is the determinism
// property from the issue: a query killed mid-join by the intermediate
// cap returns the exact same structured error for 1, 2 and 8 workers.
func TestBudgetMaxIntermediateIdenticalAcrossWorkers(t *testing.T) {
	g := budgetGraph(400) // >= 800 intermediate rows through the join
	q, err := Parse(budgetQuery)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, workers := range []int{1, 2, 8} {
		b := admission.NewBudget(admission.Limits{MaxIntermediate: 100}, nil)
		ctx := admission.WithBudget(context.Background(), b)
		_, err := q.evalCtx(ctx, g, workers, 8) // low threshold: force chunking
		be, ok := admission.AsBudgetError(err)
		if !ok {
			t.Fatalf("workers=%d: err = %v, want *admission.BudgetError", workers, err)
		}
		if be.Kind != admission.KindIntermediate || be.Limit != 100 {
			t.Fatalf("workers=%d: got %s limit %d", workers, be.Kind, be.Limit)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers=%d: error %q differs from workers=1 error %q", workers, err.Error(), want)
		}
	}
}

// TestBudgetMaxIntermediateUnderCap checks that a budget generous
// enough for the query never trips.
func TestBudgetMaxIntermediateUnderCap(t *testing.T) {
	g := budgetGraph(50)
	b := admission.NewBudget(admission.Limits{MaxIntermediate: 1 << 20}, nil)
	ctx := admission.WithBudget(context.Background(), b)
	q, err := Parse(budgetQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.EvalContext(ctx, g)
	if err != nil {
		t.Fatalf("EvalContext: %v", err)
	}
	if len(res.Bindings) != 50 {
		t.Fatalf("got %d rows, want 50", len(res.Bindings))
	}
}

// TestBudgetMaxRows checks the final-result cap: small enough result
// sets pass, one row over the cap yields the structured rows error.
func TestBudgetMaxRows(t *testing.T) {
	g := budgetGraph(20)
	q, err := Parse(budgetQuery)
	if err != nil {
		t.Fatal(err)
	}
	ok := admission.WithBudget(context.Background(), admission.NewBudget(admission.Limits{MaxRows: 20}, nil))
	if _, err := q.EvalContext(ok, g); err != nil {
		t.Fatalf("at-cap query failed: %v", err)
	}
	over := admission.WithBudget(context.Background(), admission.NewBudget(admission.Limits{MaxRows: 19}, nil))
	_, err = q.EvalContext(over, g)
	be, okErr := admission.AsBudgetError(err)
	if !okErr || be.Kind != admission.KindRows || be.Limit != 19 {
		t.Fatalf("over-cap query = %v, want rows limit 19", err)
	}
}

// blockingSource is a ContextSource whose scans park until the context
// dies, standing in for a hung upstream; no real time passes in tests
// that use it.
type blockingSource struct{}

func (blockingSource) Match(s, p, o rdf.Term) []rdf.Triple { return nil }

func (blockingSource) MatchContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, error) {
	<-ctx.Done()
	return nil, admission.Check(ctx)
}

// TestBudgetDeadlineUnblocksHungScan arms a deadline with a hand-held
// After channel (zero real sleeps): firing it must cancel the blocked
// scan and surface the structured deadline error, not a hang or a bare
// context.Canceled.
func TestBudgetDeadlineUnblocksHungScan(t *testing.T) {
	b := admission.NewBudget(admission.Limits{Deadline: 2 * time.Second}, nil)
	fire := make(chan time.Time, 1)
	after := func(d time.Duration) <-chan time.Time {
		if d != 2*time.Second {
			t.Errorf("deadline watcher armed with %s, want 2s", d)
		}
		return fire
	}
	ctx := admission.WithBudget(context.Background(), b)
	ctx, stop := b.StartDeadline(ctx, after)
	defer stop()
	fire <- time.Time{} // the deadline "elapses" immediately

	q, err := Parse(budgetQuery)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := q.EvalContext(ctx, blockingSource{})
		done <- err
	}()
	select {
	case err := <-done:
		be, ok := admission.AsBudgetError(err)
		if !ok || be.Kind != admission.KindDeadline {
			t.Fatalf("err = %v, want deadline budget error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("evaluation hung past its deadline")
	}
}

// TestBudgetCancelReturnsContextError checks plain cancellation (no
// budget): the engine stops and reports ctx.Err.
func TestBudgetCancelReturnsContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q, err := Parse(budgetQuery)
	if err != nil {
		t.Fatal(err)
	}
	_, err = q.EvalContext(ctx, budgetGraph(200))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// flakySource is a ContextSource whose context scans fail with an
// ordinary (non-abort) upstream error.
type flakySource struct{}

func (flakySource) Match(s, p, o rdf.Term) []rdf.Triple { return nil }

func (flakySource) MatchContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, error) {
	return nil, errors.New("upstream 500")
}

// errOnlySource is an ErrorSource (no MatchContext) whose scans fail
// with an ordinary upstream error; its Match swallows the error.
type errOnlySource struct{}

func (errOnlySource) Match(s, p, o rdf.Term) []rdf.Triple { return nil }

func (errOnlySource) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	return nil, errors.New("upstream 500")
}

// TestContextSourceOrdinaryErrorReadsEmpty pins the seed semantics: a
// non-abort upstream failure is swallowed into empty results, the one
// scan that read it is counted on the ref path and the answer is marked
// partial — budgeted or not, and through MatchErr when the source has
// no MatchContext.
func TestContextSourceOrdinaryErrorReadsEmpty(t *testing.T) {
	budgeted := admission.WithBudget(context.Background(), admission.NewBudget(admission.Limits{MaxIntermediate: 1000}, nil))
	q, err := Parse(budgetQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ctx  context.Context
		src  Source
	}{
		{"context source, budgeted", budgeted, flakySource{}},
		{"context source, unlimited", context.Background(), flakySource{}},
		{"error source, unlimited", context.Background(), errOnlySource{}},
	} {
		reg := telemetry.NewRegistry()
		SetMetrics(reg)
		res, err := q.EvalContext(c.ctx, c.src)
		SetMetrics(nil)
		if err != nil {
			t.Fatalf("%s: EvalContext: %v", c.name, err)
		}
		if len(res.Bindings) != 0 || !res.Partial {
			t.Fatalf("%s: got %d rows, partial %v; want 0, partial", c.name, len(res.Bindings), res.Partial)
		}
		if n := reg.Counter("sparql_scan_errors_total", "path", "ref").Value(); n != 1 {
			t.Fatalf("%s: %d scan errors on the ref path, want 1", c.name, n)
		}
	}
}

// TestBudgetStressRace hammers budget-cancelled evaluations across
// worker counts; run with -race it proves the abort path is data-race
// free and always yields a budget error, never a partial result.
func TestBudgetStressRace(t *testing.T) {
	g := budgetGraph(300)
	q, err := Parse(budgetQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for i := 0; i < 5; i++ {
			b := admission.NewBudget(admission.Limits{MaxIntermediate: 64}, nil)
			ctx := admission.WithBudget(context.Background(), b)
			res, err := q.evalCtx(ctx, g, workers, 4)
			if err == nil {
				t.Fatalf("workers=%d run %d: got %d rows, want budget error", workers, i, len(res.Bindings))
			}
			if _, ok := admission.AsBudgetError(err); !ok {
				t.Fatalf("workers=%d run %d: err = %v, want budget error", workers, i, err)
			}
		}
	}
}

// TestEvalContextUnlimitedPathUnchanged: with a background context and
// no budget the limited flag stays off, so plain Eval semantics (and
// performance) are untouched.
func TestEvalContextUnlimitedPathUnchanged(t *testing.T) {
	g := budgetGraph(30)
	q, err := Parse(budgetQuery)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := q.Eval(g)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := q.EvalContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Bindings) != len(ctxed.Bindings) {
		t.Fatalf("Eval %d rows, EvalContext %d rows", len(plain.Bindings), len(ctxed.Bindings))
	}
}
