package sparql

import (
	"context"
	"runtime"

	"applab/internal/admission"
	"applab/internal/rdf"
)

// Source is the data interface the evaluator queries. rdf.Graph, the
// Strabon store and OBDA virtual graphs all implement it.
type Source interface {
	// Match returns all triples matching the pattern; zero terms are
	// wildcards. The caller owns the returned slice: the source must not
	// reuse, retain or mutate it (or hand the same backing array out
	// twice), because the compiled engine points its solution rows
	// straight at the slice's terms for as long as the query runs. The
	// same holds for MatchErr, MatchContext and FragmentMatch.
	Match(s, p, o rdf.Term) []rdf.Triple
}

// ErrorSource is an optional extension of Source for backends whose
// Match can fail (remote endpoints, OBDA virtual graphs over live
// OPeNDAP calls). Match's signature has no error channel, so plain
// sources swallow failures into empty results; callers that care —
// the federation engine's per-member error reports, resilience tests —
// type-assert for ErrorSource and use MatchErr instead.
type ErrorSource interface {
	Source
	// MatchErr is Match with the upstream error surfaced.
	MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error)
}

// ContextSource is an optional extension of Source for backends that
// honor cancellation and query budgets mid-scan (remote endpoints,
// federations, OBDA virtual graphs). EvalContext routes pattern scans
// through MatchContext when the evaluation carries a deadline or
// budget. The engine aborts the query only on cancellation/budget
// errors (admission.Aborted); other upstream failures keep the plain
// Source semantics and read as empty results.
type ContextSource interface {
	Source
	// MatchContext is Match under a context.
	MatchContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, error)
}

// Results is the outcome of query evaluation.
type Results struct {
	// Vars is the projection in order.
	Vars []string
	// Bindings holds one row per solution.
	Bindings []Binding
	// Bool is the ASK answer.
	Bool bool
	// Graph holds CONSTRUCT output triples.
	Graph []rdf.Triple
}

// Eval parses and evaluates a query string against src.
func Eval(src Source, query string) (*Results, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return q.Eval(src)
}

// Eval evaluates the query against src with the compiled slot engine:
// the WHERE clause is lowered onto a per-query variable table and run as
// flat rows of term handles, BGPs are reordered by estimated selectivity when
// src provides statistics (StatsSource), patterns may be joined by hash
// join or cross-join materialization, and large solution sets are
// partitioned across GOMAXPROCS workers (see parallelThreshold). Results are
// identical to the original evaluator up to the order of un-ORDER-BY'd
// rows; EvalSeed retains the original path.
func (q *Query) Eval(src Source) (*Results, error) {
	return q.EvalContext(context.Background(), src)
}

// EvalContext is Eval with cooperative cancellation and resource
// governance: plan operators poll ctx and the attached
// *admission.Budget (admission.WithBudget) every budgetCheckInterval
// rows, pattern scans go through MatchContext when src supports it,
// and an over-budget query returns the structured *admission.BudgetError
// instead of hanging. A background context with no budget evaluates on
// the exact unlimited path Eval always used.
func (q *Query) EvalContext(ctx context.Context, src Source) (*Results, error) {
	workers, threshold := runtime.GOMAXPROCS(0), parallelThreshold
	if f := forced.Load(); f != nil {
		workers, threshold = f.workers, f.threshold
	}
	return q.evalCtx(ctx, src, workers, threshold)
}

func (q *Query) evalCtx(ctx context.Context, src Source, workers, threshold int) (*Results, error) {
	if _, remote := src.(ErrorSource); remote {
		// Remote-backed sources keep sequential, single-flight Match
		// calls: error reporting and federation deadlines depend on it.
		workers = 1
	}
	budget := admission.FromContext(ctx)
	ec := &execCtx{
		src: src, ctx: ctx, budget: budget,
		limited: budget != nil || ctx.Done() != nil,
		workers: workers, threshold: threshold,
	}
	if ec.limited {
		if cs, ok := src.(ContextSource); ok {
			ec.csrc = cs
		}
	}
	if ex, ok := src.(ExchangeSource); ok {
		ec.ex = ex
	}
	prog := compileQuery(q, src)
	rows, err := runOps(ec, prog.ops, []row{make(row, prog.vt.size())})
	if err != nil {
		return nil, err
	}
	// Final checkpoint: a small result set may finish between ticks, but
	// a violated budget or dead context must still surface (this is what
	// bounds "terminates within one check interval").
	if err := ec.checkpoint(0); err != nil {
		return nil, err
	}
	noteRows(len(rows))
	res, err := prog.tail.results(rows)
	if err != nil {
		return nil, err
	}
	// MaxRows bounds what leaves the engine: final bindings or
	// constructed triples, after projection/LIMIT.
	out := len(res.Bindings)
	if len(res.Graph) > out {
		out = len(res.Graph)
	}
	if err := budget.CheckRows(out); err != nil {
		return nil, err
	}
	return res, nil
}
