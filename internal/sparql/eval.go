package sparql

import (
	"context"
	"runtime"
	"slices"

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
	// same holds for MatchErr, MatchContext and FragmentMatch. Refs live
	// by rules of their own (see RefSource and BatchExchangeSource).
	Match(s, p, o rdf.Term) []rdf.Triple
}

// RefSource is an optional extension of Source for backends that answer
// a scan by reference: rdf.Graph, segment.Engine, strabon.Store and
// obda.VirtualGraph hand out handles into their own term tables instead
// of materialized triples. AppendRefs is the engine's one scan read
// outside the exchange: a source without it is read through an adapter
// over its strongest triple read (MatchContext).
//
// Two rules make the engine's buffer reuse safe. The slice is the
// caller's: the source appends to dst and keeps nothing of it, so the
// engine refills one buffer per pipeline step. The terms behind the
// refs belong to the source, which never mutates them, and they stay
// valid for as long as any row holds a handle to them — across the
// source's own writes, flushes, compactions and view rebuilds. Rows
// point at those terms, never into the ref array.
type RefSource interface {
	Source
	// AppendRefs appends the pattern's matches to dst by reference, in
	// Match's order, and returns the extended slice (dst as it was on
	// error). Only admission.Aborted errors abort the query; any other
	// reads as an empty answer and is counted.
	AppendRefs(ctx context.Context, dst []rdf.Ref, s, p, o rdf.Term) ([]rdf.Ref, error)
}

// ErrorSource is an optional extension of Source for backends whose
// Match can fail (remote endpoints, OBDA virtual graphs over live
// OPeNDAP calls). Match's signature has no error channel, so plain
// sources swallow failures into empty results; MatchErr surfaces them,
// and the engine reads it when the source has neither AppendRefs nor
// MatchContext.
type ErrorSource interface {
	Source
	// MatchErr is Match with the upstream error surfaced.
	MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error)
}

// ContextSource is an optional extension of Source for backends that
// honor cancellation and query budgets mid-scan (remote endpoints,
// federations, OBDA virtual graphs). The engine reads every scan of a
// source without AppendRefs through MatchContext, under the
// evaluation's context whether or not it carries a deadline or budget.
type ContextSource interface {
	Source
	// MatchContext is Match under a context, with the upstream error
	// surfaced.
	MatchContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, error)
}

// MatchContext reads the pattern from src through the strongest triple
// read it has: MatchContext under ctx, else MatchErr, else Match. The
// engine reads a source without AppendRefs this way, and so do wrappers
// of a Source (federations, fault injectors).
func MatchContext(ctx context.Context, src Source, s, p, o rdf.Term) ([]rdf.Triple, error) {
	return capabilities(src).triples.match(ctx, s, p, o)
}

// caps is a source as capabilities found it: one scan read, one
// exchange read, and the planner's optional helpers.
type caps struct {
	triples tripleRefs
	refs    RefSource           // every scan outside the exchange: the source, or triples
	ex      BatchExchangeSource // every scan of a partitioned source, else nil: the source, or fragmentBatch
	stats   StatsSource         // nil without statistics
	spatial SpatialSource       // nil without a spatial index
}

// capabilities reads what src can do. It is the one place the engine
// type-asserts a Source (ci.sh holds it to that).
func capabilities(src Source) caps {
	c := caps{triples: tripleRefs{Source: src}}
	c.triples.cs, _ = src.(ContextSource)
	c.triples.es, _ = src.(ErrorSource)
	c.stats, _ = src.(StatsSource)
	c.spatial, _ = src.(SpatialSource)
	if ex, ok := src.(ExchangeSource); ok {
		if c.ex, ok = src.(BatchExchangeSource); !ok {
			c.ex = fragmentBatch{ex}
		}
	} else if c.refs, ok = src.(RefSource); !ok {
		c.refs = c.triples
	}
	return c
}

// tripleRefs is the RefSource adapter of a source that answers with
// triples, read through its strongest triple read. Rows point into the
// triple slice, which the Source contract makes the caller's.
type tripleRefs struct {
	Source
	cs ContextSource // nil unless the source has MatchContext
	es ErrorSource   // nil unless the source has MatchErr
}

func (t tripleRefs) match(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, error) {
	switch {
	case t.cs != nil:
		return t.cs.MatchContext(ctx, s, p, o)
	case t.es != nil:
		return t.es.MatchErr(s, p, o)
	}
	return t.Match(s, p, o), nil
}

func (t tripleRefs) AppendRefs(ctx context.Context, dst []rdf.Ref, s, p, o rdf.Term) ([]rdf.Ref, error) {
	ts, err := t.match(ctx, s, p, o)
	if err != nil {
		return dst, err
	}
	return appendTripleRefs(dst, ts), nil
}

// appendTripleRefs appends a handle to each triple of ts to dst.
func appendTripleRefs(dst []rdf.Ref, ts []rdf.Triple) []rdf.Ref {
	dst = slices.Grow(dst, len(ts))
	for i := range ts {
		dst = append(dst, (&ts[i]).Ref())
	}
	return dst
}

// Results is the outcome of query evaluation.
type Results struct {
	// Vars is the projection in order.
	Vars []string
	// Cols names the cells of every row: the projection without
	// repeats, or under SELECT * every variable of the query.
	Cols []string
	// Bindings holds one row per solution.
	Bindings []Row
	// Bool is the ASK answer.
	Bool bool
	// Graph holds CONSTRUCT output triples.
	Graph []rdf.Triple
}

// Row is one solution: a handle per Results.Cols entry, nil = unbound.
// A handle points at the term where the engine found it (see row), so
// a Row is read-only and lives as long as what it points into.
type Row []*rdf.Term

// Binding returns row i as a map from column name to term.
func (r *Results) Binding(i int) Binding {
	b := make(Binding, len(r.Cols))
	for j, h := range r.Bindings[i] {
		if h != nil {
			b[r.Cols[j]] = *h
		}
	}
	return b
}

// Table lays map rows out as rows over cols: a column a map does not
// bind is an unbound cell, and a binding outside cols is dropped.
func Table(cols []string, rows []Binding) []Row {
	out := make([]Row, len(rows))
	for i, b := range rows {
		out[i] = make(Row, len(cols))
		for j, v := range cols {
			if t, ok := b[v]; ok {
				out[i][j] = &t
			}
		}
	}
	return out
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
// rows, pattern scans of a triple source go through MatchContext under
// ctx, and an over-budget query returns the structured *admission.BudgetError
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
	c := capabilities(src)
	if c.triples.es != nil {
		// Remote-backed sources keep sequential, single-flight scans:
		// error reporting and federation deadlines depend on it.
		workers = 1
	}
	budget := admission.FromContext(ctx)
	ec := &execCtx{
		refs: c.refs, ex: c.ex, spatial: c.spatial, ctx: ctx, budget: budget,
		limited: budget != nil || ctx.Done() != nil,
		workers: workers, threshold: threshold,
	}
	prog := compileQuery(q, c)
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
