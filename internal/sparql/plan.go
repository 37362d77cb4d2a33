package sparql

import (
	"context"
	"sync"
	"sync/atomic"

	"applab/internal/admission"
	"applab/internal/rdf"
	"applab/internal/scatter"
)

// StatsSource is an optional extension of Source for backends that can
// estimate pattern cardinalities. The BGP planner uses it to reorder
// triple patterns most-selective-first and to size hash-join builds.
// rdf.Graph, segment.Engine, strabon.Store, obda.VirtualGraph and
// federation.Federation implement it; sources without statistics are
// evaluated in textual pattern order, exactly like the seed engine.
// A disk-backed strabon.Store answers from the per-term index footers
// of its segment files, so the planner gets statistics without the
// store materializing anything.
type StatsSource interface {
	Source
	// Cardinality estimates how many triples match the pattern (zero
	// terms are wildcards). Negative means unknown.
	Cardinality(s, p, o rdf.Term) int
}

// ---- parallel execution ----

// Parallel execution partitions intermediate solution sets of at least
// parallelThreshold rows across GOMAXPROCS workers. It is disabled for
// sources capabilities finds to be ErrorSources (remote endpoints, OBDA
// virtual graphs, federations, the cluster coordinator), so their scans
// stay sequential and error semantics and federation deadlines are
// untouched. Partition results are concatenated in partition order, so
// query results are identical for any worker count.
const parallelThreshold = 256

// forced replaces what the evaluator otherwise derives — the worker
// count, the parallel threshold and the planner's spatial-join strategy
// — so differential tests can drive every path (export_test.go). It is
// nil outside tests.
var forced atomic.Pointer[forcedEval]

type forcedEval struct {
	workers, threshold int
	spatial            string // one of the spatial* strategies
}

// ---- execution ----

// execCtx carries the per-evaluation runtime state.
type execCtx struct {
	refs      RefSource           // every scan, unless ex is set
	ex        BatchExchangeSource // non-nil for partitioned sources: every scan goes through the exchange operator
	spatial   SpatialSource       // nil when the source has no spatial index
	ctx       context.Context
	budget    *admission.Budget
	tally     *scatter.Tally // ctx's Tally: scanErr marks the evaluation partial on it
	limited   bool           // ctx can be cancelled or a budget is attached
	workers   int
	threshold int
}

// budgetCheckInterval is how many rows an operator loop may process
// between cancellation/budget checkpoints. Small enough that an
// over-budget or cancelled query stops within one interval, large
// enough that the per-row cost is one local increment (the budgeted
// row of TestBGPJoinBytesCeiling allows no per-row allocation).
const budgetCheckInterval = 64

// tick is the per-row checkpoint every operator loop calls (the
// applab-lint ctxcheck rule enforces it). It counts locally and, every
// budgetCheckInterval rows, charges the interval to the intermediate
// budget and polls cancellation. Free when the evaluation is unlimited.
func (ec *execCtx) tick(n *int) error {
	if !ec.limited {
		return nil
	}
	*n++
	if *n < budgetCheckInterval {
		return nil
	}
	rows := *n
	*n = 0
	return ec.checkpoint(rows)
}

// tickN charges k rows in one step — a probe's whole match bucket —
// so hot inner loops pay one checkpoint per bucket instead of one
// function call per element.
func (ec *execCtx) tickN(n *int, k int) error {
	if !ec.limited || k == 0 {
		return nil
	}
	*n += k
	if *n < budgetCheckInterval {
		return nil
	}
	rows := *n
	*n = 0
	return ec.checkpoint(rows)
}

// checkpoint charges rows intermediate rows and polls the budget and
// the context. A deadline expiry is reported as the structured budget
// error rather than the bare context error.
func (ec *execCtx) checkpoint(rows int) error {
	if !ec.limited {
		return nil
	}
	if rows > 0 {
		if err := ec.budget.AddIntermediate(rows); err != nil {
			return err
		}
	} else if err := ec.budget.Err(); err != nil {
		return err
	}
	if err := ec.ctx.Err(); err != nil {
		if berr := ec.budget.Err(); berr != nil {
			return berr
		}
		return err
	}
	return nil
}

// match issues one pattern scan: through the exchange operator over a
// partitioned source, else by AppendRefs into *buf, a buffer the caller
// reuses for its next scan. Rows point at the terms behind refs, never
// into the ref array. Only cancellation and budget violations abort the
// query; ordinary upstream errors read as empty answers (federation
// partial answers and the error-report machinery depend on that), are
// counted and mark the answer partial (scanErr).
func (ec *execCtx) match(buf *[]rdf.Ref, s, p, o rdf.Term) ([]rdf.Ref, error) {
	if ec.ex != nil {
		return ec.exchangeMatch(buf, s, p, o)
	}
	refs, err := ec.refs.AppendRefs(ec.ctx, (*buf)[:0], s, p, o)
	*buf = refs
	if err != nil {
		return nil, ec.scanErr("ref", err)
	}
	return refs, nil
}

// scanErr applies the engine's error rule to a failed scan: only
// cancellation and budget violations (admission.Aborted) abort, with
// the structured budget error preferred; anything else degrades to an
// empty answer, is counted in sparql_scan_errors_total{path} and marks
// the evaluation's Tally partial.
func (ec *execCtx) scanErr(path string, err error) error {
	if err == nil {
		return nil
	}
	if !admission.Aborted(err) {
		noteScanError(path)
		ec.tally.MarkPartial(err)
		return nil
	}
	if berr := ec.budget.Err(); berr != nil {
		return berr
	}
	return err
}

// op is one step of a compiled query plan.
type op interface {
	run(ec *execCtx, in []row) ([]row, error)
}

// runOps threads a solution set through a plan, short-circuiting on
// empty intermediates like the seed evaluator.
func runOps(ec *execCtx, ops []op, in []row) ([]row, error) {
	cur := in
	for _, o := range ops {
		if len(cur) == 0 {
			return nil, nil
		}
		var err error
		cur, err = o.run(ec, cur)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// serial reports whether a stage over n rows runs as one chunk.
func (ec *execCtx) serial(n int) bool {
	return ec.workers <= 1 || n < ec.threshold
}

// chunked applies fn to in, fanning out to the worker pool when the
// solution set is large enough. Chunk outputs are concatenated in
// partition order: the result is identical to fn(in) row-for-row.
// fn must not mutate its input rows (rows are shared across UNION
// branches and with the caller).
func chunked(ec *execCtx, in []row, fn func([]row) ([]row, error)) ([]row, error) {
	return chunkedRange(ec, len(in), func(lo, hi int) ([]row, error) { return fn(in[lo:hi]) })
}

// chunkedRange is chunked over an index range: fn gets [lo, hi)
// partitions of [0, n). On error the lowest-indexed failing chunk wins,
// and budgets record only their first violation, so an aborted stage
// reports the same error for any worker count.
func chunkedRange(ec *execCtx, n int, fn func(lo, hi int) ([]row, error)) ([]row, error) {
	if ec.serial(n) {
		return fn(0, n)
	}
	w := min(ec.workers, n)
	size := (n + w - 1) / w
	nchunks := (n + size - 1) / size
	done := noteParallelStage(nchunks)
	defer done()
	outs := make([][]row, nchunks)
	errs := make([]error, nchunks)
	var wg sync.WaitGroup
	for i := 0; i < nchunks; i++ {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			outs[i], errs[i] = fn(lo, hi)
		}(i, i*size, min((i+1)*size, n))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Post-barrier aggregation ticks like any operator loop: the chunk
	// workers polled per row, but a cancelled query should not pay for
	// the concat either.
	total := 0
	var agg int
	for _, o := range outs {
		if err := ec.tick(&agg); err != nil {
			return nil, err
		}
		total += len(o)
	}
	out := make([]row, 0, total)
	for _, o := range outs {
		if err := ec.tick(&agg); err != nil {
			return nil, err
		}
		out = append(out, o...)
	}
	return out, nil
}

// valuesOp joins the solution set with an inline VALUES table.
type valuesOp struct {
	slots []int
	rows  [][]rdf.Term
}

func (v *valuesOp) run(ec *execCtx, in []row) ([]row, error) {
	return chunked(ec, in, func(rows []row) ([]row, error) {
		var out []row
		var ar rowArena
		n := 0
		for _, r := range rows {
			if err := ec.tick(&n); err != nil {
				return nil, err
			}
			for _, vr := range v.rows {
				nr := r
				cloned := false
				ok := true
				for i, slot := range v.slots {
					val := &vr[i] // a constant of the parsed query, never mutated
					if val.IsZero() {
						continue // UNDEF joins with anything
					}
					if old := nr[slot]; old != nil {
						if !old.Equal(*val) {
							ok = false
							break
						}
						continue
					}
					if !cloned {
						nr = ar.clone(nr)
						cloned = true
					}
					nr[slot] = val
				}
				if ok {
					out = append(out, nr)
				}
			}
		}
		return out, nil
	})
}

// optionalOp is a left outer join against a sub-plan.
type optionalOp struct {
	body []op
}

func (o *optionalOp) run(ec *execCtx, in []row) ([]row, error) {
	return chunked(ec, in, func(rows []row) ([]row, error) {
		var out []row
		n := 0
		for _, r := range rows {
			if err := ec.tick(&n); err != nil {
				return nil, err
			}
			ext, err := runOps(ec, o.body, []row{r})
			if err != nil {
				return nil, err
			}
			if len(ext) == 0 {
				out = append(out, r)
			} else {
				out = append(out, ext...)
			}
		}
		return out, nil
	})
}

// unionOp concatenates the alternatives' extensions of the input set.
type unionOp struct {
	alts [][]op
}

func (u *unionOp) run(ec *execCtx, in []row) ([]row, error) {
	var out []row
	for _, alt := range u.alts {
		ext, err := runOps(ec, alt, in)
		if err != nil {
			return nil, err
		}
		out = append(out, ext...)
	}
	return out, nil
}

// existsOp keeps rows for which the sub-plan has (no) solutions.
type existsOp struct {
	body    []op
	negated bool
}

func (e *existsOp) run(ec *execCtx, in []row) ([]row, error) {
	return chunked(ec, in, func(rows []row) ([]row, error) {
		var out []row
		n := 0
		for _, r := range rows {
			if err := ec.tick(&n); err != nil {
				return nil, err
			}
			ext, err := runOps(ec, e.body, []row{r})
			if err != nil {
				return nil, err
			}
			if (len(ext) > 0) != e.negated {
				out = append(out, r)
			}
		}
		return out, nil
	})
}

// ---- compilation ----

// varState tracks what the compiler knows about a variable at a point in
// the plan: never bound yet, bound on some control-flow paths only, or
// bound in every surviving row.
type varState uint8

const (
	varUnseen varState = iota
	varMaybe
	varDef
)

// program is a compiled query: the WHERE clause's plan and the
// solution modifiers that turn its rows into Results.
type program struct {
	ops  []op
	vt   *varTable
	tail *tail
}

type compiler struct {
	vt       *varTable
	stats    StatsSource
	states   map[string]varState
	exchange bool // the source is partitioned: every scan starts a pipeline
}

// compileQuery lowers the WHERE clause onto a slot table and a plan.
// Compilation is per-evaluation: the planner consults the source's
// statistics as they are now.
func compileQuery(q *Query, src caps) *program {
	c := &compiler{vt: newVarTable(), states: map[string]varState{}, stats: src.stats, exchange: src.ex != nil}
	ops := c.compileGroup(q.Where)
	return &program{ops: ops, vt: c.vt, tail: c.compileTail(q)}
}

func (c *compiler) cloneStates() map[string]varState {
	out := make(map[string]varState, len(c.states))
	for k, v := range c.states {
		out[k] = v
	}
	return out
}

// weaken downgrades every variable newly touched since base to "maybe":
// used after OPTIONAL and EXISTS bodies whose bindings are conditional
// or discarded.
func (c *compiler) weaken(base map[string]varState) {
	for k, v := range c.states {
		if base[k] != varDef && v == varDef {
			c.states[k] = varMaybe
		}
	}
}

func (c *compiler) compileGroup(g *Group) []op {
	var b planBuilder
	els := g.Elements
	for i := 0; i < len(els); i++ {
		switch e := els[i].(type) {
		case BGP:
			// Coalesce adjacent BGP elements into one join unit: the
			// parser emits one BGP per triples block, but consecutive
			// blocks are a single join the planner may reorder.
			pats := append([]TriplePattern(nil), e.Patterns...)
			for i+1 < len(els) {
				nb, ok := els[i+1].(BGP)
				if !ok {
					break
				}
				pats = append(pats, nb.Patterns...)
				i++
			}
			// A spatial FILTER in the trailing filter run may lower the
			// whole unit to a spatial join instead of filter-after-cross.
			var filters []Element
			for j := i + 1; j < len(els); j++ {
				if _, ok := els[j].(Filter); !ok {
					break
				}
				filters = append(filters, els[j])
			}
			if c.compileSpatialUnit(&b, pats, filters) {
				i += len(filters)
				continue
			}
			c.compileBGP(&b, pats)
		case Filter:
			b.step(&filterOp{cond: compileExpr(e.Expr, c.vt)})
		case Optional:
			base := c.cloneStates()
			body := c.compileGroup(e.Group)
			c.weaken(base)
			b.add(&optionalOp{body: body})
		case Union:
			base := c.cloneStates()
			u := &unionOp{}
			branchStates := make([]map[string]varState, 0, len(e.Alternatives))
			for _, alt := range e.Alternatives {
				c.states = cloneStateMap(base)
				u.alts = append(u.alts, c.compileGroup(alt))
				branchStates = append(branchStates, c.states)
			}
			c.states = mergeUnionStates(base, branchStates)
			b.add(u)
		case SubGroup:
			// A nested group extends the same solution set in place;
			// inlining its plan is equivalent to the seed recursion.
			b.add(c.compileGroup(e.Group)...)
		case Exists:
			base := c.cloneStates()
			body := c.compileGroup(e.Group)
			c.states = base // EXISTS binds nothing
			b.add(&existsOp{body: body, negated: e.Negated})
		case Bind:
			bo := &bindOp{slot: c.vt.slot(e.Var)}
			if k, ok := e.Expr.(ConstExpr); ok {
				bo.konst = &k.Term
			} else {
				bo.expr = compileExpr(e.Expr, c.vt)
			}
			b.step(bo)
			// Errors leave the variable unbound, so it is only maybe-bound.
			if c.states[e.Var] == varUnseen {
				c.states[e.Var] = varMaybe
			}
		case Values:
			vo := &valuesOp{rows: e.Rows}
			for _, vn := range e.Vars {
				vo.slots = append(vo.slots, c.vt.slot(vn))
			}
			b.add(vo)
			for col, vn := range e.Vars {
				allBound := true
				for _, vr := range e.Rows {
					if vr[col].IsZero() {
						allBound = false
						break
					}
				}
				switch {
				case allBound && len(e.Rows) > 0:
					c.states[vn] = varDef
				case c.states[vn] == varUnseen:
					c.states[vn] = varMaybe
				}
			}
		}
	}
	return b.ops
}

func cloneStateMap(m map[string]varState) map[string]varState {
	out := make(map[string]varState, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// mergeUnionStates combines branch outcomes: a variable is definitely
// bound after a UNION only if every branch definitely binds it (or it
// was already); anything any branch touched is at least maybe-bound.
func mergeUnionStates(base map[string]varState, branches []map[string]varState) map[string]varState {
	out := cloneStateMap(base)
	seen := map[string]bool{}
	for _, br := range branches {
		for k := range br {
			seen[k] = true
		}
	}
	for k := range seen {
		if out[k] == varDef {
			continue
		}
		def := len(branches) > 0
		for _, br := range branches {
			if br[k] != varDef {
				def = false
				break
			}
		}
		if def {
			out[k] = varDef
		} else if out[k] == varUnseen {
			out[k] = varMaybe
		}
	}
	return out
}

// compileBGP plans a join unit (selectivity order) and lowers each
// pattern to a scan step of one new pipeline, which the FILTERs and
// BINDs after the unit join; over a partitioned source every scan
// starts a pipeline of its own.
func (c *compiler) compileBGP(b *planBuilder, pats []TriplePattern) {
	ordered := c.plan(pats)
	notePatternsPlanned(len(ordered))
	for i, tp := range ordered {
		if i == 0 || c.exchange {
			b.open = nil
		}
		b.step(c.newScanOp(tp))
		for _, v := range []string{tp.S.Var, tp.P.Var, tp.O.Var} {
			if v != "" {
				c.states[v] = varDef
			}
		}
	}
}

// plan orders a BGP's patterns by estimated selectivity, preferring
// patterns connected to already-bound variables (index-driven joins)
// over disconnected ones (hash/cross joins). Without statistics the
// textual order is kept — the seed engine's behaviour.
func (c *compiler) plan(pats []TriplePattern) []TriplePattern {
	if c.stats == nil || len(pats) < 2 {
		return pats
	}
	bound := map[string]bool{}
	for v, st := range c.states {
		if st != varUnseen {
			bound[v] = true
		}
	}
	remaining := make([]TriplePattern, len(pats))
	copy(remaining, pats)
	out := make([]TriplePattern, 0, len(pats))
	for len(remaining) > 0 {
		best := -1
		bestConnected := false
		bestEst := 0
		for i, tp := range remaining {
			connected := patternConnected(tp, bound)
			est := c.adjustedEstimate(tp, bound)
			if best == -1 ||
				(connected && !bestConnected) ||
				(connected == bestConnected && est < bestEst) {
				best, bestConnected, bestEst = i, connected, est
			}
		}
		tp := remaining[best]
		out = append(out, tp)
		remaining = append(remaining[:best], remaining[best+1:]...)
		for _, v := range []string{tp.S.Var, tp.P.Var, tp.O.Var} {
			if v != "" {
				bound[v] = true
			}
		}
	}
	return out
}

// patternConnected reports whether the pattern shares a variable with
// the bound set, or has no variables at all (pure existence check).
func patternConnected(tp TriplePattern, bound map[string]bool) bool {
	nvars := 0
	for _, v := range []string{tp.S.Var, tp.P.Var, tp.O.Var} {
		if v == "" {
			continue
		}
		nvars++
		if bound[v] {
			return true
		}
	}
	return nvars == 0
}

// unknownCardinality stands in for "no estimate" so unplanned patterns
// sort last deterministically.
const unknownCardinality = int(1) << 40

// adjustedEstimate is the constants-only cardinality estimate, damped
// for each variable position that will already be bound at runtime (a
// bound position turns the scan into an index probe).
func (c *compiler) adjustedEstimate(tp TriplePattern, bound map[string]bool) int {
	est := c.stats.Cardinality(constOrWildcard(tp.S), constOrWildcard(tp.P), constOrWildcard(tp.O))
	if est < 0 {
		return unknownCardinality
	}
	for _, v := range []string{tp.S.Var, tp.P.Var, tp.O.Var} {
		if v != "" && bound[v] {
			est /= 8
		}
	}
	return est
}

func constOrWildcard(pt PatternTerm) rdf.Term {
	if pt.IsVar() {
		return rdf.Term{}
	}
	return pt.Term
}
