package sparql

import (
	"fmt"
	"slices"
	"sort"

	"applab/internal/rdf"
)

// tail is the compiled remainder of a query after its WHERE clause:
// projection expressions, aggregates, GROUP BY, ORDER BY, DISTINCT,
// OFFSET/LIMIT and the CONSTRUCT template. Every variable is resolved to
// a slot at compile time (before any row exists, so rows are wide enough
// for projection aliases too) and every step runs on rows; the rows that
// leave the engine become one table of the same handles, no term copied.
type tail struct {
	q       *Query
	vt      *varTable
	vars    []string // Results.Vars
	slots   []int    // slot of each vars entry: the DISTINCT key
	out     []int    // slots that leave the engine, once each,
	outName []string // under these names: Results.Cols
	proj    []compiledProj
	hasExpr bool  // some projection computes a value per row
	grouped bool  // GROUP BY or an aggregate: rows collapse to groups
	group   []int // GROUP BY slots
	order   []compiledOrder
	tmpl    [][3]tmplPos
}

// compiledProj is one SELECT item: at most one of expr and agg is set;
// neither means a plain variable.
type compiledProj struct {
	slot int
	expr compiledExpr
	agg  *Aggregate
	arg  compiledExpr // the aggregate's argument; nil for COUNT(*)
}

type compiledOrder struct {
	expr compiledExpr
	desc bool
}

// tmplPos is a CONSTRUCT template position: a slot, or (slot < 0) a
// constant — a blank node constant is relabelled per solution.
type tmplPos struct {
	slot int
	term rdf.Term
}

func (c *compiler) compileTail(q *Query) *tail {
	t := &tail{q: q, vt: c.vt, grouped: len(q.GroupBy) > 0}
	lower := func(pt PatternTerm) tmplPos {
		if pt.IsVar() {
			return tmplPos{slot: c.vt.slot(pt.Var)}
		}
		return tmplPos{slot: -1, term: pt.Term}
	}
	for _, tp := range q.Template {
		t.tmpl = append(t.tmpl, [3]tmplPos{lower(tp.S), lower(tp.P), lower(tp.O)})
	}
	if q.Type != QuerySelect {
		return t
	}
	if len(q.Projection) == 0 {
		t.vars = q.Where.Vars()
	}
	for _, pr := range q.Projection {
		t.vars = append(t.vars, pr.Var)
		p := compiledProj{slot: c.vt.slot(pr.Var), agg: pr.Agg}
		switch {
		case pr.Agg != nil:
			t.grouped = true
			if pr.Agg.Arg != nil {
				p.arg = compileExpr(pr.Agg.Arg, c.vt)
			}
		case pr.Expr != nil:
			t.hasExpr = true
			p.expr = compileExpr(pr.Expr, c.vt)
		}
		t.proj = append(t.proj, p)
	}
	for _, v := range t.vars {
		t.slots = append(t.slots, c.vt.slot(v))
	}
	for _, v := range q.GroupBy {
		t.group = append(t.group, c.vt.slot(v))
	}
	for _, k := range q.OrderBy {
		t.order = append(t.order, compiledOrder{expr: compileExpr(k.Expr, c.vt), desc: k.Desc})
	}
	// The projected variables leave the engine, a repeated one once, or
	// under SELECT * every slot (BIND and VALUES variables included,
	// which Results.Vars does not list).
	names := t.vars
	if len(q.Projection) == 0 {
		names = c.vt.names
	}
	for _, v := range names {
		if !slices.Contains(t.outName, v) {
			t.out, t.outName = append(t.out, c.vt.slot(v)), append(t.outName, v)
		}
	}
	return t
}

// results turns the WHERE clause's rows into the query's Results.
func (t *tail) results(rows []row) (*Results, error) {
	switch t.q.Type {
	case QueryAsk:
		return &Results{Bool: len(rows) > 0}, nil
	case QueryConstruct:
		return t.construct(rows), nil
	}
	var ar rowArena
	switch {
	case t.grouped:
		var err error
		if rows, err = t.aggregate(rows, &ar); err != nil {
			return nil, err
		}
	case t.hasExpr:
		// Expression projections see the WHERE clause's row, not each
		// other; ORDER BY below may still read non-projected slots.
		for i, r := range rows {
			nr := ar.clone(r)
			for _, p := range t.proj {
				if p.expr != nil {
					if v, err := p.expr(r); err == nil {
						nr[p.slot] = ar.term(v)
					}
				}
			}
			rows[i] = nr
		}
	}
	if len(t.order) > 0 {
		t.sort(rows)
	}
	if t.q.Distinct {
		rows = t.distinct(rows)
	}
	if t.q.Offset > 0 {
		rows = rows[min(t.q.Offset, len(rows)):]
	}
	if t.q.Limit >= 0 && t.q.Limit < len(rows) {
		rows = rows[:t.q.Limit]
	}
	n := len(t.out)
	cells := make([]*rdf.Term, len(rows)*n) // one handle block per answer
	res := &Results{Vars: t.vars, Cols: t.outName, Bindings: make([]Row, len(rows))}
	for i, r := range rows {
		res.Bindings[i] = cells[i*n : (i+1)*n : (i+1)*n]
		for j, s := range t.out {
			res.Bindings[i][j] = r[s]
		}
	}
	return res, nil
}

// aggregate implements GROUP BY + aggregates: one output row per group,
// in first-seen order, carrying the grouping slots and the projection.
func (t *tail) aggregate(rows []row, ar *rowArena) ([]row, error) {
	index := map[string]int{}
	var groups [][]row
	var kb []byte
	for _, r := range rows {
		kb = kb[:0]
		for _, s := range t.group {
			kb = appendSolutionKey(kb, r[s])
		}
		gi, ok := index[string(kb)]
		if !ok {
			gi = len(groups)
			index[string(kb)] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], r)
	}
	if len(groups) == 0 && len(t.group) == 0 {
		// Aggregates over an empty solution set yield a single group.
		groups = [][]row{nil}
	}
	blank := make(row, t.vt.size())
	out := make([]row, 0, len(groups))
	for _, g := range groups {
		nr := ar.clone(blank)
		if len(g) > 0 {
			for _, s := range t.group {
				nr[s] = g[0][s]
			}
		}
		for _, p := range t.proj {
			switch {
			case p.agg != nil:
				var vals []rdf.Term
				if p.arg != nil {
					vals = make([]rdf.Term, 0, len(g))
					for _, r := range g {
						// Rows where the argument errors are skipped.
						if v, err := p.arg(r); err == nil {
							vals = append(vals, v)
						}
					}
				}
				v, err := foldAggregate(p.agg, vals, len(g))
				if err != nil {
					return nil, err
				}
				nr[p.slot] = ar.term(v)
			case len(g) == 0:
			case p.expr != nil:
				if v, err := p.expr(g[0]); err == nil {
					nr[p.slot] = ar.term(v)
				}
			case g[0][p.slot] != nil:
				// A plain variable: its grouping value, else the group's
				// first row's.
				nr[p.slot] = g[0][p.slot]
			}
		}
		out = append(out, nr)
	}
	return out, nil
}

// foldAggregate finishes an aggregate over its evaluated argument values;
// n is the group's row count, which is all COUNT(*) needs. Shared with
// the seed evaluator, so both agree on aggregate semantics by
// construction.
func foldAggregate(agg *Aggregate, vals []rdf.Term, n int) (rdf.Term, error) {
	if agg.Arg == nil { // COUNT(*): the parser admits * nowhere else
		if agg.Distinct && n > 1 {
			n = 1
		}
		return rdf.NewInteger(int64(n)), nil
	}
	if agg.Distinct {
		seen := make(map[string]struct{}, len(vals))
		dd := vals[:0]
		for _, v := range vals {
			k := v.Key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				dd = append(dd, v)
			}
		}
		vals = dd
	}
	switch agg.Func {
	case "COUNT":
		return rdf.NewInteger(int64(len(vals))), nil
	case "SUM", "AVG":
		sum := 0.0
		n := 0
		for _, v := range vals {
			if f, ok := v.Float(); ok {
				sum += f
				n++
			}
		}
		if agg.Func == "SUM" {
			return rdf.NewDouble(sum), nil
		}
		if n == 0 {
			return rdf.Term{}, fmt.Errorf("sparql: AVG over empty group")
		}
		return rdf.NewDouble(sum / float64(n)), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return rdf.Term{}, fmt.Errorf("sparql: %s over empty group", agg.Func)
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := compareTerms(v, best)
			if err != nil {
				continue
			}
			if (agg.Func == "MIN" && c < 0) || (agg.Func == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown aggregate %q", agg.Func)
}

// sort orders rows by the ORDER BY keys, stably; a key that errors
// (unbound) sorts first ascending, and terms compareTerms cannot order
// fall back to term-key order. Each key is evaluated once per row, up
// front, and the rows are sorted through a permutation so the
// comparator only reads the evaluated keys.
func (t *tail) sort(rows []row) {
	nk := len(t.order)
	keys := make([]rdf.Term, len(rows)*nk) // row i's keys are keys[i*nk:(i+1)*nk]
	failed := make([]bool, len(keys))      // the key's evaluation errored
	for i, r := range rows {
		for j, k := range t.order {
			v, err := k.expr(r)
			keys[i*nk+j], failed[i*nk+j] = v, err != nil
		}
	}
	perm := make([]int, len(rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ka, kb := perm[a]*nk, perm[b]*nk
		for j, k := range t.order {
			var c int
			switch ea, eb := failed[ka+j], failed[kb+j]; {
			case ea && eb:
			case ea:
				c = -1
			case eb:
				c = 1
			default:
				var err error
				if c, err = compareTerms(keys[ka+j], keys[kb+j]); err != nil {
					c = keys[ka+j].Compare(keys[kb+j])
				}
			}
			if c != 0 {
				return (c < 0) != k.desc
			}
		}
		return false
	})
	sorted := make([]row, len(rows))
	for i, p := range perm {
		sorted[i] = rows[p]
	}
	copy(rows, sorted)
}

// distinct keeps the first row of each distinct projection, in place.
func (t *tail) distinct(rows []row) []row {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0]
	var kb []byte
	for _, r := range rows {
		kb = kb[:0]
		for _, s := range t.slots {
			kb = appendSolutionKey(kb, r[s])
		}
		if _, dup := seen[string(kb)]; !dup {
			seen[string(kb)] = struct{}{}
			out = append(out, r)
		}
	}
	return out
}

// construct instantiates the template once per solution; a solution that
// leaves a template variable unbound contributes nothing.
func (t *tail) construct(rows []row) *Results {
	g := rdf.NewGraph()
	ts := make([]rdf.Triple, 0, len(t.tmpl))
	for i, r := range rows {
		ts = ts[:0]
		for _, tp := range t.tmpl {
			s, okS := tp[0].resolve(r, i+1)
			p, okP := tp[1].resolve(r, i+1)
			o, okO := tp[2].resolve(r, i+1)
			if !okS || !okP || !okO {
				ts = ts[:0]
				break
			}
			ts = append(ts, rdf.NewTriple(s, p, o))
		}
		g.AddAll(ts)
	}
	return &Results{Graph: g.Triples()}
}

func (tp tmplPos) resolve(r row, seq int) (rdf.Term, bool) {
	switch {
	case tp.slot >= 0:
		if h := r[tp.slot]; h != nil {
			return *h, true
		}
		return rdf.Term{}, false
	case tp.term.IsBlank():
		// Blank nodes in templates are scoped per solution.
		return rdf.NewBlank(fmt.Sprintf("%s_%d", tp.term.Value, seq)), true
	}
	return tp.term, true
}
