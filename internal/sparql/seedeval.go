package sparql

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"applab/internal/rdf"
)

// This file keeps the original binding-at-a-time map evaluator, solution
// modifiers included. The compiled slot engine (plan.go, join.go,
// slots.go, modifiers.go) replaced it behind Eval; the seed path stays as
// the differential-testing oracle (see engine_equiv_test.go) and as the
// baseline of the BenchmarkEngine_*Seed benchmarks. The two share only leaf semantics (applyBinary,
// applyCall, compareTerms, foldAggregate).

// EvalSeed parses and evaluates a query with the original map-based
// evaluator: no plan reordering, no hash joins, no parallelism.
func EvalSeed(src Source, query string) (*Results, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return q.EvalSeed(src)
}

// EvalSeed evaluates the query with the original map-based evaluator.
func (q *Query) EvalSeed(src Source) (*Results, error) {
	sols := seedEvalGroup(src, q.Where, []Binding{{}})
	switch q.Type {
	case QueryAsk:
		return &Results{Bool: len(sols) > 0}, nil
	case QueryConstruct:
		return q.construct(sols)
	}
	return q.project(sols)
}

// seedEvalGroup evaluates a group graph pattern, extending each input binding.
func seedEvalGroup(src Source, g *Group, input []Binding) []Binding {
	cur := input
	for _, el := range g.Elements {
		switch e := el.(type) {
		case BGP:
			for _, tp := range e.Patterns {
				cur = seedEvalPattern(src, tp, cur)
				if len(cur) == 0 {
					return nil
				}
			}
		case Filter:
			var out []Binding
			for _, b := range cur {
				if v, err := ebv(e.Expr, b); err == nil && v {
					out = append(out, b)
				}
			}
			cur = out
		case Optional:
			var out []Binding
			for _, b := range cur {
				ext := seedEvalGroup(src, e.Group, []Binding{b})
				if len(ext) == 0 {
					out = append(out, b)
				} else {
					out = append(out, ext...)
				}
			}
			cur = out
		case Union:
			var out []Binding
			for _, alt := range e.Alternatives {
				out = append(out, seedEvalGroup(src, alt, cur)...)
			}
			cur = out
		case SubGroup:
			cur = seedEvalGroup(src, e.Group, cur)
		case Exists:
			var out []Binding
			for _, b := range cur {
				matched := len(seedEvalGroup(src, e.Group, []Binding{b})) > 0
				if matched != e.Negated {
					out = append(out, b)
				}
			}
			cur = out
		case Bind:
			var out []Binding
			for _, b := range cur {
				if v, err := e.Expr.Eval(b); err == nil {
					if old, exists := b[e.Var]; exists {
						// Re-binding must agree (join semantics).
						if !old.Equal(v) {
							continue
						}
						out = append(out, b)
						continue
					}
					nb := b.clone()
					nb[e.Var] = v
					out = append(out, nb)
				} else {
					out = append(out, b) // expression error leaves var unbound
				}
			}
			cur = out
		case Values:
			var out []Binding
			for _, b := range cur {
				for _, row := range e.Rows {
					nb := b
					cloned := false
					ok := true
					for i, vn := range e.Vars {
						val := row[i]
						if old, exists := nb[vn]; exists {
							if !old.Equal(val) {
								ok = false
								break
							}
							continue
						}
						if !cloned {
							nb = nb.clone()
							cloned = true
						}
						nb[vn] = val
					}
					if ok {
						out = append(out, nb)
					}
				}
			}
			cur = out
		}
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// seedEvalPattern extends every binding with matches of a triple pattern.
func seedEvalPattern(src Source, tp TriplePattern, input []Binding) []Binding {
	var out []Binding
	for _, b := range input {
		s := seedResolvePos(tp.S, b)
		p := seedResolvePos(tp.P, b)
		o := seedResolvePos(tp.O, b)
		for _, t := range src.Match(s, p, o) {
			nb := b
			cloned := false
			bindVar := func(name string, val rdf.Term) bool {
				if name == "" {
					return true
				}
				if old, ok := nb[name]; ok {
					return old.Equal(val)
				}
				if !cloned {
					nb = nb.clone()
					cloned = true
				}
				nb[name] = val
				return true
			}
			if !bindVar(tp.S.Var, t.S) || !bindVar(tp.P.Var, t.P) || !bindVar(tp.O.Var, t.O) {
				continue
			}
			out = append(out, nb)
		}
	}
	return out
}

// seedResolvePos returns the constant to match at a pattern position: the
// bound value of a variable, the constant term, or the zero-term wildcard.
func seedResolvePos(pt PatternTerm, b Binding) rdf.Term {
	if pt.IsVar() {
		if t, ok := b[pt.Var]; ok {
			return t
		}
		return rdf.Term{}
	}
	return pt.Term
}

func (q *Query) construct(sols []Binding) (*Results, error) {
	g := rdf.NewGraph()
	bseq := 0
	for _, b := range sols {
		bseq++
		ok := true
		var ts []rdf.Triple
		for _, tp := range q.Template {
			s, okS := resolveTemplate(tp.S, b, bseq)
			p, okP := resolveTemplate(tp.P, b, bseq)
			o, okO := resolveTemplate(tp.O, b, bseq)
			if !okS || !okP || !okO {
				ok = false
				break
			}
			ts = append(ts, rdf.NewTriple(s, p, o))
		}
		if ok {
			g.AddAll(ts)
		}
	}
	return &Results{Graph: g.Triples()}, nil
}

func resolveTemplate(pt PatternTerm, b Binding, seq int) (rdf.Term, bool) {
	if pt.IsVar() {
		t, ok := b[pt.Var]
		return t, ok
	}
	if pt.Term.IsBlank() {
		// Blank nodes in templates are scoped per solution.
		return rdf.NewBlank(fmt.Sprintf("%s_%d", pt.Term.Value, seq)), true
	}
	return pt.Term, true
}

func (q *Query) project(sols []Binding) (*Results, error) {
	res := &Results{}
	// Determine projected variables.
	if len(q.Projection) == 0 {
		res.Vars = q.Where.Vars()
	} else {
		for _, pr := range q.Projection {
			res.Vars = append(res.Vars, pr.Var)
		}
	}

	hasAgg := false
	for _, pr := range q.Projection {
		if pr.Agg != nil {
			hasAgg = true
		}
	}
	if hasAgg || len(q.GroupBy) > 0 {
		var err error
		sols, err = q.aggregate(sols)
		if err != nil {
			return nil, err
		}
	} else if len(q.Projection) > 0 {
		// Evaluate expression projections into the binding (ORDER BY may
		// still reference non-projected variables, so keep the originals
		// until after sorting).
		out := make([]Binding, 0, len(sols))
		for _, b := range sols {
			nb := b
			for _, pr := range q.Projection {
				if pr.Expr != nil {
					if v, err := pr.Expr.Eval(b); err == nil {
						nb = nb.clone()
						nb[pr.Var] = v
					}
				}
			}
			out = append(out, nb)
		}
		sols = out
	}

	if len(q.OrderBy) > 0 {
		sortSolutions(sols, q.OrderBy)
	}
	if q.Distinct {
		sols = distinct(sols, res.Vars)
	}
	// OFFSET / LIMIT
	if q.Offset > 0 {
		if q.Offset >= len(sols) {
			sols = nil
		} else {
			sols = sols[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(sols) {
		sols = sols[:q.Limit]
	}
	// The table's columns: the projection, a repeated variable once, or
	// under SELECT * every variable a solution can bind.
	if len(q.Projection) == 0 {
		res.Cols = q.Where.vars(true)
	}
	for _, v := range res.Vars {
		if !slices.Contains(res.Cols, v) {
			res.Cols = append(res.Cols, v)
		}
	}
	res.Bindings = Table(res.Cols, sols)
	return res, nil
}

// aggregate implements GROUP BY + aggregates over the solution set.
func (q *Query) aggregate(sols []Binding) ([]Binding, error) {
	type groupState struct {
		key  Binding
		rows []Binding
	}
	groups := map[string]*groupState{}
	var order []string
	for _, b := range sols {
		var sb strings.Builder
		key := Binding{}
		for _, v := range q.GroupBy {
			t, ok := b[v]
			if ok {
				key[v] = t
			}
			seedSolutionKey(&sb, t, ok)
		}
		k := sb.String()
		g, ok := groups[k]
		if !ok {
			g = &groupState{key: key}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, b)
	}
	if len(groups) == 0 && len(q.GroupBy) == 0 {
		// Aggregates over an empty solution set yield a single group.
		groups[""] = &groupState{key: Binding{}}
		order = append(order, "")
	}
	var out []Binding
	for _, k := range order {
		g := groups[k]
		row := Binding{}
		for v, t := range g.key {
			row[v] = t
		}
		for _, pr := range q.Projection {
			switch {
			case pr.Agg != nil:
				v, err := evalAggregate(pr.Agg, g.rows)
				if err != nil {
					return nil, err
				}
				row[pr.Var] = v
			case pr.Expr != nil:
				if len(g.rows) > 0 {
					if v, err := pr.Expr.Eval(g.rows[0]); err == nil {
						row[pr.Var] = v
					}
				}
			default:
				// Plain variable must be a grouping variable.
				if t, ok := g.key[pr.Var]; ok {
					row[pr.Var] = t
				} else if len(g.rows) > 0 {
					if t, ok := g.rows[0][pr.Var]; ok {
						row[pr.Var] = t
					}
				}
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// evalAggregate gathers an aggregate's argument over a group's bindings
// (rows where it errors are skipped per SPARQL semantics) and folds it.
func evalAggregate(agg *Aggregate, rows []Binding) (rdf.Term, error) {
	var vals []rdf.Term
	if agg.Arg != nil {
		for _, b := range rows {
			if v, err := agg.Arg.Eval(b); err == nil {
				vals = append(vals, v)
			}
		}
	}
	return foldAggregate(agg, vals, len(rows))
}

func sortSolutions(sols []Binding, keys []OrderKey) {
	sort.SliceStable(sols, func(i, j int) bool {
		for _, k := range keys {
			vi, ei := k.Expr.Eval(sols[i])
			vj, ej := k.Expr.Eval(sols[j])
			if ei != nil && ej != nil {
				continue
			}
			if ei != nil {
				return !k.Desc // unbound sorts first ascending
			}
			if ej != nil {
				return k.Desc
			}
			c, err := compareTerms(vi, vj)
			if err != nil {
				c = strings.Compare(vi.Key(), vj.Key())
			}
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

func distinct(sols []Binding, vars []string) []Binding {
	seen := map[string]bool{}
	var out []Binding
	for _, b := range sols {
		var sb strings.Builder
		for _, v := range vars {
			t, ok := b[v]
			seedSolutionKey(&sb, t, ok)
		}
		k := sb.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, b)
		}
	}
	return out
}

// seedSolutionKey writes one solution position into a composite group
// key. Bound positions are length-prefixed so no literal content — '|',
// digits, NULs — can make two different solutions collide; unbound
// positions write a marker that no length-prefixed entry can produce.
func seedSolutionKey(sb *strings.Builder, t rdf.Term, bound bool) {
	if !bound {
		sb.WriteString("u;")
		return
	}
	k := t.Key()
	sb.WriteString(strconv.Itoa(len(k)))
	sb.WriteByte(':')
	sb.WriteString(k)
}
