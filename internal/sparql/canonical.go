package sparql

import (
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// CanonicalPlan is the cache identity of a parsed query: a key that is
// invariant under the rewrites the engine itself treats as meaningless —
// variable renaming, triple-pattern order inside one join unit, splitting
// a join unit across adjacent BGP blocks, whitespace (free via the AST),
// and constant-foldable expressions — while never assigning the same key
// to two queries the engine could answer differently. VarMap records how
// the query's variable names map onto the canonical slot names, so a
// result cached under one spelling can be served, re-labelled, to an
// isomorphic query that spells its variables differently.
type CanonicalPlan struct {
	Key    string
	VarMap map[string]string // original name -> canonical slot name ("c0", ...)
}

// PlanKey canonicalizes the query. The key is built in three steps:
// constant folding (const-only arithmetic/comparison subtrees collapse
// through the evaluator's own applyBinary/applyNeg, so folding is
// semantics-preserving by construction), slot normalization (variables
// are renamed to dense slots assigned by a canonical walk, so parser-
// chosen names never reach the key), and join-unit pattern ordering
// (triple patterns are sorted inside each coalesced adjacent-BGP run —
// exactly the unit the planner is free to reorder; filters and other
// elements keep their positions, because this engine applies them
// positionally). Pattern order and slot assignment depend on each other,
// so the order is fixed point-wise: a WL-style color refinement over the
// variable co-occurrence structure seeds the order, then number-render-
// resort iterations run until stable. Every rendered fragment is
// length-prefixed, so distinct structures can never collide.
func (q *Query) PlanKey() CanonicalPlan {
	c := &canonicalizer{query: q}
	c.build()
	c.orderUnits()
	key := c.render()
	vm := make(map[string]string, len(c.slots))
	for name, slot := range c.slots {
		vm[name] = "c" + strconv.Itoa(slot)
	}
	return CanonicalPlan{Key: key, VarMap: vm}
}

// cElem mirrors one group element after normalization: adjacent BGPs are
// coalesced into a single sortable unit, expressions are constant-folded.
type cElem struct {
	kind    byte // 'u' unit, 'f' filter, 'o' optional, 'n' union, 's' subgroup, 'e' exists, 'b' bind, 'v' values
	unit    []TriplePattern
	expr    Expr
	group   *cGroup
	groups  []*cGroup
	negated bool
	bindVar string
	values  Values
}

type cGroup struct {
	elems []*cElem
}

type canonicalizer struct {
	query *Query
	where *cGroup
	proj  []Projection // with folded exprs
	order []OrderKey   // with folded exprs

	colors map[string]uint64
	slots  map[string]int
	nextID int
}

func (c *canonicalizer) build() {
	c.where = c.buildGroup(c.query.Where)
	for _, pr := range c.query.Projection {
		np := pr
		if np.Expr != nil {
			np.Expr = foldExpr(np.Expr)
		}
		if np.Agg != nil {
			agg := *np.Agg
			if agg.Arg != nil {
				agg.Arg = foldExpr(agg.Arg)
			}
			np.Agg = &agg
		}
		c.proj = append(c.proj, np)
	}
	for _, ok := range c.query.OrderBy {
		c.order = append(c.order, OrderKey{Expr: foldExpr(ok.Expr), Desc: ok.Desc})
	}
	c.colorVariables()
}

func (c *canonicalizer) buildGroup(g *Group) *cGroup {
	out := &cGroup{}
	if g == nil {
		return out
	}
	els := g.Elements
	for i := 0; i < len(els); i++ {
		switch e := els[i].(type) {
		case BGP:
			// Mirror the compiler's join-unit coalescing (compileGroup):
			// consecutive BGP blocks form one unit the planner may reorder,
			// so pattern order inside the run must not reach the key.
			pats := append([]TriplePattern(nil), e.Patterns...)
			for i+1 < len(els) {
				nb, ok := els[i+1].(BGP)
				if !ok {
					break
				}
				pats = append(pats, nb.Patterns...)
				i++
			}
			out.elems = append(out.elems, &cElem{kind: 'u', unit: pats})
		case Filter:
			out.elems = append(out.elems, &cElem{kind: 'f', expr: foldExpr(e.Expr)})
		case Optional:
			out.elems = append(out.elems, &cElem{kind: 'o', group: c.buildGroup(e.Group)})
		case Union:
			ce := &cElem{kind: 'n'}
			for _, alt := range e.Alternatives {
				ce.groups = append(ce.groups, c.buildGroup(alt))
			}
			out.elems = append(out.elems, ce)
		case SubGroup:
			out.elems = append(out.elems, &cElem{kind: 's', group: c.buildGroup(e.Group)})
		case Exists:
			out.elems = append(out.elems, &cElem{kind: 'e', group: c.buildGroup(e.Group), negated: e.Negated})
		case Bind:
			out.elems = append(out.elems, &cElem{kind: 'b', bindVar: e.Var, expr: foldExpr(e.Expr)})
		case Values:
			out.elems = append(out.elems, &cElem{kind: 'v', values: e})
		}
	}
	return out
}

// foldExpr collapses constant-only arithmetic/comparison/logical subtrees
// through the evaluator itself (BinaryExpr.Eval needs no binding when the
// leaves are constants), so the fold cannot diverge from runtime
// semantics. Function calls are left alone: folding one would put WKT
// parsing or regexp compilation on the key path of every lookup.
func foldExpr(e Expr) Expr {
	switch x := e.(type) {
	case BinaryExpr:
		l, r := foldExpr(x.L), foldExpr(x.R)
		f := BinaryExpr{Op: x.Op, L: l, R: r}
		if isConstExpr(l) && isConstExpr(r) {
			if v, err := f.Eval(Binding{}); err == nil {
				return ConstExpr{Term: v}
			}
		}
		return f
	case UnaryExpr:
		sub := foldExpr(x.X)
		f := UnaryExpr{Op: x.Op, X: sub}
		if isConstExpr(sub) {
			if v, err := f.Eval(Binding{}); err == nil {
				return ConstExpr{Term: v}
			}
		}
		return f
	case CallExpr:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = foldExpr(a)
		}
		return CallExpr{IRI: x.IRI, Args: args}
	default:
		return e
	}
}

func isConstExpr(e Expr) bool {
	_, ok := e.(ConstExpr)
	return ok
}

// ---- variable coloring (WL refinement) ----

// colorVariables assigns each variable an initial color from the multiset
// of structural contexts it appears in, then refines a few rounds over
// the pattern co-occurrence graph so symmetric-looking variables in
// different join roles separate. Colors only seed the unit ordering — a
// color collision can cost a cache hit, never a wrong one.
func (c *canonicalizer) colorVariables() {
	sigs := map[string][]string{}
	addSig := func(v, sig string) {
		if v != "" {
			sigs[v] = append(sigs[v], sig)
		}
	}
	var exprSig func(e Expr, path string)
	exprSig = func(e Expr, path string) {
		switch x := e.(type) {
		case VarExpr:
			addSig(x.Name, "x:"+path)
		case BinaryExpr:
			exprSig(x.L, path+"l")
			exprSig(x.R, path+"r")
		case UnaryExpr:
			exprSig(x.X, path+"u")
		case CallExpr:
			for i, a := range x.Args {
				exprSig(a, path+"a"+strconv.Itoa(i))
			}
		}
	}
	var groupSig func(g *cGroup, path string)
	groupSig = func(g *cGroup, path string) {
		for i, el := range g.elems {
			p := path + "." + strconv.Itoa(i)
			switch el.kind {
			case 'u':
				for _, tp := range el.unit {
					sk := patternSkeleton(tp)
					addSig(tp.S.Var, "p:"+p+":S:"+sk)
					addSig(tp.P.Var, "p:"+p+":P:"+sk)
					addSig(tp.O.Var, "p:"+p+":O:"+sk)
				}
			case 'f':
				exprSig(el.expr, p+":")
			case 'o', 's':
				groupSig(el.group, p)
			case 'e':
				groupSig(el.group, p+":e")
			case 'n':
				for j, alt := range el.groups {
					groupSig(alt, p+":n"+strconv.Itoa(j))
				}
			case 'b':
				addSig(el.bindVar, "b:"+p)
				exprSig(el.expr, p+":")
			case 'v':
				for col, vn := range el.values.Vars {
					addSig(vn, "v:"+p+":"+strconv.Itoa(col))
				}
			}
		}
	}
	groupSig(c.where, "w")
	for i, pr := range c.proj {
		addSig(pr.Var, "P:"+strconv.Itoa(i))
		if pr.Expr != nil {
			exprSig(pr.Expr, "P"+strconv.Itoa(i)+":")
		}
		if pr.Agg != nil && pr.Agg.Arg != nil {
			exprSig(pr.Agg.Arg, "A"+strconv.Itoa(i)+":")
		}
	}
	for _, gv := range c.query.GroupBy {
		addSig(gv, "G")
	}
	for i, ok := range c.order {
		exprSig(ok.Expr, "O"+strconv.Itoa(i)+":")
	}
	for i, tp := range c.query.Template {
		addSig(tp.S.Var, "T:"+strconv.Itoa(i)+":S")
		addSig(tp.P.Var, "T:"+strconv.Itoa(i)+":P")
		addSig(tp.O.Var, "T:"+strconv.Itoa(i)+":O")
	}

	c.colors = map[string]uint64{}
	for v, ss := range sigs {
		sort.Strings(ss)
		c.colors[v] = hash64(strings.Join(ss, "\x1f"))
	}

	// Refine over pattern co-occurrence: a variable's new color folds in
	// the colors of the variables it shares patterns with, by role.
	var collectUnits func(g *cGroup, out *[][]TriplePattern)
	collectUnits = func(g *cGroup, out *[][]TriplePattern) {
		for _, el := range g.elems {
			switch el.kind {
			case 'u':
				*out = append(*out, el.unit)
			case 'o', 's', 'e':
				collectUnits(el.group, out)
			case 'n':
				for _, alt := range el.groups {
					collectUnits(alt, out)
				}
			}
		}
	}
	var units [][]TriplePattern
	collectUnits(c.where, &units)
	for round := 0; round < 3; round++ {
		next := map[string][]string{}
		for _, unit := range units {
			for _, tp := range unit {
				sk := patternSkeleton(tp)
				terms := []struct {
					role string
					v    string
				}{{"S", tp.S.Var}, {"P", tp.P.Var}, {"O", tp.O.Var}}
				for _, t := range terms {
					if t.v == "" {
						continue
					}
					sig := "r:" + t.role + ":" + sk
					for _, u := range terms {
						if u.v != "" && u.v != t.v {
							sig += ":" + u.role + strconv.FormatUint(c.colors[u.v], 16)
						}
					}
					next[t.v] = append(next[t.v], sig)
				}
			}
		}
		updated := map[string]uint64{}
		for v, old := range c.colors {
			ss := next[v]
			sort.Strings(ss)
			updated[v] = hash64(strconv.FormatUint(old, 16) + "|" + strings.Join(ss, "\x1f"))
		}
		c.colors = updated
	}
}

// patternSkeleton renders a pattern with constants spelled out and
// variables anonymized — the shape shared by every isomorphic spelling.
func patternSkeleton(tp TriplePattern) string {
	pos := func(pt PatternTerm) string {
		if pt.IsVar() {
			return "?"
		}
		return lenPrefixed(pt.Term.Key())
	}
	return pos(tp.S) + "," + pos(tp.P) + "," + pos(tp.O)
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// ---- unit ordering ----

// orderUnits fixes the pattern order inside every join unit. A first
// pass sorts by color-rendered pattern strings; then number-render-resort
// iterations run until the order is a fixed point of its own numbering —
// this collapses rotations of symmetric cycles (where colors alone tie)
// onto a single order. The iteration cap keeps pathological inputs
// terminating; a non-converged unit just keeps its last (deterministic
// given the input) order, which can miss a cross-spelling cache hit but
// never conflates two different queries.
func (c *canonicalizer) orderUnits() {
	var colorPass func(g *cGroup)
	colorPass = func(g *cGroup) {
		for _, el := range g.elems {
			switch el.kind {
			case 'u':
				sort.SliceStable(el.unit, func(i, j int) bool {
					return c.colorRender(el.unit[i]) < c.colorRender(el.unit[j])
				})
			case 'o', 's', 'e':
				colorPass(el.group)
			case 'n':
				for _, alt := range el.groups {
					colorPass(alt)
				}
			}
		}
	}
	colorPass(c.where)

	for iter := 0; iter < 8; iter++ {
		c.slots = map[string]int{}
		c.nextID = 0
		c.assignSlots()
		changed := false
		var resort func(g *cGroup)
		resort = func(g *cGroup) {
			for _, el := range g.elems {
				switch el.kind {
				case 'u':
					keys := make([]string, len(el.unit))
					for i, tp := range el.unit {
						keys[i] = c.renderPattern(tp)
					}
					if !sort.StringsAreSorted(keys) {
						changed = true
						sort.SliceStable(el.unit, func(i, j int) bool {
							return c.renderPattern(el.unit[i]) < c.renderPattern(el.unit[j])
						})
					}
				case 'o', 's', 'e':
					resort(el.group)
				case 'n':
					for _, alt := range el.groups {
						resort(alt)
					}
				}
			}
		}
		resort(c.where)
		if !changed {
			return
		}
	}
	// Number once more so the final render reflects the final order.
	c.slots = map[string]int{}
	c.nextID = 0
	c.assignSlots()
}

func (c *canonicalizer) colorRender(tp TriplePattern) string {
	pos := func(pt PatternTerm) string {
		if pt.IsVar() {
			return "?" + strconv.FormatUint(c.colors[pt.Var], 16)
		}
		return lenPrefixed(pt.Term.Key())
	}
	return pos(tp.S) + "," + pos(tp.P) + "," + pos(tp.O)
}

// ---- slot numbering ----

func (c *canonicalizer) slotOf(v string) int {
	if s, ok := c.slots[v]; ok {
		return s
	}
	s := c.nextID
	c.slots[v] = s
	c.nextID++
	return s
}

// assignSlots numbers every variable in canonical walk order: the WHERE
// tree first (in the current unit order), then projection, group/order
// keys and the CONSTRUCT template. First use wins, so the numbering is a
// pure function of the canonical structure, never of parser names.
func (c *canonicalizer) assignSlots() {
	var walkExpr func(e Expr)
	walkExpr = func(e Expr) {
		switch x := e.(type) {
		case VarExpr:
			c.slotOf(x.Name)
		case BinaryExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		case UnaryExpr:
			walkExpr(x.X)
		case CallExpr:
			for _, a := range x.Args {
				walkExpr(a)
			}
		}
	}
	var walkGroup func(g *cGroup)
	walkGroup = func(g *cGroup) {
		for _, el := range g.elems {
			switch el.kind {
			case 'u':
				for _, tp := range el.unit {
					for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
						if pt.IsVar() {
							c.slotOf(pt.Var)
						}
					}
				}
			case 'f':
				walkExpr(el.expr)
			case 'o', 's', 'e':
				walkGroup(el.group)
			case 'n':
				for _, alt := range el.groups {
					walkGroup(alt)
				}
			case 'b':
				walkExpr(el.expr)
				c.slotOf(el.bindVar)
			case 'v':
				for _, vn := range el.values.Vars {
					c.slotOf(vn)
				}
			}
		}
	}
	walkGroup(c.where)
	for _, pr := range c.proj {
		if pr.Expr != nil {
			walkExpr(pr.Expr)
		}
		if pr.Agg != nil && pr.Agg.Arg != nil {
			walkExpr(pr.Agg.Arg)
		}
		c.slotOf(pr.Var)
	}
	for _, gv := range c.query.GroupBy {
		c.slotOf(gv)
	}
	for _, ok := range c.order {
		walkExpr(ok.Expr)
	}
	for _, tp := range c.query.Template {
		for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
			if pt.IsVar() {
				c.slotOf(pt.Var)
			}
		}
	}
}

// ---- rendering ----

// lenPrefixed makes raw strings self-delimiting inside the key, so no
// literal content can fake structure ("no collisions" reduces to this).
func lenPrefixed(s string) string {
	return strconv.Itoa(len(s)) + ":" + s
}

func (c *canonicalizer) renderPattern(tp TriplePattern) string {
	pos := func(pt PatternTerm) string {
		if pt.IsVar() {
			if s, ok := c.slots[pt.Var]; ok {
				return "v" + strconv.Itoa(s)
			}
			return "?" // unassigned during early iterations
		}
		return "k" + lenPrefixed(pt.Term.Key())
	}
	return "t(" + pos(tp.S) + pos(tp.P) + pos(tp.O) + ")"
}

func (c *canonicalizer) renderExpr(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case VarExpr:
		sb.WriteString("v")
		sb.WriteString(strconv.Itoa(c.slotOf(x.Name)))
	case ConstExpr:
		sb.WriteString("k")
		sb.WriteString(lenPrefixed(x.Term.Key()))
	case BinaryExpr:
		sb.WriteString("(b")
		sb.WriteString(lenPrefixed(x.Op))
		c.renderExpr(sb, x.L)
		c.renderExpr(sb, x.R)
		sb.WriteString(")")
	case UnaryExpr:
		sb.WriteString("(u")
		sb.WriteString(lenPrefixed(x.Op))
		c.renderExpr(sb, x.X)
		sb.WriteString(")")
	case CallExpr:
		sb.WriteString("(c")
		sb.WriteString(lenPrefixed(x.IRI))
		for _, a := range x.Args {
			c.renderExpr(sb, a)
		}
		sb.WriteString(")")
	default:
		sb.WriteString("(?)")
	}
}

func (c *canonicalizer) renderGroup(sb *strings.Builder, g *cGroup) {
	sb.WriteString("[")
	for _, el := range g.elems {
		switch el.kind {
		case 'u':
			sb.WriteString("U(")
			for _, tp := range el.unit {
				sb.WriteString(c.renderPattern(tp))
			}
			sb.WriteString(")")
		case 'f':
			sb.WriteString("F(")
			c.renderExpr(sb, el.expr)
			sb.WriteString(")")
		case 'o':
			sb.WriteString("O")
			c.renderGroup(sb, el.group)
		case 's':
			sb.WriteString("S")
			c.renderGroup(sb, el.group)
		case 'e':
			if el.negated {
				sb.WriteString("NE")
			} else {
				sb.WriteString("E")
			}
			c.renderGroup(sb, el.group)
		case 'n':
			sb.WriteString("N(")
			for _, alt := range el.groups {
				c.renderGroup(sb, alt)
			}
			sb.WriteString(")")
		case 'b':
			sb.WriteString("B(")
			c.renderExpr(sb, el.expr)
			sb.WriteString("v")
			sb.WriteString(strconv.Itoa(c.slotOf(el.bindVar)))
			sb.WriteString(")")
		case 'v':
			sb.WriteString("V(")
			for _, vn := range el.values.Vars {
				sb.WriteString("v")
				sb.WriteString(strconv.Itoa(c.slotOf(vn)))
			}
			sb.WriteString("|")
			for _, row := range el.values.Rows {
				sb.WriteString("r(")
				for _, t := range row {
					if t.IsZero() {
						sb.WriteString("_")
					} else {
						sb.WriteString("k")
						sb.WriteString(lenPrefixed(t.Key()))
					}
				}
				sb.WriteString(")")
			}
			sb.WriteString(")")
		}
	}
	sb.WriteString("]")
}

func (c *canonicalizer) render() string {
	var sb strings.Builder
	sb.WriteString("Q")
	sb.WriteString(strconv.Itoa(int(c.query.Type)))
	if c.query.Distinct {
		sb.WriteString("D")
	}
	sb.WriteString("P(")
	for _, pr := range c.proj {
		sb.WriteString("p(v")
		sb.WriteString(strconv.Itoa(c.slotOf(pr.Var)))
		if pr.Expr != nil {
			sb.WriteString("=")
			c.renderExpr(&sb, pr.Expr)
		}
		if pr.Agg != nil {
			sb.WriteString("a")
			sb.WriteString(lenPrefixed(pr.Agg.Func))
			if pr.Agg.Distinct {
				sb.WriteString("D")
			}
			if pr.Agg.Arg != nil {
				c.renderExpr(&sb, pr.Agg.Arg)
			} else {
				sb.WriteString("*")
			}
		}
		sb.WriteString(")")
	}
	sb.WriteString(")")
	if len(c.query.GroupBy) > 0 {
		// Grouping is a set: render in slot order so spelling order of the
		// GROUP BY list never reaches the key.
		gs := make([]int, 0, len(c.query.GroupBy))
		for _, gv := range c.query.GroupBy {
			gs = append(gs, c.slotOf(gv))
		}
		sort.Ints(gs)
		sb.WriteString("G(")
		for _, s := range gs {
			sb.WriteString("v")
			sb.WriteString(strconv.Itoa(s))
		}
		sb.WriteString(")")
	}
	sb.WriteString("W")
	c.renderGroup(&sb, c.where)
	if len(c.order) > 0 {
		sb.WriteString("Ord(")
		for _, ok := range c.order {
			if ok.Desc {
				sb.WriteString("d")
			} else {
				sb.WriteString("a")
			}
			c.renderExpr(&sb, ok.Expr)
		}
		sb.WriteString(")")
	}
	sb.WriteString("L")
	sb.WriteString(strconv.Itoa(c.query.Limit))
	sb.WriteString("Off")
	sb.WriteString(strconv.Itoa(c.query.Offset))
	if len(c.query.Template) > 0 {
		sb.WriteString("T(")
		for _, tp := range c.query.Template {
			sb.WriteString(c.renderPattern(tp))
		}
		sb.WriteString(")")
	}
	return sb.String()
}
