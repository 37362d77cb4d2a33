package sparql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"applab/internal/rdf"
)

// Parse parses a SPARQL query. The default App Lab prefixes (geo, geof,
// lai, osm, ...) are pre-bound; PREFIX declarations in the query override
// them.
func Parse(src string) (*Query, error) {
	pooled := tokPool.Get().(*[]token)
	toks, err := lex(src, *pooled)
	defer func() {
		if cap(toks) <= maxPooledToks {
			clear(toks)
			*pooled = toks[:0]
			tokPool.Put(pooled)
		}
	}()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	q.Text = src
	return q, nil
}

// MustParse is Parse but panics on error; for static query text.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks     []token
	pos      int
	prefixes map[string]string // the query's PREFIX declarations; nil when it has none
}

// defaultPrefixes is the table every query's prefixed names fall back
// to. It is only ever read.
var defaultPrefixes = rdf.DefaultPrefixes()

// expand resolves a prefixed name (or unwraps an <IRI>) against the
// query's own PREFIX declarations first, then the default table.
func (p *parser) expand(qname string) (string, error) {
	if i := strings.IndexByte(qname, ':'); i >= 0 {
		if ns, ok := p.prefixes[qname[:i]]; ok {
			return ns + qname[i+1:], nil
		}
	}
	return defaultPrefixes.Expand(qname)
}

// cur and next clamp at the trailing EOF token: error paths may consume
// it and still need a position for their message.
func (p *parser) cur() token {
	if p.pos >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.cur()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: near offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tKeyword || t.text != kw {
		return p.errf("expected %s, got %q", kw, t.text)
	}
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tKeyword && p.cur().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) accept(kind tokKind) bool {
	if p.cur().kind == kind {
		p.pos++
		return true
	}
	return false
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Limit: -1}
	// Prologue
	for p.cur().kind == tKeyword && (p.cur().text == "PREFIX" || p.cur().text == "BASE") {
		kw := p.next().text
		if kw == "BASE" {
			if p.next().kind != tIRI {
				return nil, p.errf("expected IRI after BASE")
			}
			continue
		}
		name := p.next()
		if name.kind != tPName {
			return nil, p.errf("expected prefix name after PREFIX")
		}
		iri := p.next()
		if iri.kind != tIRI {
			return nil, p.errf("expected IRI after PREFIX %s", name.text)
		}
		if p.prefixes == nil {
			p.prefixes = map[string]string{}
		}
		p.prefixes[strings.TrimSuffix(name.text, ":")] = iri.text
	}
	switch {
	case p.acceptKeyword("SELECT"):
		q.Type = QuerySelect
		if err := p.parseSelectClause(q); err != nil {
			return nil, err
		}
	case p.acceptKeyword("ASK"):
		q.Type = QueryAsk
	case p.acceptKeyword("CONSTRUCT"):
		q.Type = QueryConstruct
		tmpl, err := p.parseConstructTemplate()
		if err != nil {
			return nil, err
		}
		q.Template = tmpl
	default:
		return nil, p.errf("expected SELECT, ASK or CONSTRUCT, got %q", p.cur().text)
	}
	p.acceptKeyword("WHERE")
	g, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	q.Where = g
	// A SELECT (expr AS ?v) may not rebind a variable already in scope:
	// one of the WHERE clause or one the SELECT clause named before it.
	for i, pr := range q.Projection {
		if pr.Expr == nil && pr.Agg == nil {
			continue
		}
		earlier := func(e Projection) bool { return e.Var == pr.Var }
		if slices.Contains(g.vars(true), pr.Var) || slices.ContainsFunc(q.Projection[:i], earlier) {
			return nil, fmt.Errorf("sparql: (... AS ?%s): ?%s is already in scope", pr.Var, pr.Var)
		}
	}
	if err := p.parseSolutionModifiers(q); err != nil {
		return nil, err
	}
	if p.cur().kind != tEOF {
		return nil, p.errf("trailing input %q", p.cur().text)
	}
	return q, nil
}

func (p *parser) parseSelectClause(q *Query) error {
	if p.acceptKeyword("DISTINCT") || p.acceptKeyword("REDUCED") {
		q.Distinct = true
	}
	if p.accept(tStar) {
		return nil // empty projection = '*'
	}
	for {
		switch p.cur().kind {
		case tVar:
			q.Projection = append(q.Projection, Projection{Var: p.next().text})
		case tLParen:
			p.next()
			proj, err := p.parseProjectionExpr()
			if err != nil {
				return err
			}
			q.Projection = append(q.Projection, proj)
		default:
			if len(q.Projection) == 0 {
				return p.errf("SELECT needs at least one variable")
			}
			return nil
		}
	}
}

// parseProjectionExpr parses "expr AS ?v )" after the opening paren.
func (p *parser) parseProjectionExpr() (Projection, error) {
	var proj Projection
	// Aggregate?
	if p.cur().kind == tKeyword {
		switch p.cur().text {
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			agg := &Aggregate{Func: p.next().text}
			if !p.accept(tLParen) {
				return proj, p.errf("expected ( after %s", agg.Func)
			}
			if p.acceptKeyword("DISTINCT") {
				agg.Distinct = true
			}
			if p.accept(tStar) {
				if agg.Func != "COUNT" {
					return proj, p.errf("* only allowed in COUNT")
				}
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return proj, err
				}
				agg.Arg = e
			}
			if !p.accept(tRParen) {
				return proj, p.errf("expected ) after aggregate")
			}
			proj.Agg = agg
		}
	}
	if proj.Agg == nil {
		e, err := p.parseExpr()
		if err != nil {
			return proj, err
		}
		proj.Expr = e
	}
	if !p.acceptKeyword("AS") {
		return proj, p.errf("expected AS in projection expression")
	}
	v := p.next()
	if v.kind != tVar {
		return proj, p.errf("expected variable after AS")
	}
	proj.Var = v.text
	if !p.accept(tRParen) {
		return proj, p.errf("expected ) after projection alias")
	}
	return proj, nil
}

func (p *parser) parseConstructTemplate() ([]TriplePattern, error) {
	if !p.accept(tLBrace) {
		return nil, p.errf("expected { after CONSTRUCT")
	}
	var out []TriplePattern
	for p.cur().kind != tRBrace {
		pats, err := p.parseTriplesBlock()
		if err != nil {
			return nil, err
		}
		out = append(out, pats...)
	}
	p.next() // }
	return out, nil
}

func (p *parser) parseGroup() (*Group, error) {
	if !p.accept(tLBrace) {
		return nil, p.errf("expected {")
	}
	g := &Group{}
	for {
		switch {
		case p.cur().kind == tRBrace:
			p.next()
			return g, nil
		case p.cur().kind == tEOF:
			return nil, p.errf("unterminated group pattern")
		case p.acceptKeyword("FILTER"):
			// FILTER EXISTS { ... } / FILTER NOT EXISTS { ... }
			if p.acceptKeyword("EXISTS") {
				sub, err := p.parseGroup()
				if err != nil {
					return nil, err
				}
				g.Elements = append(g.Elements, Exists{Group: sub})
				continue
			}
			if p.acceptKeyword("NOT") {
				if !p.acceptKeyword("EXISTS") {
					return nil, p.errf("expected EXISTS after NOT")
				}
				sub, err := p.parseGroup()
				if err != nil {
					return nil, err
				}
				g.Elements = append(g.Elements, Exists{Negated: true, Group: sub})
				continue
			}
			e, err := p.parseConstraint()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, Filter{Expr: e})
		case p.acceptKeyword("OPTIONAL"):
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, Optional{Group: sub})
		case p.acceptKeyword("BIND"):
			if !p.accept(tLParen) {
				return nil, p.errf("expected ( after BIND")
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if !p.acceptKeyword("AS") {
				return nil, p.errf("expected AS in BIND")
			}
			v := p.next()
			if v.kind != tVar {
				return nil, p.errf("expected variable after AS in BIND")
			}
			if !p.accept(tRParen) {
				return nil, p.errf("expected ) after BIND")
			}
			g.Elements = append(g.Elements, Bind{Var: v.text, Expr: e})
			p.accept(tDot)
		case p.acceptKeyword("VALUES"):
			vals, err := p.parseValues()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, vals)
		case p.cur().kind == tLBrace:
			first, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			if p.cur().kind == tKeyword && p.cur().text == "UNION" {
				u := Union{Alternatives: []*Group{first}}
				for p.acceptKeyword("UNION") {
					alt, err := p.parseGroup()
					if err != nil {
						return nil, err
					}
					u.Alternatives = append(u.Alternatives, alt)
				}
				g.Elements = append(g.Elements, u)
			} else {
				g.Elements = append(g.Elements, SubGroup{Group: first})
			}
			p.accept(tDot)
		default:
			pats, err := p.parseTriplesBlock()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, BGP{Patterns: pats})
		}
	}
}

// parseValues parses "?v { t1 t2 }" or "(?a ?b) { (t t) (t t) }".
func (p *parser) parseValues() (Values, error) {
	var v Values
	multi := false
	switch p.cur().kind {
	case tVar:
		v.Vars = []string{p.next().text}
	case tLParen:
		p.next()
		multi = true
		for p.cur().kind == tVar {
			v.Vars = append(v.Vars, p.next().text)
		}
		if !p.accept(tRParen) {
			return v, p.errf("expected ) after VALUES variables")
		}
		if len(v.Vars) == 0 {
			return v, p.errf("VALUES needs at least one variable")
		}
	default:
		return v, p.errf("expected variable(s) after VALUES")
	}
	if !p.accept(tLBrace) {
		return v, p.errf("expected { after VALUES variables")
	}
	for p.cur().kind != tRBrace {
		if p.cur().kind == tEOF {
			return v, p.errf("unterminated VALUES block")
		}
		if multi {
			if !p.accept(tLParen) {
				return v, p.errf("expected ( in VALUES row")
			}
			row := make([]rdf.Term, 0, len(v.Vars))
			for p.cur().kind != tRParen {
				pt, err := p.parsePatternTerm(false)
				if err != nil {
					return v, err
				}
				row = append(row, pt.Term)
			}
			p.next() // )
			if len(row) != len(v.Vars) {
				return v, p.errf("VALUES row arity %d, want %d", len(row), len(v.Vars))
			}
			v.Rows = append(v.Rows, row)
		} else {
			pt, err := p.parsePatternTerm(false)
			if err != nil {
				return v, err
			}
			v.Rows = append(v.Rows, []rdf.Term{pt.Term})
		}
	}
	p.next() // }
	return v, nil
}

// parseConstraint parses either a bracketed expression or a bare function
// call after FILTER.
func (p *parser) parseConstraint() (Expr, error) {
	if p.cur().kind == tLParen {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.accept(tRParen) {
			return nil, p.errf("expected ) after FILTER expression")
		}
		return e, nil
	}
	// FILTER geof:sfIntersects(...) form
	return p.parsePrimary()
}

// parseTriplesBlock parses subject predicate object with ';' and ','
// continuation, terminated by optional '.'.
func (p *parser) parseTriplesBlock() ([]TriplePattern, error) {
	var out []TriplePattern
	subj, err := p.parsePatternTerm(true)
	if err != nil {
		return nil, err
	}
	for {
		pred, err := p.parsePatternTerm(false)
		if err != nil {
			return nil, err
		}
		for {
			obj, err := p.parsePatternTerm(false)
			if err != nil {
				return nil, err
			}
			out = append(out, TriplePattern{S: subj, P: pred, O: obj})
			if p.accept(tComma) {
				continue
			}
			break
		}
		if p.accept(tSemicolon) {
			if p.cur().kind == tDot || p.cur().kind == tRBrace {
				p.accept(tDot)
				return out, nil
			}
			continue
		}
		p.accept(tDot)
		return out, nil
	}
}

func (p *parser) parsePatternTerm(asSubject bool) (PatternTerm, error) {
	t := p.next()
	switch t.kind {
	case tVar:
		return Vart(t.text), nil
	case tIRI:
		return Const(rdf.NewIRI(t.text)), nil
	case tBlank:
		return Const(rdf.NewBlank(t.text)), nil
	case tPName:
		if t.text == "a" && !asSubject {
			return Const(rdf.NewIRI(rdf.RDFType)), nil
		}
		iri, err := p.expand(t.text)
		if err != nil {
			return PatternTerm{}, p.errf("%v", err)
		}
		return Const(rdf.NewIRI(iri)), nil
	case tNumber:
		if strings.ContainsAny(t.text, ".eE") {
			return Const(rdf.NewTypedLiteral(t.text, rdf.XSDDecimal)), nil
		}
		return Const(rdf.NewTypedLiteral(t.text, rdf.XSDInteger)), nil
	case tBoolean:
		return Const(rdf.NewTypedLiteral(t.text, rdf.XSDBoolean)), nil
	case tString:
		lit, err := p.finishLiteral(t.text)
		if err != nil {
			return PatternTerm{}, err
		}
		return Const(lit), nil
	}
	return PatternTerm{}, p.errf("unexpected token %q in triple pattern", t.text)
}

// finishLiteral attaches an optional language tag or datatype to a lexed
// string.
func (p *parser) finishLiteral(lex string) (rdf.Term, error) {
	switch p.cur().kind {
	case tAt:
		lang := p.next().text
		return rdf.NewLangLiteral(lex, lang), nil
	case tCaret:
		p.next()
		dt := p.next()
		switch dt.kind {
		case tIRI:
			return rdf.NewTypedLiteral(lex, dt.text), nil
		case tPName:
			iri, err := p.expand(dt.text)
			if err != nil {
				return rdf.Term{}, p.errf("%v", err)
			}
			return rdf.NewTypedLiteral(lex, iri), nil
		default:
			return rdf.Term{}, p.errf("expected datatype after ^^")
		}
	}
	return rdf.NewLiteral(lex), nil
}

func (p *parser) parseSolutionModifiers(q *Query) error {
	for {
		switch {
		case p.acceptKeyword("GROUP"):
			if err := p.expectKeyword("BY"); err != nil {
				return err
			}
			for p.cur().kind == tVar {
				q.GroupBy = append(q.GroupBy, p.next().text)
			}
			if len(q.GroupBy) == 0 {
				return p.errf("GROUP BY needs at least one variable")
			}
		case p.acceptKeyword("ORDER"):
			if err := p.expectKeyword("BY"); err != nil {
				return err
			}
			for done := false; !done; {
				switch {
				case p.acceptKeyword("ASC"):
					e, err := p.parseBracketed()
					if err != nil {
						return err
					}
					q.OrderBy = append(q.OrderBy, OrderKey{Expr: e})
				case p.acceptKeyword("DESC"):
					e, err := p.parseBracketed()
					if err != nil {
						return err
					}
					q.OrderBy = append(q.OrderBy, OrderKey{Expr: e, Desc: true})
				case p.cur().kind == tVar:
					q.OrderBy = append(q.OrderBy, OrderKey{Expr: VarExpr{Name: p.next().text}})
				default:
					if len(q.OrderBy) == 0 {
						return p.errf("ORDER BY needs at least one key")
					}
					done = true
				}
			}
		case p.acceptKeyword("LIMIT"):
			n := p.next()
			if n.kind != tNumber {
				return p.errf("expected number after LIMIT")
			}
			v, err := strconv.Atoi(n.text)
			if err != nil {
				return p.errf("bad LIMIT %q: %v", n.text, err)
			}
			q.Limit = v
		case p.acceptKeyword("OFFSET"):
			n := p.next()
			if n.kind != tNumber {
				return p.errf("expected number after OFFSET")
			}
			v, err := strconv.Atoi(n.text)
			if err != nil {
				return p.errf("bad OFFSET %q: %v", n.text, err)
			}
			q.Offset = v
		default:
			return nil
		}
	}
}

func (p *parser) parseBracketed() (Expr, error) {
	if !p.accept(tLParen) {
		return nil, p.errf("expected (")
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.accept(tRParen) {
		return nil, p.errf("expected )")
	}
	return e, nil
}

// ---- expression parsing (precedence climbing) ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tOp && p.cur().text == "||" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tOp && p.cur().text == "&&" {
		p.next()
		r, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tOp {
		switch p.cur().text {
		case "=", "!=", "<", "<=", ">", ">=":
			op := p.next().text
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tOp && (p.cur().text == "+" || p.cur().text == "-") {
		op := p.next().text
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for (p.cur().kind == tStar) || (p.cur().kind == tOp && p.cur().text == "/") {
		op := "*"
		if p.cur().kind == tOp {
			op = "/"
		}
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.cur().kind == tOp && (p.cur().text == "!" || p.cur().text == "-") {
		op := p.next().text
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return UnaryExpr{Op: op, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tLParen:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.accept(tRParen) {
			return nil, p.errf("expected )")
		}
		return e, nil
	case tVar:
		return VarExpr{Name: t.text}, nil
	case tNumber:
		if strings.ContainsAny(t.text, ".eE") {
			return ConstExpr{Term: rdf.NewTypedLiteral(t.text, rdf.XSDDecimal)}, nil
		}
		return ConstExpr{Term: rdf.NewTypedLiteral(t.text, rdf.XSDInteger)}, nil
	case tBoolean:
		return ConstExpr{Term: rdf.NewTypedLiteral(t.text, rdf.XSDBoolean)}, nil
	case tString:
		lit, err := p.finishLiteral(t.text)
		if err != nil {
			return nil, err
		}
		return ConstExpr{Term: lit}, nil
	case tIRI:
		if p.cur().kind == tLParen {
			return p.parseCall(t.text)
		}
		return ConstExpr{Term: rdf.NewIRI(t.text)}, nil
	case tPName:
		if p.cur().kind == tLParen {
			// Builtin names are bare (no colon); extension functions are
			// prefixed (geof:sfIntersects) or full IRIs.
			if !strings.Contains(t.text, ":") {
				return p.parseCall(strings.ToUpper(t.text))
			}
			iri, err := p.expand(t.text)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			return p.parseCall(iri)
		}
		iri, err := p.expand(t.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return ConstExpr{Term: rdf.NewIRI(iri)}, nil
	case tKeyword:
		// Aggregate keywords usable as expression functions (MIN/MAX...).
		if p.cur().kind == tLParen {
			return p.parseCall(t.text)
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

func (p *parser) parseCall(name string) (Expr, error) {
	if !p.accept(tLParen) {
		return nil, p.errf("expected ( after function name")
	}
	call := CallExpr{IRI: name}
	if p.accept(tRParen) {
		return call, nil
	}
	for {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, arg)
		if p.accept(tComma) {
			continue
		}
		if p.accept(tRParen) {
			return call, nil
		}
		return nil, p.errf("expected , or ) in function call")
	}
}
