// Package sparql implements the SPARQL subset used by the App Lab stack:
// SELECT / ASK / CONSTRUCT queries with basic graph patterns, FILTER,
// OPTIONAL, UNION, DISTINCT, ORDER BY, LIMIT/OFFSET, GROUP BY with the
// standard aggregates, a full expression language, and the geof:* and
// time:* functions of the paper's Listing 1, which it calls from the
// geosparql package.
//
// The engine evaluates against any Source (the rdf.Graph, the Strabon store,
// or an OBDA virtual graph).
package sparql

import (
	"applab/internal/rdf"
)

// QueryType discriminates the supported query forms.
type QueryType uint8

// Query forms.
const (
	QuerySelect QueryType = iota
	QueryAsk
	QueryConstruct
)

// Query is a parsed SPARQL query.
type Query struct {
	Type     QueryType
	Distinct bool
	// Projection holds the selected expressions; empty means '*'.
	Projection []Projection
	// GroupBy holds grouping variable names (without '?').
	GroupBy []string
	// Template holds the CONSTRUCT template patterns.
	Template []TriplePattern
	Where    *Group
	OrderBy  []OrderKey
	Limit    int // -1 when absent
	Offset   int
	// Text is the source Parse read the query from; empty for queries
	// built in code. The result cache keys on it.
	Text string
}

// Projection is one SELECT item: a plain variable or an expression with an
// alias (including aggregates).
type Projection struct {
	Var  string // result column name (without '?')
	Expr Expr   // nil for plain variables
	Agg  *Aggregate
}

// Aggregate describes an aggregate call in the projection.
type Aggregate struct {
	Func     string // COUNT, SUM, AVG, MIN, MAX
	Distinct bool
	Arg      Expr // nil for COUNT(*)
}

// OrderKey is one ORDER BY criterion.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// PatternTerm is a triple-pattern position: either a variable or a constant
// term.
type PatternTerm struct {
	Var  string // non-empty when this position is a variable
	Term rdf.Term
}

// IsVar reports whether the position is a variable.
func (p PatternTerm) IsVar() bool { return p.Var != "" }

// Vart returns a variable pattern term.
func Vart(name string) PatternTerm { return PatternTerm{Var: name} }

// Const returns a constant pattern term.
func Const(t rdf.Term) PatternTerm { return PatternTerm{Term: t} }

// TriplePattern is a triple with variables allowed in any position.
type TriplePattern struct {
	S, P, O PatternTerm
}

// Group is a SPARQL group graph pattern: an ordered list of elements.
type Group struct {
	Elements []Element
}

// Element is one member of a group pattern.
type Element interface{ isElement() }

// BGP is a basic graph pattern (a run of triple patterns joined together).
type BGP struct {
	Patterns []TriplePattern
}

// Filter is a FILTER constraint.
type Filter struct {
	Expr Expr
}

// Optional is an OPTIONAL sub-pattern (left outer join).
type Optional struct {
	Group *Group
}

// Union is a UNION of two or more alternatives.
type Union struct {
	Alternatives []*Group
}

// SubGroup is a nested group graph pattern.
type SubGroup struct {
	Group *Group
}

// Exists is a FILTER EXISTS / FILTER NOT EXISTS constraint.
type Exists struct {
	Negated bool
	Group   *Group
}

func (Exists) isElement() {}

// Bind is a BIND(expr AS ?var) assignment.
type Bind struct {
	Var  string
	Expr Expr
}

// Values is an inline VALUES block: variables plus rows of terms
// (zero terms mean UNDEF).
type Values struct {
	Vars []string
	Rows [][]rdf.Term
}

func (BGP) isElement()      {}
func (Filter) isElement()   {}
func (Optional) isElement() {}
func (Union) isElement()    {}
func (SubGroup) isElement() {}
func (Bind) isElement()     {}
func (Values) isElement()   {}

// Vars returns the variables mentioned in the pattern, in first-seen order.
func (g *Group) Vars() []string { return g.vars(false) }

// vars returns Vars, or with inScope also the variables BIND and VALUES
// bind: every variable in scope after the group (SPARQL 1.1 §18.2.1).
func (g *Group) vars(inScope bool) []string {
	seen := map[string]bool{}
	var out []string
	add := func(vs ...string) {
		for _, v := range vs {
			if v != "" && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	var walk func(g *Group)
	walk = func(g *Group) {
		for _, el := range g.Elements {
			switch e := el.(type) {
			case BGP:
				for _, tp := range e.Patterns {
					add(tp.S.Var, tp.P.Var, tp.O.Var)
				}
			case Optional:
				walk(e.Group)
			case Union:
				for _, alt := range e.Alternatives {
					walk(alt)
				}
			case SubGroup:
				walk(e.Group)
			case Bind:
				if inScope {
					add(e.Var)
				}
			case Values:
				if inScope {
					add(e.Vars...)
				}
			}
		}
	}
	walk(g)
	return out
}
