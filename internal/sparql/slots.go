package sparql

import (
	"fmt"

	"applab/internal/rdf"
)

// The compiled engine runs solutions as flat rows of term handles instead
// of map[string]rdf.Term bindings: the query compiler assigns every
// variable a slot in a per-query variable table, row extension copies
// 8-byte handles, and variable lookup is an array index. Terms
// materialize only where a value is needed — FILTER/BIND expressions,
// spatial refinement, and the one Binding built per row that leaves the
// engine.

// varTable assigns query variables to row slots.
type varTable struct {
	index map[string]int
	names []string
}

func newVarTable() *varTable {
	return &varTable{index: map[string]int{}}
}

// slot returns the slot for name, assigning the next free one on first
// use. All slots are assigned at compile time, before any row exists.
func (vt *varTable) slot(name string) int {
	if s, ok := vt.index[name]; ok {
		return s
	}
	s := len(vt.names)
	vt.index[name] = s
	vt.names = append(vt.names, name)
	return s
}

func (vt *varTable) size() int { return len(vt.names) }

// row is one solution: a handle per slot, nil = unbound. A handle points
// at the rdf.Term where the value already lives: a position of a triple
// in a slice Source.Match returned (the caller owns that slice and the
// source never touches it again — see Source), a VALUES constant of the
// parsed query, or a rowArena term for values the engine computed. Rows
// and the terms behind them are immutable once built, so rows share
// handles freely across UNION/OPTIONAL fan-out and parallel chunks; a
// Match slice lives as long as any row that points into it.
type row []*rdf.Term

// rowArena block-allocates result rows and computed terms so an operator
// producing thousands of rows costs a handful of slice allocations
// instead of one per row. Arena rows are extended copy-on-write, never
// mutated in place. Arenas are per goroutine (created inside each chunk
// closure), so they need no locking.
type rowArena struct {
	buf   []*rdf.Term
	block int        // rows per block, grows geometrically
	terms []rdf.Term // current term block; full blocks stay alive through their handles
}

// arenaMaxBlock caps arena block growth (in rows, and in terms) so small
// result sets never pay for large blocks.
const arenaMaxBlock = 512

// presized returns an output slice and an arena with room for n rows of
// the given width, for operators that know roughly how many rows they
// emit; past n both grow as usual. A single row gets nothing up front, so
// an OPTIONAL/EXISTS body run per row allocates only if it matches.
func presized(n, width int) ([]row, rowArena) {
	if n < 2 {
		return nil, rowArena{}
	}
	return make([]row, 0, n), rowArena{buf: make([]*rdf.Term, n*width)}
}

// clone copies src into arena-backed storage.
func (a *rowArena) clone(src row) row {
	n := len(src)
	if len(a.buf) < n {
		a.block = min(max(8, a.block*4), arenaMaxBlock)
		a.buf = make([]*rdf.Term, n*a.block)
	}
	dst := a.buf[:n:n]
	a.buf = a.buf[n:]
	copy(dst, src)
	return dst
}

// term stores a computed value (BIND, projection expression, aggregate)
// and returns its handle.
func (a *rowArena) term(t rdf.Term) *rdf.Term {
	if len(a.terms) == cap(a.terms) {
		a.terms = make([]rdf.Term, 0, min(max(8, 4*cap(a.terms)), arenaMaxBlock))
	}
	a.terms = append(a.terms, t)
	return &a.terms[len(a.terms)-1]
}

// asBinding converts a row to the public map representation. Only the
// bridge to Expr implementations the compiler does not know uses it.
func (r row) asBinding(vt *varTable) Binding {
	b := make(Binding, len(r))
	for s, t := range r {
		if t != nil {
			b[vt.names[s]] = *t
		}
	}
	return b
}

// compiledExpr is a slot-resolved expression evaluator: variable lookups
// are array indexes fixed at compile time, and the operator semantics are
// shared with the tree-walking Expr.Eval via applyBinary/applyNeg/
// applyCall, so both paths agree by construction.
type compiledExpr func(r row) (rdf.Term, error)

// compileExpr lowers an expression tree onto the slot table. Expression
// types the compiler does not know (external Expr implementations) fall
// back to building a map binding per evaluation — correct, just slower.
func compileExpr(e Expr, vt *varTable) compiledExpr {
	switch x := e.(type) {
	case VarExpr:
		s := vt.slot(x.Name)
		return func(r row) (rdf.Term, error) {
			if t := r[s]; t != nil {
				return *t, nil
			}
			return rdf.Term{}, errUnbound
		}
	case ConstExpr:
		t := x.Term
		return func(row) (rdf.Term, error) { return t, nil }
	case UnaryExpr:
		sub := compileExpr(x.X, vt)
		switch x.Op {
		case "!":
			return func(r row) (rdf.Term, error) {
				v, err := sub(r)
				if err != nil {
					return rdf.Term{}, err
				}
				bv, err := TermEBV(v)
				if err != nil {
					return rdf.Term{}, err
				}
				return rdf.NewBool(!bv), nil
			}
		case "-":
			return func(r row) (rdf.Term, error) {
				v, err := sub(r)
				if err != nil {
					return rdf.Term{}, err
				}
				return applyNeg(v)
			}
		}
		op := x.Op
		return func(row) (rdf.Term, error) {
			return rdf.Term{}, fmt.Errorf("sparql: unknown unary operator %q", op)
		}
	case BinaryExpr:
		l := compileExpr(x.L, vt)
		r := compileExpr(x.R, vt)
		switch x.Op {
		case "||":
			return func(rw row) (rdf.Term, error) {
				lv, lerr := compiledEBV(l, rw)
				if lerr == nil && lv {
					return rdf.NewBool(true), nil
				}
				rv, rerr := compiledEBV(r, rw)
				if rerr == nil && rv {
					return rdf.NewBool(true), nil
				}
				if lerr != nil {
					return rdf.Term{}, lerr
				}
				if rerr != nil {
					return rdf.Term{}, rerr
				}
				return rdf.NewBool(false), nil
			}
		case "&&":
			return func(rw row) (rdf.Term, error) {
				lv, lerr := compiledEBV(l, rw)
				if lerr == nil && !lv {
					return rdf.NewBool(false), nil
				}
				rv, rerr := compiledEBV(r, rw)
				if rerr == nil && !rv {
					return rdf.NewBool(false), nil
				}
				if lerr != nil {
					return rdf.Term{}, lerr
				}
				if rerr != nil {
					return rdf.Term{}, rerr
				}
				return rdf.NewBool(true), nil
			}
		}
		op := x.Op
		return func(rw row) (rdf.Term, error) {
			lv, err := l(rw)
			if err != nil {
				return rdf.Term{}, err
			}
			rv, err := r(rw)
			if err != nil {
				return rdf.Term{}, err
			}
			return applyBinary(op, lv, rv)
		}
	case CallExpr:
		// BOUND inspects the raw variable, not its evaluation.
		if x.IRI == "BOUND" {
			if len(x.Args) != 1 {
				return func(row) (rdf.Term, error) {
					return rdf.Term{}, fmt.Errorf("sparql: BOUND takes one variable")
				}
			}
			v, ok := x.Args[0].(VarExpr)
			if !ok {
				return func(row) (rdf.Term, error) {
					return rdf.Term{}, fmt.Errorf("sparql: BOUND argument must be a variable")
				}
			}
			s := vt.slot(v.Name)
			return func(r row) (rdf.Term, error) {
				return rdf.NewBool(r[s] != nil), nil
			}
		}
		args := make([]compiledExpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = compileExpr(a, vt)
		}
		if ce := constRegex(x, args); ce != nil {
			return ce
		}
		iri := x.IRI
		return func(r row) (rdf.Term, error) {
			vals := make([]rdf.Term, len(args))
			for i, a := range args {
				v, err := a(r)
				if err != nil {
					return rdf.Term{}, err
				}
				vals[i] = v
			}
			return applyCall(iri, vals)
		}
	default:
		// Unknown Expr implementation: bridge through a map binding.
		return func(r row) (rdf.Term, error) {
			return e.Eval(r.asBinding(vt))
		}
	}
}

// constRegex lowers a REGEX call whose pattern and flags are constants,
// compiling the pattern once per plan instead of once per row; nil for
// any other call.
func constRegex(x CallExpr, args []compiledExpr) compiledExpr {
	if x.IRI != "REGEX" || len(args) < 2 || len(args) > 3 {
		return nil
	}
	patFlags := make([]rdf.Term, 0, 2)
	for _, a := range x.Args[1:] {
		c, ok := a.(ConstExpr)
		if !ok {
			return nil
		}
		patFlags = append(patFlags, c.Term)
	}
	re, err := compileRegex(patFlags)
	if err != nil {
		return func(row) (rdf.Term, error) { return rdf.Term{}, err }
	}
	text := args[0]
	return func(r row) (rdf.Term, error) {
		v, err := text(r)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBool(re.MatchString(v.Value)), nil
	}
}

// compiledEBV is ebv over a compiled expression.
func compiledEBV(ce compiledExpr, r row) (bool, error) {
	v, err := ce(r)
	if err != nil {
		return false, err
	}
	return TermEBV(v)
}
