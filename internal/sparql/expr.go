package sparql

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"applab/internal/geosparql"
	"applab/internal/rdf"
)

// Binding is one solution mapping from variable names to RDF terms.
type Binding map[string]rdf.Term

// clone returns a copy of the binding with room for one more entry.
func (b Binding) clone() Binding {
	out := make(Binding, len(b)+1)
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Expr is a SPARQL expression.
type Expr interface {
	// Eval evaluates the expression under a binding. An error represents a
	// SPARQL expression error (which makes enclosing FILTERs false).
	Eval(b Binding) (rdf.Term, error)
	// String renders the expression for diagnostics.
	String() string
}

// errUnbound is the SPARQL "unbound variable" expression error.
var errUnbound = fmt.Errorf("sparql: unbound variable in expression")

// VarExpr references a variable.
type VarExpr struct{ Name string }

// Eval implements Expr.
func (e VarExpr) Eval(b Binding) (rdf.Term, error) {
	t, ok := b[e.Name]
	if !ok {
		return rdf.Term{}, errUnbound
	}
	return t, nil
}

func (e VarExpr) String() string { return "?" + e.Name }

// ConstExpr is a constant term.
type ConstExpr struct{ Term rdf.Term }

// Eval implements Expr.
func (e ConstExpr) Eval(Binding) (rdf.Term, error) { return e.Term, nil }

func (e ConstExpr) String() string { return e.Term.String() }

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   string // || && = != < <= > >= + - * /
	L, R Expr
}

// Eval implements Expr.
func (e BinaryExpr) Eval(b Binding) (rdf.Term, error) {
	switch e.Op {
	case "||":
		lv, lerr := ebv(e.L, b)
		if lerr == nil && lv {
			return rdf.NewBool(true), nil
		}
		rv, rerr := ebv(e.R, b)
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
	case "&&":
		lv, lerr := ebv(e.L, b)
		if lerr == nil && !lv {
			return rdf.NewBool(false), nil
		}
		rv, rerr := ebv(e.R, b)
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
	l, err := e.L.Eval(b)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := e.R.Eval(b)
	if err != nil {
		return rdf.Term{}, err
	}
	return applyBinary(e.Op, l, r)
}

// applyBinary applies a non-short-circuiting binary operator to two
// evaluated operands. Shared by the tree-walking Eval above and the
// compiled (slot-based) expression closures, so both engines agree on
// operator semantics by construction.
func applyBinary(op string, l, r rdf.Term) (rdf.Term, error) {
	switch op {
	case "=", "!=":
		eq, err := termsEqual(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		if op == "!=" {
			eq = !eq
		}
		return rdf.NewBool(eq), nil
	case "<", "<=", ">", ">=":
		c, err := compareTerms(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		var v bool
		switch op {
		case "<":
			v = c < 0
		case "<=":
			v = c <= 0
		case ">":
			v = c > 0
		case ">=":
			v = c >= 0
		}
		return rdf.NewBool(v), nil
	case "+", "-", "*", "/":
		lf, lok := l.Float()
		rf, rok := r.Float()
		if !lok || !rok {
			return rdf.Term{}, fmt.Errorf("sparql: non-numeric operand for %q", op)
		}
		var v float64
		switch op {
		case "+":
			v = lf + rf
		case "-":
			v = lf - rf
		case "*":
			v = lf * rf
		case "/":
			if rf == 0 {
				return rdf.Term{}, fmt.Errorf("sparql: division by zero")
			}
			v = lf / rf
		}
		if l.Datatype == rdf.XSDInteger && r.Datatype == rdf.XSDInteger && op != "/" {
			return rdf.NewInteger(int64(v)), nil
		}
		return rdf.NewDouble(v), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown operator %q", op)
}

func (e BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// UnaryExpr applies ! or unary -.
type UnaryExpr struct {
	Op string
	X  Expr
}

// Eval implements Expr.
func (e UnaryExpr) Eval(b Binding) (rdf.Term, error) {
	switch e.Op {
	case "!":
		v, err := ebv(e.X, b)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBool(!v), nil
	case "-":
		v, err := e.X.Eval(b)
		if err != nil {
			return rdf.Term{}, err
		}
		return applyNeg(v)
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown unary operator %q", e.Op)
}

// applyNeg negates a numeric operand (shared with the compiled engine).
func applyNeg(v rdf.Term) (rdf.Term, error) {
	f, ok := v.Float()
	if !ok {
		return rdf.Term{}, fmt.Errorf("sparql: unary minus on non-number")
	}
	if v.Datatype == rdf.XSDInteger {
		return rdf.NewInteger(-int64(f)), nil
	}
	return rdf.NewDouble(-f), nil
}

func (e UnaryExpr) String() string { return e.Op + e.X.String() }

// CallExpr is a function call: a builtin (BOUND, STR, REGEX, ...) or an
// extension function such as geof:sfIntersects.
type CallExpr struct {
	// IRI is the resolved function IRI for extension functions, or the
	// upper-cased builtin name.
	IRI  string
	Args []Expr
}

// Eval implements Expr.
func (e CallExpr) Eval(b Binding) (rdf.Term, error) {
	// BOUND must see the raw variable, not its evaluation error.
	if e.IRI == "BOUND" {
		if len(e.Args) != 1 {
			return rdf.Term{}, fmt.Errorf("sparql: BOUND takes one variable")
		}
		v, ok := e.Args[0].(VarExpr)
		if !ok {
			return rdf.Term{}, fmt.Errorf("sparql: BOUND argument must be a variable")
		}
		_, bound := b[v.Name]
		return rdf.NewBool(bound), nil
	}
	args := make([]rdf.Term, len(e.Args))
	for i, a := range e.Args {
		v, err := a.Eval(b)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = v
	}
	return applyCall(e.IRI, args)
}

// applyCall dispatches an already-evaluated argument list to a builtin
// or a geof:/time: function (shared with the compiled engine).
func applyCall(iri string, args []rdf.Term) (rdf.Term, error) {
	if fn, ok := builtins[iri]; ok {
		return fn(args)
	}
	if fn, ok := geosparql.Function(iri); ok {
		return fn(args)
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown function %q", iri)
}

func (e CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.IRI + "(" + strings.Join(parts, ", ") + ")"
}

// ebv computes the SPARQL effective boolean value of an expression.
func ebv(e Expr, b Binding) (bool, error) {
	v, err := e.Eval(b)
	if err != nil {
		return false, err
	}
	return TermEBV(v)
}

// TermEBV returns the effective boolean value of a term.
func TermEBV(v rdf.Term) (bool, error) {
	if !v.IsLiteral() {
		return false, fmt.Errorf("sparql: no boolean value for %s", v)
	}
	if bv, ok := v.Bool(); ok {
		return bv, nil
	}
	if v.IsNumeric() {
		f, _ := v.Float()
		return f != 0, nil
	}
	if v.Datatype == rdf.XSDString || v.Datatype == "" || v.Lang != "" {
		return v.Value != "", nil
	}
	return false, fmt.Errorf("sparql: no boolean value for %s", v)
}

// termsEqual implements SPARQL "=": numeric comparison by value, otherwise
// term equality for compatible kinds.
func termsEqual(l, r rdf.Term) (bool, error) {
	if l.IsNumeric() && r.IsNumeric() {
		lf, _ := l.Float()
		rf, _ := r.Float()
		return lf == rf, nil
	}
	if lt, ok := l.Time(); ok {
		if rt, ok2 := r.Time(); ok2 {
			return lt.Equal(rt), nil
		}
	}
	return l.Equal(r), nil
}

// compareTerms orders two literals: numerically, temporally or lexically.
func compareTerms(l, r rdf.Term) (int, error) {
	if l.IsNumeric() && r.IsNumeric() {
		lf, _ := l.Float()
		rf, _ := r.Float()
		switch {
		case lf < rf:
			return -1, nil
		case lf > rf:
			return 1, nil
		}
		return 0, nil
	}
	if lt, ok := l.Time(); ok {
		if rt, ok2 := r.Time(); ok2 {
			switch {
			case lt.Before(rt):
				return -1, nil
			case lt.After(rt):
				return 1, nil
			}
			return 0, nil
		}
	}
	if l.IsLiteral() && r.IsLiteral() {
		return strings.Compare(l.Value, r.Value), nil
	}
	return 0, fmt.Errorf("sparql: cannot compare %s and %s", l, r)
}

// ---- builtin functions ----

type termFunc func(args []rdf.Term) (rdf.Term, error)

var builtins = map[string]termFunc{
	"STR": func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("STR takes 1 argument")
		}
		return rdf.NewLiteral(args[0].Value), nil
	},
	"LANG": func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("LANG takes 1 argument")
		}
		return rdf.NewLiteral(args[0].Lang), nil
	},
	"DATATYPE": func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("DATATYPE takes 1 argument")
		}
		return rdf.NewIRI(args[0].Datatype), nil
	},
	"ISIRI": func(args []rdf.Term) (rdf.Term, error) {
		return rdf.NewBool(len(args) == 1 && args[0].IsIRI()), nil
	},
	"ISLITERAL": func(args []rdf.Term) (rdf.Term, error) {
		return rdf.NewBool(len(args) == 1 && args[0].IsLiteral()), nil
	},
	"ISBLANK": func(args []rdf.Term) (rdf.Term, error) {
		return rdf.NewBool(len(args) == 1 && args[0].IsBlank()), nil
	},
	"ISNUMERIC": func(args []rdf.Term) (rdf.Term, error) {
		return rdf.NewBool(len(args) == 1 && args[0].IsNumeric()), nil
	},
	"REGEX": func(args []rdf.Term) (rdf.Term, error) {
		if len(args) < 2 || len(args) > 3 {
			return rdf.Term{}, fmt.Errorf("REGEX takes 2 or 3 arguments")
		}
		re, err := compileRegex(args[1:])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBool(re.MatchString(args[0].Value)), nil
	},
	"STRSTARTS": func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 2 {
			return rdf.Term{}, fmt.Errorf("STRSTARTS takes 2 arguments")
		}
		return rdf.NewBool(strings.HasPrefix(args[0].Value, args[1].Value)), nil
	},
	"STRENDS": func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 2 {
			return rdf.Term{}, fmt.Errorf("STRENDS takes 2 arguments")
		}
		return rdf.NewBool(strings.HasSuffix(args[0].Value, args[1].Value)), nil
	},
	"CONTAINS": func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 2 {
			return rdf.Term{}, fmt.Errorf("CONTAINS takes 2 arguments")
		}
		return rdf.NewBool(strings.Contains(args[0].Value, args[1].Value)), nil
	},
	"STRLEN": func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("STRLEN takes 1 argument")
		}
		return rdf.NewInteger(int64(len([]rune(args[0].Value)))), nil
	},
	"UCASE": func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("UCASE takes 1 argument")
		}
		return rdf.NewLiteral(strings.ToUpper(args[0].Value)), nil
	},
	"LCASE": func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("LCASE takes 1 argument")
		}
		return rdf.NewLiteral(strings.ToLower(args[0].Value)), nil
	},
	"ABS": func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("ABS takes 1 argument")
		}
		f, ok := args[0].Float()
		if !ok {
			return rdf.Term{}, fmt.Errorf("ABS on non-number")
		}
		if f < 0 {
			f = -f
		}
		if args[0].Datatype == rdf.XSDInteger {
			return rdf.NewInteger(int64(f)), nil
		}
		return rdf.NewDouble(f), nil
	},
	"YEAR": func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("YEAR takes 1 argument")
		}
		tm, ok := args[0].Time()
		if !ok {
			return rdf.Term{}, fmt.Errorf("YEAR on non-dateTime")
		}
		return rdf.NewInteger(int64(tm.Year())), nil
	},
	"MONTH": func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("MONTH takes 1 argument")
		}
		tm, ok := args[0].Time()
		if !ok {
			return rdf.Term{}, fmt.Errorf("MONTH on non-dateTime")
		}
		return rdf.NewInteger(int64(tm.Month())), nil
	},
	rdf.XSDDouble: func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("xsd:double takes 1 argument")
		}
		f, ok := args[0].Float()
		if !ok {
			v, err := strconv.ParseFloat(args[0].Value, 64)
			if err != nil {
				return rdf.Term{}, err
			}
			f = v
		}
		return rdf.NewDouble(f), nil
	},
}

// compileRegex compiles REGEX's pattern argument under its optional
// flags argument. The compiled engine calls it once per plan for a
// constant pattern (compileExpr); a pattern bound at run time is
// compiled per call.
func compileRegex(patFlags []rdf.Term) (*regexp.Regexp, error) {
	pat := patFlags[0].Value
	if len(patFlags) == 2 && strings.Contains(patFlags[1].Value, "i") {
		pat = "(?i)" + pat
	}
	return regexp.Compile(pat)
}
