package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// closeflowChecker proves, per function, that every opened io.Closer
// (files, connections, listeners, gzip writers, HTTP response bodies…)
// is closed or escapes the function on every path. "Escapes" means the
// value itself is returned, stored, sent, captured by a closure, or
// passed to another call — ownership moved, so closing is someone
// else's job. An `if err != nil` branch guarding the open is understood:
// on the failure edge the resource does not exist.
func closeflowChecker() Checker {
	return Checker{
		Name: "closeflow",
		Doc:  "every opened io.Closer/net.Conn/response body is closed or escapes on all paths",
		Run:  runCloseflow,
	}
}

// Resource-state bits.
const (
	cfOpen     uint8 = 1 << iota // may be open and owned here
	cfClosed                     // closed (or the open failed)
	cfEsc                        // ownership escaped
	cfErrStale                   // the open's err was reassigned: nil-check refinement is off
)

type closeFact struct {
	valid bool
	m     map[*types.Var]uint8
}

func cfBottom() closeFact { return closeFact{} }

func cfJoin(a, b closeFact) closeFact {
	if !a.valid {
		return b
	}
	if !b.valid {
		return a
	}
	out := closeFact{valid: true, m: map[*types.Var]uint8{}}
	for v, av := range a.m {
		out.m[v] = av | b.m[v]
	}
	for v, bv := range b.m {
		if _, ok := a.m[v]; !ok {
			out.m[v] = bv
		}
	}
	return out
}

func cfEqual(a, b closeFact) bool {
	if a.valid != b.valid || len(a.m) != len(b.m) {
		return false
	}
	for v, av := range a.m {
		if b.m[v] != av {
			return false
		}
	}
	return true
}

func (f closeFact) clone() closeFact {
	out := closeFact{valid: true, m: make(map[*types.Var]uint8, len(f.m))}
	for v, bits := range f.m {
		out.m[v] = bits
	}
	return out
}

// openSite records where a tracked resource was opened and the error
// variable assigned alongside it (nil when the open cannot fail).
type openSite struct {
	assign  ast.Node // the AssignStmt / ValueSpec
	pos     token.Pos
	errVar  *types.Var
	isBody  bool // *http.Response: close resp.Body, not resp
	varName string
}

func runCloseflow(pass *Pass) []Finding {
	var out []Finding
	for _, file := range pass.Files {
		for _, fb := range collectFuncBodies(file) {
			out = append(out, closeflowFunc(pass, fb)...)
		}
	}
	return out
}

func closeflowFunc(pass *Pass, fb funcBody) []Finding {
	opens := map[*types.Var]*openSite{}
	collectOpens(pass, fb.body, opens)
	if len(opens) == 0 {
		return nil
	}

	cfg := BuildCFG(pass.Info, fb.body)

	tracked := func(id *ast.Ident) *types.Var {
		v, _ := pass.Info.Uses[id].(*types.Var)
		if v == nil {
			v, _ = pass.Info.Defs[id].(*types.Var)
		}
		if v != nil {
			if _, ok := opens[v]; ok {
				return v
			}
		}
		return nil
	}

	transfer := func(blk *Block, in closeFact) closeFact {
		f := in
		if !f.valid {
			f = closeFact{valid: true, m: map[*types.Var]uint8{}}
		} else {
			f = f.clone()
		}
		for _, node := range blk.Nodes {
			closes, escapes := resourceEvents(node, tracked)
			// The node may itself be an open: (re)set to Open last so a
			// same-statement use does not clobber it.
			var opened []*types.Var
			for v, site := range opens {
				if site.assign == node {
					opened = append(opened, v)
				}
			}
			for _, v := range closes {
				f.m[v] = cfClosed
			}
			for _, v := range escapes {
				f.m[v] = cfEsc
			}
			// A write to an open's error variable (by anything but that
			// open itself) makes the `if err != nil` refinement unsound
			// for it: err no longer reports on the open.
			if as, ok := node.(*ast.AssignStmt); ok {
				for _, l := range as.Lhs {
					id, ok := l.(*ast.Ident)
					if !ok {
						continue
					}
					obj := types.Object(nil)
					if d, ok := pass.Info.Defs[id]; ok {
						obj = d
					} else if u, ok := pass.Info.Uses[id]; ok {
						obj = u
					}
					if obj == nil {
						continue
					}
					for v, site := range opens {
						if site.errVar != nil && obj == types.Object(site.errVar) && site.assign != node {
							if bits, ok := f.m[v]; ok {
								f.m[v] = bits | cfErrStale
							}
						}
					}
				}
			}
			for _, v := range opened {
				f.m[v] = cfOpen
			}
		}
		return f
	}

	// Edge refinement: on the "open failed" edge of `if err != nil` /
	// `err == nil`, the resources whose open produced that err are not
	// open.
	edge := func(from *Block, succIdx int, out closeFact) closeFact {
		errObj := condNilCheckVar(pass.Info, from.Cond)
		if errObj == nil || !out.valid {
			return out
		}
		failed := condFailedEdge(from.Cond, succIdx)
		if !failed {
			return out
		}
		refined := out.clone()
		for v, site := range opens {
			if site.errVar == errObj {
				if bits, ok := refined.m[v]; ok && bits&cfErrStale == 0 {
					refined.m[v] = cfClosed
				}
			}
		}
		return refined
	}

	facts := Solve(cfg, Problem[closeFact]{
		Forward:  true,
		Boundary: closeFact{valid: true, m: map[*types.Var]uint8{}},
		Bottom:   cfBottom,
		Join:     cfJoin,
		Equal:    cfEqual,
		Transfer: transfer,
		Edge:     edge,
	})

	exit, ok := facts[cfg.Exit]
	if !ok || !exit.In.valid {
		return nil
	}

	var leaks []*types.Var
	for v, bits := range exit.In.m {
		if bits&cfOpen != 0 {
			leaks = append(leaks, v)
		}
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].Pos() < leaks[j].Pos() })

	var out []Finding
	for _, v := range leaks {
		site := opens[v]
		target := site.varName
		if site.isBody {
			target += ".Body"
		}
		out = append(out, pass.finding(site.pos, "closeflow",
			"%s opened here may not be closed on every path out of the function; close it or add defer %s.Close()", site.varName, target))
	}
	return out
}

// collectOpens finds assignments that open a tracked resource:
// `x, err := open(...)` / `x := open(...)` / `var x = open(...)` where
// x's type is closeable and the callee looks like a constructor.
func collectOpens(pass *Pass, body ast.Node, opens map[*types.Var]*openSite) {
	record := func(node ast.Node, lhs []ast.Expr, rhs []ast.Expr) {
		if len(rhs) == 0 {
			return
		}
		call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
		if !ok || len(rhs) != 1 || !isOpenCall(pass.Info, call) {
			return
		}
		var errVar *types.Var
		var res []*types.Var
		var names []string
		var isBody []bool
		for _, l := range lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			v, _ := pass.Info.Defs[id].(*types.Var)
			if v == nil {
				v, _ = pass.Info.Uses[id].(*types.Var)
			}
			if v == nil {
				continue
			}
			if isErrorType(v.Type()) {
				errVar = v
				continue
			}
			if body, ok := closeableType(v.Type()); ok {
				res = append(res, v)
				names = append(names, id.Name)
				isBody = append(isBody, body)
			}
		}
		for i, v := range res {
			opens[v] = &openSite{assign: node, pos: v.Pos(), errVar: errVar, isBody: isBody[i], varName: names[i]}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			record(s, s.Lhs, s.Rhs)
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						lhs := make([]ast.Expr, len(vs.Names))
						for i, n := range vs.Names {
							lhs[i] = n
						}
						record(s, lhs, vs.Values)
					}
				}
			}
		}
		return true
	})
}

// isOpenCall reports whether the call plausibly transfers ownership of a
// fresh resource to the caller: a constructor-shaped callee or a
// function that returns (T, error). Type conversions never open.
func isOpenCall(info *types.Info, call *ast.CallExpr) bool {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		// Calls through function values: trust the (T, error) shape.
		return resultsIncludeError(info, call)
	}
	name := fn.Name()
	for _, prefix := range []string{"New", "Open", "Dial", "Listen", "Create", "Accept", "Connect", "Get", "Post", "Do", "RoundTrip", "Load", "Temp", "Start"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return resultsIncludeError(info, call)
}

// closeableType reports whether t is a tracked resource type. The bool
// result is true for *http.Response (closed via .Body).
func closeableType(t types.Type) (viaBody bool, ok bool) {
	if named := derefNamed(t); named != nil {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Response" {
			return true, true
		}
		// Never track the types the linter's own engine hands out
		// non-owned (contexts, iterators); only things with Close()error.
	}
	m := lookupCloseMethod(t)
	if m == nil {
		return false, false
	}
	return false, true
}

// lookupCloseMethod returns t's Close() error method, if any.
func lookupCloseMethod(t types.Type) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Close")
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return nil
	}
	return fn
}

// resourceEvents scans one CFG node for closes and escapes of tracked
// variables. A use inside a function literal is an escape (the closure
// may outlive the frame); `x.Close()` and `x.Body.Close()` are closes;
// x passed as an argument, returned, assigned away, sent, aggregated, or
// address-taken escapes; a method call or field read on x is plain use.
func resourceEvents(node ast.Node, tracked func(*ast.Ident) *types.Var) (closes, escapes []*types.Var) {
	var stack []ast.Node
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v := tracked(id)
		if v == nil {
			return true
		}
		for _, anc := range stack[:len(stack)-1] {
			if _, ok := anc.(*ast.FuncLit); ok {
				escapes = append(escapes, v)
				return true
			}
		}
		parent := ast.Node(nil)
		if len(stack) >= 2 {
			parent = stack[len(stack)-2]
		}
		grand := ast.Node(nil)
		if len(stack) >= 3 {
			grand = stack[len(stack)-3]
		}
		great := ast.Node(nil)
		if len(stack) >= 4 {
			great = stack[len(stack)-4]
		}
		switch p := parent.(type) {
		case *ast.SelectorExpr:
			if p.X != id {
				return true // the ident is the .Sel side of someone else's selector
			}
			// x.Close() ?
			if p.Sel.Name == "Close" {
				if c, ok := grand.(*ast.CallExpr); ok && c.Fun == p {
					closes = append(closes, v)
					return true
				}
			}
			// x.Body.Close() ?
			if p.Sel.Name == "Body" {
				if s2, ok := grand.(*ast.SelectorExpr); ok && s2.Sel.Name == "Close" {
					if c, ok := great.(*ast.CallExpr); ok && c.Fun == s2 {
						closes = append(closes, v)
						return true
					}
				}
			}
			// Other method call / field read: plain use, ownership kept.
			return true
		case *ast.CallExpr:
			for _, a := range p.Args {
				if a == ast.Expr(id) {
					escapes = append(escapes, v)
					return true
				}
			}
			return true
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			escapes = append(escapes, v)
			return true
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				escapes = append(escapes, v)
			}
			return true
		case *ast.AssignStmt:
			for _, r := range p.Rhs {
				if r == ast.Expr(id) {
					escapes = append(escapes, v)
					return true
				}
			}
			return true // LHS position: the open itself, or a kill
		case *ast.BinaryExpr, *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.ForStmt, *ast.RangeStmt, *ast.ExprStmt, *ast.ValueSpec, *ast.ParenExpr, *ast.IndexExpr, *ast.CaseClause:
			return true // comparison / plain statement context: use, not escape
		default:
			// Unknown context (type asserts, conversions, slices…):
			// conservatively treat as escape so we never cry wolf.
			escapes = append(escapes, v)
			return true
		}
	})
	return closes, escapes
}

// condNilCheckVar matches `err != nil` / `err == nil` conditions and
// returns the error variable, else nil.
func condNilCheckVar(info *types.Info, cond ast.Expr) *types.Var {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil
	}
	for _, pair := range [][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		id, ok := ast.Unparen(pair[0]).(*ast.Ident)
		if !ok {
			continue
		}
		nilIdent, ok := ast.Unparen(pair[1]).(*ast.Ident)
		if !ok || nilIdent.Name != "nil" {
			continue
		}
		if v, ok := info.Uses[id].(*types.Var); ok && isErrorType(v.Type()) {
			return v
		}
	}
	return nil
}

// condFailedEdge reports whether succIdx is the edge on which the
// nil-checked error is non-nil (the open failed). The true edge is
// succ 0.
func condFailedEdge(cond ast.Expr, succIdx int) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case token.NEQ:
		return succIdx == 0
	case token.EQL:
		return succIdx == 1
	}
	return false
}
