package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// errflowChecker tracks assigned error variables through the CFG: an
// err that received a (possibly non-nil) value must be read — checked,
// returned, passed on, logged — before it is overwritten and before
// every path out of the function. This is the dataflow upgrade of the
// AST errcheck: it catches the partial-results/demotion style bugs
// where a fallback path quietly clobbers the error that mattered.
func errflowChecker() Checker {
	return Checker{
		Name: "errflow",
		Doc:  "an assigned err must be checked before being overwritten or falling off a return path",
		Run:  runErrflow,
	}
}

const (
	efUnchecked uint8 = 1 << iota // holds a value nobody has looked at
	efChecked                     // read since last assignment (or nil)
)

type errInfo struct {
	bits uint8
	pos  token.Pos // the unchecked assignment, for messages
}

type errFact struct {
	valid bool
	m     map[*types.Var]errInfo
}

func efBottom() errFact { return errFact{} }

func efJoin(a, b errFact) errFact {
	if !a.valid {
		return b
	}
	if !b.valid {
		return a
	}
	out := errFact{valid: true, m: map[*types.Var]errInfo{}}
	for v, ai := range a.m {
		if bi, ok := b.m[v]; ok {
			pos := ai.pos
			if bi.pos != token.NoPos && (pos == token.NoPos || bi.pos < pos) {
				pos = bi.pos
			}
			out.m[v] = errInfo{bits: ai.bits | bi.bits, pos: pos}
		} else {
			out.m[v] = ai
		}
	}
	for v, bi := range b.m {
		if _, ok := a.m[v]; !ok {
			out.m[v] = bi
		}
	}
	return out
}

func efEqual(a, b errFact) bool {
	if a.valid != b.valid || len(a.m) != len(b.m) {
		return false
	}
	for v, ai := range a.m {
		if b.m[v] != ai {
			return false
		}
	}
	return true
}

func (f errFact) clone() errFact {
	out := errFact{valid: true, m: make(map[*types.Var]errInfo, len(f.m))}
	for v, i := range f.m {
		out.m[v] = i
	}
	return out
}

func mustUnchecked(i errInfo) bool { return i.bits&efUnchecked != 0 && i.bits&efChecked == 0 }

func runErrflow(pass *Pass) []Finding {
	var out []Finding
	for _, file := range pass.Files {
		for _, fb := range collectFuncBodies(file) {
			out = append(out, errflowFunc(pass, fb)...)
		}
	}
	return out
}

func errflowFunc(pass *Pass, fb funcBody) []Finding {
	tracked := errflowTracked(pass, fb)
	if len(tracked) == 0 {
		return nil
	}
	namedResults := errflowNamedResults(pass, fb)

	cfg := BuildCFG(pass.Info, fb.body)
	var out []Finding

	// Overwrite findings are recorded only by the Replay over the
	// converged facts, so each assignment reports once.
	report := false
	transfer := func(blk *Block, in errFact) errFact {
		f := in
		if !f.valid {
			f = errFact{valid: true, m: map[*types.Var]errInfo{}}
		} else {
			f = f.clone()
		}
		for _, node := range blk.Nodes {
			// Reads first: every use of a tracked var outside the write
			// position of this very node counts as a check. Uses inside
			// nested function literals count too — the closure may
			// inspect the error later.
			writes := map[*ast.Ident]bool{}
			if as, ok := node.(*ast.AssignStmt); ok {
				for _, l := range as.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						writes[id] = true
					}
				}
			}
			ast.Inspect(node, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || writes[id] {
					return true
				}
				v, _ := pass.Info.Uses[id].(*types.Var)
				if v == nil || !tracked[v] {
					return true
				}
				if i, ok := f.m[v]; ok {
					i.bits = efChecked
					i.pos = token.NoPos
					f.m[v] = i
				} else {
					f.m[v] = errInfo{bits: efChecked}
				}
				return true
			})

			switch s := node.(type) {
			case *ast.AssignStmt:
				for li, l := range s.Lhs {
					id, ok := l.(*ast.Ident)
					if !ok {
						continue
					}
					v, _ := pass.Info.Defs[id].(*types.Var)
					if v == nil {
						v, _ = pass.Info.Uses[id].(*types.Var)
					}
					if v == nil || !tracked[v] {
						continue
					}
					if old, ok := f.m[v]; ok && report && mustUnchecked(old) {
						out = append(out, pass.finding(id.Pos(), "errflow",
							"this assignment overwrites the error assigned at line %d before anyone checked it",
							pass.Fset.Position(old.pos).Line))
					}
					if len(s.Lhs) == len(s.Rhs) && isNilIdent(s.Rhs[li]) {
						f.m[v] = errInfo{bits: efChecked}
					} else {
						f.m[v] = errInfo{bits: efUnchecked, pos: id.Pos()}
					}
				}
			case *ast.DeclStmt:
				if gd, ok := s.Decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for ni, name := range vs.Names {
							v, _ := pass.Info.Defs[name].(*types.Var)
							if v == nil || !tracked[v] {
								continue
							}
							if len(vs.Values) == 0 || (len(vs.Values) == len(vs.Names) && isNilIdent(vs.Values[ni])) {
								f.m[v] = errInfo{bits: efChecked} // nil: nothing to lose
							} else {
								f.m[v] = errInfo{bits: efUnchecked, pos: name.Pos()}
							}
						}
					}
				}
			case *ast.ReturnStmt:
				if len(s.Results) == 0 {
					// Naked return hands the named results to the caller.
					for v := range namedResults {
						f.m[v] = errInfo{bits: efChecked}
					}
				}
			}
		}
		return f
	}

	facts := Solve(cfg, Problem[errFact]{
		Forward:  true,
		Boundary: errFact{valid: true, m: map[*types.Var]errInfo{}},
		Bottom:   efBottom,
		Join:     efJoin,
		Equal:    efEqual,
		Transfer: transfer,
	})
	report = true
	Replay(cfg, facts, transfer)

	if exit, ok := facts[cfg.Exit]; ok && exit.In.valid {
		var leaks []*types.Var
		for v, i := range exit.In.m {
			if mustUnchecked(i) {
				leaks = append(leaks, v)
			}
		}
		sort.Slice(leaks, func(i, j int) bool { return exit.In.m[leaks[i]].pos < exit.In.m[leaks[j]].pos })
		for _, v := range leaks {
			out = append(out, pass.finding(exit.In.m[v].pos, "errflow",
				"error assigned to %s here is never checked before the function returns", v.Name()))
		}
	}
	return out
}

// errflowTracked collects the error-typed variables declared inside this
// function body, plus its named error results. Captured outer variables
// are deliberately excluded: their lifetime spans frames.
func errflowTracked(pass *Pass, fb funcBody) map[*types.Var]bool {
	tracked := map[*types.Var]bool{}
	ast.Inspect(fb.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != fb.body {
			return false // nested literal: its own analysis unit
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := pass.Info.Defs[id].(*types.Var); ok && v != nil && v.Name() != "_" && isErrorType(v.Type()) {
			tracked[v] = true
		}
		return true
	})
	for v := range errflowNamedResults(pass, fb) {
		tracked[v] = true
	}
	return tracked
}

// errflowNamedResults returns the function's named error results.
func errflowNamedResults(pass *Pass, fb funcBody) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	var results *ast.FieldList
	if fb.lit != nil {
		results = fb.lit.Type.Results
	} else if fb.decl != nil {
		results = fb.decl.Type.Results
	}
	if results == nil {
		return out
	}
	for _, field := range results.List {
		for _, name := range field.Names {
			if v, ok := pass.Info.Defs[name].(*types.Var); ok && v != nil && v.Name() != "_" && isErrorType(v.Type()) {
				out[v] = true
			}
		}
	}
	return out
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
