package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxflowChecker: a row/triple loop inside the compiled SPARQL engine's
// plan-execution surface must hit a cancellation checkpoint on EVERY
// path through an iteration, not merely contain one somewhere (a hash
// join's build loop that never polled is the bug it was written for). A loop whose whole batch
// was pre-charged by an `ec.tickN(&n, len(xs))` immediately before it
// is exempt — that is the engine's documented bulk-accounting idiom.
func ctxflowChecker() Checker {
	return Checker{
		Name: "ctxflow",
		Doc:  "row loops in sparql plan operators must poll the execution context on every path through an iteration (or be tickN pre-charged)",
		Run:  runCtxflow,
	}
}

// ctxflowPathSuffix scopes the rule to the compiled engine.
const ctxflowPathSuffix = "internal/sparql"

func runCtxflow(pass *Pass) []Finding {
	if pass.Path != ctxflowPathSuffix && !strings.HasSuffix(pass.Path, "/"+ctxflowPathSuffix) {
		return nil
	}
	var out []Finding
	for _, file := range pass.Files {
		for _, fb := range collectFuncBodies(file) {
			if fb.decl == nil || !isPlanOperatorFunc(pass.Info, fb.decl) {
				continue
			}
			out = append(out, ctxflowFunc(pass, fb)...)
		}
	}
	return out
}

// ctxflowFunc checks every solution loop in one function body (a plan
// operator's declaration body, or a literal inside one — the chunked
// drain callbacks live in literals).
func ctxflowFunc(pass *Pass, fb funcBody) []Finding {
	hasLoop := false
	ast.Inspect(fb.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.RangeStmt); ok {
			hasLoop = true
		}
		return !hasLoop
	})
	if !hasLoop {
		return nil
	}

	cfg := BuildCFG(pass.Info, fb.body)
	var out []Finding
	for _, loop := range cfg.Loops {
		rng, ok := loop.Stmt.(*ast.RangeStmt)
		if !ok || !rangesOverSolutions(pass.Info, rng) {
			continue
		}
		if tickNPrecharged(pass.Info, fb.body, rng) {
			continue
		}
		if blk := untickedPath(pass.Info, cfg, loop); blk != nil {
			out = append(out, pass.finding(rng.Pos(), "ctxflow",
				"row loop in plan operator has an iteration path with no cancellation checkpoint; call the execCtx tick/checkpoint helpers (or check ctx.Err / the budget) on every path, or tickN-precharge the batch"))
		}
	}
	return out
}

// tickNPrecharged recognizes the engine's bulk-accounting idiom: the
// statement immediately before the loop charges the whole batch —
// it contains a call to an execCtx tick/tickN method whose arguments
// include `len(X)` where X is exactly the loop's range expression.
func tickNPrecharged(info *types.Info, body ast.Node, rng *ast.RangeStmt) bool {
	prev := prevSiblingStmt(body, rng)
	if prev == nil {
		return false
	}
	want := types.ExprString(rng.X)
	found := false
	ast.Inspect(prev, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "tick" && sel.Sel.Name != "tickN" {
			return true
		}
		if tv, ok := info.Types[sel.X]; !ok || namedTypeName(tv.Type) != "execCtx" {
			return true
		}
		for _, arg := range call.Args {
			if lenCall, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(lenCall.Fun).(*ast.Ident); ok && id.Name == "len" && len(lenCall.Args) == 1 {
					if types.ExprString(lenCall.Args[0]) == want {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// prevSiblingStmt returns the statement immediately preceding target in
// its enclosing statement list, or nil.
func prevSiblingStmt(root ast.Node, target ast.Stmt) ast.Stmt {
	var out ast.Stmt
	ast.Inspect(root, func(n ast.Node) bool {
		var list []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			return true
		}
		for i, s := range list {
			if s == ast.Stmt(target) && i > 0 {
				out = list[i-1]
			}
		}
		return true
	})
	return out
}

// untickedPath runs a must-analysis over the loop body's blocks: every
// path from the body entry back to the loop head must pass a
// cancellation checkpoint. It returns a block whose back edge carries an
// unticked path, or nil when the loop is clean. Break/return paths are
// irrelevant — the loop ends there anyway.
func untickedPath(info *types.Info, cfg *CFG, loop Loop) *Block {
	const (
		stBottom uint8 = iota
		stTicked
		stUnticked
	)
	join := func(a, b uint8) uint8 {
		switch {
		case a == stBottom:
			return b
		case b == stBottom:
			return a
		case a == stUnticked || b == stUnticked:
			return stUnticked
		default:
			return stTicked
		}
	}

	// Body-only region: reachable from loop.Body without crossing the
	// head (back edge) or the after block (break/exit paths).
	region := map[*Block]bool{}
	stack := []*Block{loop.Body}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if region[b] || b == loop.Head || b == loop.After {
			continue
		}
		region[b] = true
		stack = append(stack, b.Succs...)
	}

	ticks := map[*Block]bool{}
	for b := range region {
		for _, node := range b.Nodes {
			if containsCancellationCheck(info, node) {
				ticks[b] = true
				break
			}
		}
	}

	in := map[*Block]uint8{}
	out := map[*Block]uint8{}
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			if !region[b] {
				continue
			}
			v := uint8(stBottom)
			if b == loop.Body {
				v = stUnticked // iteration starts unticked
			}
			for _, p := range cfg.Blocks {
				if !region[p] {
					continue
				}
				for _, s := range p.Succs {
					if s == b {
						v = join(v, out[p])
					}
				}
			}
			o := v
			if ticks[b] {
				o = stTicked
			}
			if in[b] != v || out[b] != o {
				in[b], out[b] = v, o
				changed = true
			}
		}
	}

	for _, b := range cfg.Blocks {
		if !region[b] || out[b] != stUnticked {
			continue
		}
		for _, s := range b.Succs {
			if s == loop.Head {
				return b
			}
		}
	}
	return nil
}

// isPlanOperatorFunc reports whether fn is part of the plan-execution
// surface: its receiver or a parameter carries the engine's execution
// context (a type named execCtx).
func isPlanOperatorFunc(info *types.Info, fn *ast.FuncDecl) bool {
	var fields []*ast.Field
	if fn.Recv != nil {
		fields = append(fields, fn.Recv.List...)
	}
	if fn.Type.Params != nil {
		fields = append(fields, fn.Type.Params.List...)
	}
	for _, f := range fields {
		if tv, ok := info.Types[f.Type]; ok && namedTypeName(tv.Type) == "execCtx" {
			return true
		}
	}
	return false
}

// rangesOverSolutions reports whether the range expression iterates
// solution material: a slice of rows (the engine's flat []rdf.Term
// binding rows) or of matched triples.
func rangesOverSolutions(info *types.Info, rng *ast.RangeStmt) bool {
	tv, ok := info.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	switch name := namedTypeName(sl.Elem()); name {
	case "row", "Triple":
		return true
	}
	// []row chunks ([][]row) count too: draining a chunk is still a row
	// loop.
	if inner, ok := sl.Elem().Underlying().(*types.Slice); ok {
		return namedTypeName(inner.Elem()) == "row"
	}
	return false
}

// containsCancellationCheck walks body looking for any recognized
// checkpoint: a method call on the execCtx (tick, checkpoint, match, or
// future helpers), an Err/Done call (context polling), or a method call
// on an admission Budget.
func containsCancellationCheck(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// ctx.Err() / ctx.Done() / <-budget channels etc.: the method
		// name alone marks context polling.
		if sel.Sel.Name == "Err" || sel.Sel.Name == "Done" {
			found = true
			return false
		}
		if tv, ok := info.Types[sel.X]; ok {
			switch namedTypeName(tv.Type) {
			case "execCtx", "Budget":
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// namedTypeName unwraps pointers and returns the bare name of the named
// type beneath ("execCtx", "row", "Triple"), or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if named := derefNamed(t); named != nil {
		return named.Obj().Name()
	}
	return ""
}
