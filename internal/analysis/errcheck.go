package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// neverFailWriters are receiver/argument types whose Write-family
// methods are documented (or guaranteed by construction) never to return
// a non-nil error: in-memory buffers and hashes. Dropping their errors
// is idiomatic, so fmt.Fprint* into them and their own methods are
// allowlisted.
var neverFailWriters = map[string]bool{
	"bytes.Buffer":     true,
	"*bytes.Buffer":    true,
	"strings.Builder":  true,
	"*strings.Builder": true,
	"hash.Hash":        true,
	"hash.Hash32":      true,
	"hash.Hash64":      true,
}

// errcheckChecker flags statements that drop an error result on the
// floor. It is scoped to internal/... packages: the cmd/ and examples/
// trees are demo drivers where best-effort printing is the point.
func errcheckChecker() Checker {
	return Checker{
		Name: "errcheck",
		Doc:  "error results in internal/... must be handled or explicitly assigned",
		Run:  runErrcheck,
	}
}

func runErrcheck(pass *Pass) []Finding {
	if !strings.Contains(pass.Path, "internal/") {
		return nil
	}
	var out []Finding
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok || !resultsIncludeError(pass.Info, call) {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if errAllowlisted(pass.Info, call, fn) {
				return true
			}
			out = append(out, pass.finding(call.Pos(), "errcheck",
				"result of %s includes an error that is dropped; handle it or assign explicitly", calleeName(fn, call)))
			return true
		})
	}
	return out
}

// errAllowlisted reports whether the dropped error is one of the
// sanctioned cases: fmt printing to stdout, fmt.Fprint* into a
// never-fail writer, or a method called on a never-fail writer.
func errAllowlisted(info *types.Info, call *ast.CallExpr, fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		if strings.HasPrefix(fn.Name(), "Print") {
			return true
		}
		if strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 0 {
			return neverFailWriters[exprTypeString(info, call.Args[0])]
		}
		return false
	}
	// Judge methods by the static type of the value they are called on
	// (hash.Hash32's Write resolves to io.Writer's; the operand type is
	// what the reader sees).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if neverFailWriters[exprTypeString(info, sel.X)] {
			return true
		}
	}
	return neverFailWriters[recvTypeString(fn)]
}

// exprTypeString renders the static type of expr with full package
// paths, or "".
func exprTypeString(info *types.Info, expr ast.Expr) string {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return ""
	}
	return types.TypeString(tv.Type, nil)
}

// calleeName renders the callee for the finding message.
func calleeName(fn *types.Func, call *ast.CallExpr) string {
	if fn == nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.Sel.Name
		}
		return "call"
	}
	if recv := recvTypeString(fn); recv != "" {
		return "(" + recv + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
