// Package analysis is the repo-specific static-analysis toolkit behind
// cmd/applab-lint. It is written against the standard library only
// (go/ast, go/parser, go/types, go/token, go/importer) to match the
// module's dependency-free go.mod.
//
// Each checker pins a bug class this codebase has had: dropped errors
// (errcheck), map fields written from goroutines with no mutex in the
// struct (sharedmap), and engine row loops that never poll cancellation
// (ctxflow).
//
// Findings can be suppressed with a directive on the offending line or
// the line above:
//
//	//lint:ignore <check> reason: <why>
//
// The reason: prefix is mandatory; a directive without one is itself
// reported, as is a directive that no longer suppresses anything.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one diagnostic produced by a checker.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the finding in the driver's file:line: [check] message
// format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Pass is the per-package unit of work handed to every checker: the
// parsed files plus best-effort type information. Type info may be
// partial when the package has type errors; checkers must tolerate nil
// lookups.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path, e.g. applab/internal/opendap
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Checker is one composable analysis.
type Checker struct {
	Name string
	Doc  string
	Run  func(*Pass) []Finding
}

// All returns every registered checker in deterministic order.
func All() []Checker {
	return []Checker{
		ctxflowChecker(),
		errcheckChecker(),
		sharedmapChecker(),
	}
}

// RunAll applies the checkers to the pass and returns the surviving
// findings (suppressions applied), sorted by position. Suppressions
// that match nothing are reported as "directive" findings.
func RunAll(pass *Pass, checkers []Checker) []Finding {
	var out []Finding
	for _, c := range checkers {
		out = append(out, c.Run(pass)...)
	}
	out = append(out, suppress(pass, &out)...)
	SortFindings(out)
	return out
}

// SortFindings orders findings by file, line, column, then check name.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}

// ---- shared type-info helpers ----

// calleeFunc resolves the static callee of a call, or nil for calls
// through function values and other dynamic forms. Explicit generic
// instantiations (f[int](), pkg.F[K, V]()) resolve to the generic
// function object.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch inst := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(inst.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(inst.X)
	}
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// recvTypeString returns the receiver type of a method callee rendered
// with full package paths ("*bytes.Buffer", "hash.Hash32"), or "".
func recvTypeString(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return types.TypeString(sig.Recv().Type(), nil)
}

// derefNamed unwraps pointers and returns the *types.Named beneath, if
// any.
func derefNamed(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// resultsIncludeError reports whether the call's result type contains an
// error value.
func resultsIncludeError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

// finding builds a Finding at pos.
func (p *Pass) finding(pos token.Pos, check, format string, args ...any) Finding {
	return Finding{Pos: p.Fset.Position(pos), Check: check, Message: fmt.Sprintf(format, args...)}
}
