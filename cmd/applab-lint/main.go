// Command applab-lint is the repo-specific static-analysis gate: errcheck
// and sharedmap (syntactic, over go/types) and ctxflow (path-sensitive,
// over a control-flow graph), built on the standard library only (see
// internal/analysis).
//
// Usage:
//
//	applab-lint [packages]
//
// Packages are directories or dir/... patterns; the default is ./...
// from the module root. The go command must be on PATH: standard-library
// imports are read from compiler export data, which it locates. Findings
// print as
//
//	file:line:col: [check] message
//
// sorted by (file, line, col, check), with module-root-relative paths,
// so output is byte-stable across runs and machines.
//
// Exit status: 0 clean, 1 findings, 2 usage/load/type-check errors —
// a broken load can never masquerade as a clean run.
package main

import (
	"flag"
	"fmt"
	"os"

	"applab/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	flag.Parse()

	loader := analysis.NewLoader()
	pkgs, err := loader.Load(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "applab-lint:", err)
		return 2
	}

	broken := false
	var findings []analysis.Finding
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			broken = true
			fmt.Fprintf(os.Stderr, "applab-lint: %s: %v\n", pkg.Pass.Path, terr)
		}
		findings = append(findings, analysis.RunAll(pkg.Pass, analysis.All())...)
	}
	analysis.SortFindings(findings)
	for _, f := range findings {
		fmt.Println(f)
	}

	switch {
	case broken:
		fmt.Fprintln(os.Stderr, "applab-lint: analysis incomplete: packages failed to type-check")
		return 2
	case len(findings) > 0:
		fmt.Fprintf(os.Stderr, "applab-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
