package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, type-checked package.
type Package struct {
	Pass       *Pass
	TypeErrors []error
}

// Loader discovers, parses, and type-checks packages of the enclosing
// module using only the standard library. File discovery walks the
// module tree the way `go build ./...` would. Each module package is
// type-checked once: an import of another module package is served from
// the loader's own result, and every other import (the standard
// library) from compiler export data by the "gc" importer, which asks
// the go command on PATH where that data lives. A Loader is not safe for
// concurrent use.
type Loader struct {
	Fset *token.FileSet
	gc   types.Importer

	root, module string              // set by Load
	pkgs         map[string]*Package // by import path; nil when a dir has no Go files
	loading      map[string]bool     // import paths being type-checked
}

// NewLoader returns a Loader with a fresh file set and import cache.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		gc:      importer.ForCompiler(fset, "gc", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// Load resolves patterns (directories, or dir/... for recursive walks;
// "./..." is the usual invocation) into type-checked packages, sorted by
// import path. Test files are skipped: the lint gate covers production
// code, `go test -race` covers the tests themselves.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	root, module, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	l.root, l.module = root, module
	dirs, err := expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%s is outside module root %s", dir, root)
		}
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Pass.Path < pkgs[j].Pass.Path })
	return pkgs, nil
}

// Import implements types.Importer for the packages the loader checks.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.module == "" || (path != l.module && !strings.HasPrefix(path, l.module+"/")) {
		return l.gc.Import(path)
	}
	pkg, err := l.load(path)
	switch {
	case err != nil:
		return nil, err
	case pkg == nil:
		return nil, fmt.Errorf("no Go files for %s", path)
	case len(pkg.TypeErrors) > 0:
		return pkg.Pass.Pkg, fmt.Errorf("%s does not type-check", path)
	}
	return pkg.Pass.Pkg, nil
}

// CheckSource parses and type-checks a single in-memory file as a
// package with the given import path — the fixture entry point for the
// checker tests. The result is not kept for later imports.
func (l *Loader) CheckSource(path, src string) (*Pass, error) {
	file, err := parser.ParseFile(l.Fset, strings.ReplaceAll(path, "/", "_")+".go", src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	pass, errs := l.typeCheck(path, []*ast.File{file})
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, errs[0])
	}
	return pass, nil
}

// load type-checks the module package at import path path, once; nil
// when its directory holds no buildable Go files.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, done := l.pkgs[path]; done {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		// Parse under the module-root-relative name: positions stay
		// stable no matter which directory the linter is invoked from.
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, filepath.ToSlash(filepath.Join(rel, name)), src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var pkg *Package
	if len(files) > 0 {
		pass, typeErrs := l.typeCheck(path, files)
		pkg = &Package{Pass: pass, TypeErrors: typeErrs}
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// typeCheck runs go/types over the files, collecting rather than failing
// on type errors so checkers see best-effort info.
func (l *Loader) typeCheck(path string, files []*ast.File) (*Pass, []error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(path, l.Fset, files, info)
	return &Pass{Fset: l.Fset, Path: path, Files: files, Pkg: pkg, Info: info}, typeErrs
}

// moduleRoot finds the enclosing go.mod and returns its directory and
// module path.
func moduleRoot() (dir, module string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// expandPatterns turns CLI patterns into a deduplicated directory list.
func expandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, p := range patterns {
		if base, ok := strings.CutSuffix(p, "/..."); ok {
			if base == "" || base == "." {
				base = "."
			}
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			return nil, fmt.Errorf("pattern %q is not a directory", p)
		}
		add(p)
	}
	return dirs, nil
}
