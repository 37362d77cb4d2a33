package analysis_test

import (
	"strings"
	"testing"

	"applab/internal/analysis"
)

// loader is shared across all checker tests so its importer reads each
// standard-library package's export data once.
var loader = analysis.NewLoader()

// checkerCase is one table entry: an in-memory fixture, the checker to
// run, and the findings it must (or must not) produce.
type checkerCase struct {
	name string
	path string // import path of the fixture; defaults to applab/internal/fixture
	src  string
	want int // expected finding count
	// wantSubstr, when set, must appear in every finding message.
	wantSubstr string
}

// runChecker type-checks the fixture and runs one checker over it, with
// //lint:ignore suppression applied exactly as the driver does.
func runChecker(t *testing.T, check string, c checkerCase) []analysis.Finding {
	t.Helper()
	path := c.path
	if path == "" {
		path = "applab/internal/fixture"
	}
	pass, err := loader.CheckSource(path, c.src)
	if err != nil {
		t.Fatalf("fixture %s does not type-check: %v", c.name, err)
	}
	for _, c := range analysis.All() {
		if c.Name == check {
			return analysis.RunAll(pass, []analysis.Checker{c})
		}
	}
	t.Fatalf("no checker named %q", check)
	return nil
}

// runCases drives a checker over a table of fixtures.
func runCases(t *testing.T, check string, cases []checkerCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := runChecker(t, check, c)
			if len(got) != c.want {
				t.Fatalf("want %d finding(s), got %d: %v", c.want, len(got), got)
			}
			for _, f := range got {
				if f.Check != check && f.Check != "directive" {
					t.Errorf("finding from unexpected check %q: %v", f.Check, f)
				}
				if c.wantSubstr != "" && !strings.Contains(f.Message, c.wantSubstr) {
					t.Errorf("finding message %q lacks %q", f.Message, c.wantSubstr)
				}
			}
		})
	}
}

func TestMalformedIgnoreDirective(t *testing.T) {
	got := runChecker(t, "errcheck", checkerCase{
		name: "malformed",
		src: `package fixture

func fail() error { return nil }

func f() {
	//lint:ignore errcheck
	fail()
}
`,
	})
	// The directive lacks a reason: it must not suppress, and it must be
	// reported itself.
	var checks []string
	for _, f := range got {
		checks = append(checks, f.Check)
	}
	if len(got) != 2 {
		t.Fatalf("want [directive errcheck], got %v", got)
	}
	if checks[0] != "directive" && checks[1] != "directive" {
		t.Errorf("malformed directive not reported: %v", got)
	}
}

func TestWildcardIgnore(t *testing.T) {
	got := runChecker(t, "errcheck", checkerCase{
		name: "wildcard",
		src: `package fixture

func fail() error { return nil }

func f() {
	//lint:ignore * reason: migration shim, remove with the v2 API
	fail()
}
`,
	})
	if len(got) != 0 {
		t.Fatalf("wildcard ignore did not suppress: %v", got)
	}
}

// TestLoadSelf smoke-tests the package loader on this package's own
// directory: module-relative import paths must come out right.
func TestLoadSelf(t *testing.T) {
	pkgs, err := loader.Load([]string{"."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("want 1 package, got %d", len(pkgs))
	}
	if got := pkgs[0].Pass.Path; got != "applab/internal/analysis" {
		t.Fatalf("import path = %q, want applab/internal/analysis", got)
	}
	if len(pkgs[0].TypeErrors) > 0 {
		t.Fatalf("type errors in self-load: %v", pkgs[0].TypeErrors)
	}
	if len(pkgs[0].Pass.Files) == 0 {
		t.Fatal("no files loaded")
	}
}

// TestLoadChecksEachPackageOnce: an import of a module package is served
// from the loader's own result, so the rdf package the sparql pass
// imports is the very package the loader returns for rdf.
func TestLoadChecksEachPackageOnce(t *testing.T) {
	pkgs, err := analysis.NewLoader().Load([]string{"../../internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*analysis.Package{}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: %v", p.Pass.Path, p.TypeErrors[0])
		}
		byPath[p.Pass.Path] = p
	}
	sparql, rdf := byPath["applab/internal/sparql"], byPath["applab/internal/rdf"]
	if sparql == nil || rdf == nil {
		t.Fatalf("sparql or rdf not loaded from ./internal/...: %d packages", len(pkgs))
	}
	for _, imp := range sparql.Pass.Pkg.Imports() {
		if imp.Path() == "applab/internal/rdf" {
			if imp != rdf.Pass.Pkg {
				t.Fatal("sparql imports a second type-checked copy of applab/internal/rdf")
			}
			return
		}
	}
	t.Fatal("sparql does not import applab/internal/rdf")
}
