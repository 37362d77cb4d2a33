package sparql

import (
	"strings"
	"testing"

	"applab/internal/rdf"
)

func TestExprStringRendering(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE {
	  ?x <http://p> ?y .
	  FILTER(!(?y > 3 + 1) || REGEX(STR(?x), "a"))
	}`)
	var f Filter
	for _, el := range q.Where.Elements {
		if ff, ok := el.(Filter); ok {
			f = ff
		}
	}
	s := f.Expr.String()
	for _, want := range []string{"?y", ">", "+", "REGEX", "STR", "||", "!"} {
		if !strings.Contains(s, want) {
			t.Errorf("expression String %q missing %q", s, want)
		}
	}
	// ConstExpr string
	c := ConstExpr{Term: rdf.NewInteger(5)}
	if c.String() == "" {
		t.Error("const expr String empty")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse must panic on bad input")
		}
	}()
	MustParse("NOT A QUERY")
}

func TestTermEBVCases(t *testing.T) {
	cases := []struct {
		term    rdf.Term
		want    bool
		wantErr bool
	}{
		{rdf.NewBool(true), true, false},
		{rdf.NewBool(false), false, false},
		{rdf.NewInteger(0), false, false},
		{rdf.NewInteger(7), true, false},
		{rdf.NewDouble(0.0), false, false},
		{rdf.NewLiteral(""), false, false},
		{rdf.NewLiteral("x"), true, false},
		{rdf.NewLangLiteral("", "en"), false, false},
		{rdf.NewLangLiteral("y", "en"), true, false},
		{rdf.NewIRI("http://x"), false, true},
		{rdf.NewTypedLiteral("2018-01-01", rdf.XSDDate), false, true},
	}
	for _, c := range cases {
		got, err := TermEBV(c.term)
		if c.wantErr {
			if err == nil {
				t.Errorf("TermEBV(%v): expected error", c.term)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("TermEBV(%v) = %v, %v; want %v", c.term, got, err, c.want)
		}
	}
}

func TestLexerStringEscapes(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"),
		rdf.NewLiteral("line1\nline2\t\"q\"\\s")))
	res := evalQ(t, g, `SELECT ?o WHERE { ?s ?p ?o . FILTER(?o = "line1\nline2\t\"q\"\\s") }`)
	if len(res.Bindings) != 1 {
		t.Fatalf("escaped string filter rows = %v", res.Bindings)
	}
	// Unknown escape passes through verbatim.
	res = evalQ(t, g, `SELECT ?o WHERE { ?s ?p ?o . FILTER(STRSTARTS(?o, "li\ne1")) }`)
	_ = res // parse path exercised; semantic result irrelevant
	if _, err := Parse(`SELECT ?x WHERE { ?x ?p "unterminated }`); err == nil {
		t.Error("unterminated string must error")
	}
}

func TestLexerNumberForms(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewDouble(1500)))
	for _, q := range []string{
		`SELECT ?o WHERE { ?s ?p ?o . FILTER(?o = 1.5e3) }`,
		`SELECT ?o WHERE { ?s ?p ?o . FILTER(?o = 1500.0) }`,
		`SELECT ?o WHERE { ?s ?p ?o . FILTER(?o = 15e2) }`,
		`SELECT ?o WHERE { ?s ?p ?o . FILTER(?o > -1) }`,
		`SELECT ?o WHERE { ?s ?p ?o . FILTER(?o = 3e+3 / 2) }`,
	} {
		res := evalQ(t, g, q)
		if len(res.Bindings) != 1 {
			t.Errorf("%s: rows = %v", q, res.Bindings)
		}
	}
}

func TestBuiltinFunctionsCoverage(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"),
		rdf.NewTypedLiteral("2018-06-15T12:00:00Z", rdf.XSDDateTime)))
	res := evalQ(t, g, `SELECT (YEAR(?o) AS ?y) (MONTH(?o) AS ?m) WHERE { ?s ?p ?o }`)
	b := res.Binding(0)
	if y, _ := b["y"].Int(); y != 2018 {
		t.Errorf("YEAR = %v", b["y"])
	}
	if m, _ := b["m"].Int(); m != 6 {
		t.Errorf("MONTH = %v", b["m"])
	}
	g2 := rdf.NewGraph()
	g2.Add(rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewInteger(-42)))
	res = evalQ(t, g2, `SELECT (ABS(?o) AS ?a) (STRLEN(STR(?o)) AS ?l) WHERE { ?s ?p ?o }`)
	b = res.Binding(0)
	if a, _ := b["a"].Int(); a != 42 {
		t.Errorf("ABS = %v", b["a"])
	}
	if l, _ := b["l"].Int(); l != 3 {
		t.Errorf("STRLEN = %v", b["l"])
	}
	// Type predicates
	res = evalQ(t, g2, `SELECT ?s WHERE { ?s ?p ?o .
	  FILTER(ISIRI(?s) && ISLITERAL(?o) && ISNUMERIC(?o) && !ISBLANK(?s)) }`)
	if len(res.Bindings) != 1 {
		t.Errorf("type predicates rows = %v", res.Bindings)
	}
	// DATATYPE and LANG
	g3 := rdf.NewGraph()
	g3.Add(rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewLangLiteral("x", "fr")))
	res = evalQ(t, g3, `SELECT ?o WHERE { ?s ?p ?o . FILTER(LANG(?o) = "fr") }`)
	if len(res.Bindings) != 1 {
		t.Errorf("LANG rows = %v", res.Bindings)
	}
	res = evalQ(t, g2, `SELECT ?o WHERE { ?s ?p ?o .
	  FILTER(DATATYPE(?o) = <http://www.w3.org/2001/XMLSchema#integer>) }`)
	if len(res.Bindings) != 1 {
		t.Errorf("DATATYPE rows = %v", res.Bindings)
	}
	// STRENDS + UCASE
	g4 := rdf.NewGraph()
	g4.Add(rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewLiteral("hello")))
	res = evalQ(t, g4, `SELECT ?o WHERE { ?s ?p ?o . FILTER(STRENDS(UCASE(?o), "LLO")) }`)
	if len(res.Bindings) != 1 {
		t.Errorf("STRENDS rows = %v", res.Bindings)
	}
}

func TestRegexCaseInsensitiveFlag(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewLiteral("Paris")))
	res := evalQ(t, g, `SELECT ?o WHERE { ?s ?p ?o . FILTER(REGEX(?o, "^paris$", "i")) }`)
	if len(res.Bindings) != 1 {
		t.Errorf("regex i-flag rows = %v", res.Bindings)
	}
	// Bad regex is an expression error, not a query failure.
	res = evalQ(t, g, `SELECT ?o WHERE { ?s ?p ?o . FILTER(REGEX(?o, "([")) }`)
	if len(res.Bindings) != 0 {
		t.Errorf("bad regex rows = %v", res.Bindings)
	}
}
