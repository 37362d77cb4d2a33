package endpoint

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/strabon"
)

func newStoreAndServer(t *testing.T) (*strabon.Store, *httptest.Server) {
	t.Helper()
	src := `
@prefix ex: <http://ex.org/> .
@prefix geo: <http://www.opengis.net/ont/geosparql#> .
ex:a a ex:Thing ; ex:name "Alpha"@en ; ex:size 5 ;
  geo:hasGeometry ex:ga .
ex:ga geo:asWKT "POINT (1 2)"^^geo:wktLiteral .
ex:b a ex:Thing ; ex:name "Beta" .
`
	triples, _, err := rdf.ParseTurtleString(src)
	if err != nil {
		t.Fatal(err)
	}
	st := strabon.New()
	st.AddAll(triples)
	srv := httptest.NewServer(Handler(st))
	t.Cleanup(srv.Close)
	return st, srv
}

func TestHandlerSelect(t *testing.T) {
	_, srv := newStoreAndServer(t)
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(
		`PREFIX ex: <http://ex.org/> SELECT ?n WHERE { ?s ex:name ?n }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %v", resp.Status)
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]map[string]any `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Head.Vars) != 1 || doc.Head.Vars[0] != "n" {
		t.Errorf("vars = %v", doc.Head.Vars)
	}
	if len(doc.Results.Bindings) != 2 {
		t.Fatalf("bindings = %v", doc.Results.Bindings)
	}
	// Language tag preserved for "Alpha"@en.
	foundLang := false
	for _, b := range doc.Results.Bindings {
		if b["n"]["value"] == "Alpha" && b["n"]["xml:lang"] == "en" {
			foundLang = true
		}
	}
	if !foundLang {
		t.Error("language tag lost in JSON results")
	}
}

func TestHandlerErrors(t *testing.T) {
	_, srv := newStoreAndServer(t)
	resp, _ := http.Get(srv.URL + "/sparql")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query: %v", resp.Status)
	}
	resp.Body.Close()
	resp, _ = http.Get(srv.URL + "/sparql?query=" + url.QueryEscape("NOT SPARQL"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query: %v", resp.Status)
	}
	resp.Body.Close()
}

func TestHandlerPost(t *testing.T) {
	_, srv := newStoreAndServer(t)
	resp, err := http.Post(srv.URL+"/sparql", "application/sparql-query",
		strings.NewReader(`ASK { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	json.NewDecoder(resp.Body).Decode(&doc)
	if doc["boolean"] != true {
		t.Errorf("ASK via POST = %v", doc["boolean"])
	}
}

func TestRemoteSourceMatch(t *testing.T) {
	st, srv := newStoreAndServer(t)
	remote := NewRemoteSource(srv.URL)
	// All patterns must match the local store exactly.
	patterns := []struct{ s, p, o rdf.Term }{
		{rdf.Term{}, rdf.Term{}, rdf.Term{}},
		{rdf.NewIRI("http://ex.org/a"), rdf.Term{}, rdf.Term{}},
		{rdf.Term{}, rdf.NewIRI("http://ex.org/name"), rdf.Term{}},
		{rdf.Term{}, rdf.Term{}, rdf.NewLiteral("Beta")},
		{rdf.NewIRI("http://ex.org/a"), rdf.NewIRI("http://ex.org/size"), rdf.Term{}},
	}
	for _, pat := range patterns {
		local := st.Match(pat.s, pat.p, pat.o)
		got := remote.Match(pat.s, pat.p, pat.o)
		if len(got) != len(local) {
			t.Errorf("pattern %v %v %v: remote %d vs local %d",
				pat.s, pat.p, pat.o, len(got), len(local))
			continue
		}
		g := rdf.NewGraph()
		g.AddAll(local)
		for _, tr := range got {
			if !g.Contains(tr) {
				t.Errorf("remote returned stray triple %v", tr)
			}
		}
	}
	// Typed literals keep their datatype.
	got := remote.Match(rdf.Term{}, rdf.NewIRI(rdf.NSGeo+"asWKT"), rdf.Term{})
	if len(got) != 1 || got[0].O.Datatype != rdf.WKTLiteral {
		t.Errorf("wkt literal round trip = %v", got)
	}
}

// TestRemoteSourceDecodesCells: each kind of results cell decodes to its
// term, and a cell whose value is not a string is a bad document, not
// an empty literal.
func TestRemoteSourceDecodesCells(t *testing.T) {
	cases := []struct {
		name, cell string
		want       rdf.Term // zero: the document is bad
	}{
		{"iri", `{"type":"uri","value":"http://ex.org/a"}`, rdf.NewIRI("http://ex.org/a")},
		{"bnode", `{"type":"bnode","value":"b0"}`, rdf.NewBlank("b0")},
		{"lang literal", `{"type":"literal","value":"Alpha","xml:lang":"en"}`, rdf.NewLangLiteral("Alpha", "en")},
		{"typed literal", `{"type":"literal","value":"5","datatype":"` + rdf.XSDInteger + `"}`, rdf.NewTypedLiteral("5", rdf.XSDInteger)},
		{"plain literal", `{"type":"literal","value":"Beta"}`, rdf.NewLiteral("Beta")},
		{"numeric value", `{"type":"literal","value":5}`, rdf.Term{}},
	}
	for _, c := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"head":{"vars":["o"]},"results":{"bindings":[{"o":` + c.cell + `}]}}`))
		}))
		got, err := NewRemoteSource(srv.URL).MatchErr(rdf.NewIRI("http://ex.org/s"), rdf.NewIRI("http://ex.org/p"), rdf.Term{})
		srv.Close()
		if c.want.IsZero() {
			if err == nil || !strings.Contains(err.Error(), "bad results document") {
				t.Errorf("%s: got %v, %v; want a bad results document", c.name, got, err)
			}
			continue
		}
		if err != nil || len(got) != 1 || !got[0].O.Equal(c.want) {
			t.Errorf("%s: got %v, %v; want object %v", c.name, got, err, c.want)
		}
	}
}

func TestRemoteSourceThroughEngine(t *testing.T) {
	_, srv := newStoreAndServer(t)
	remote := NewRemoteSource(srv.URL)
	res, err := sparql.Eval(remote, `
PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ?s a ex:Thing ; ex:name ?n } ORDER BY ?n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 2 || res.Binding(0)["n"].Value != "Alpha" {
		t.Fatalf("rows = %v", res.Bindings)
	}
}

func TestRemoteSourceProbeFailure(t *testing.T) {
	remote := NewRemoteSource("http://127.0.0.1:1/nope")
	if err := remote.Probe(); err == nil {
		t.Error("probe of dead endpoint must fail")
	}
	if got := remote.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}); got != nil {
		t.Error("match against dead endpoint must be empty")
	}
}
