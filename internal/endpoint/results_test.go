package endpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// reference is the encoding the handler used to produce and the bench
// mirror and oracle still do: the map tree through encoding/json.
func reference(t testing.TB, res *sparql.Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ResultsJSON(res)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encoded(res *sparql.Results) []byte {
	var e resultsEncoder
	e.encode(res)
	return e.buf
}

func TestResultsWriterMatchesEncodingJSON(t *testing.T) {
	nasty := "<a href=\"x\">&amp;</a> \\ \u2028\u2029 \x00\x01\b\f\n\r\t\x1f\x7f \xff\xfe bad\xc3 é 漢 \U0001F600"
	cases := map[string]*sparql.Results{
		"ask true":  {Bool: true},
		"ask false": {},
		"empty select": {
			Vars: []string{"s", "o"}, Cols: []string{"s", "o"}, Bindings: []sparql.Row{},
		},
		"empty vars, nil bindings": {Vars: []string{}},
		"every term kind": {
			Vars: []string{"z", "a", "m"}, Cols: []string{"z", "a", "m"},
			Bindings: sparql.Table([]string{"z", "a", "m"}, []sparql.Binding{
				{"z": rdf.NewIRI("http://ex.org/<x>&y"), "a": rdf.NewBlank("b0"), "m": rdf.NewLiteral("plain")},
				{"a": rdf.NewLangLiteral("bonjour", "fr"), "m": rdf.NewTypedLiteral("4", rdf.XSDInteger)},
				{"z": rdf.NewTypedLiteral("s", rdf.XSDString), "m": rdf.NewTypedLiteral("no datatype", "")},
				{}, // every cell unbound
				{"a": rdf.NewWKT("POLYGON ((0 0, 1 0, 1 1, 0 0))")},
			}),
		},
		"escaping everywhere": {
			Vars: []string{nasty, "v"}, Cols: []string{nasty, "v"},
			Bindings: sparql.Table([]string{nasty, "v"}, []sparql.Binding{{
				nasty: rdf.NewIRI(nasty),
				"v":   {Kind: rdf.KindLiteral, Value: nasty, Datatype: nasty, Lang: nasty},
			}, {
				"v": rdf.NewBlank(nasty),
			}}),
		},
		"select * carries non-projected vars": {
			Vars: []string{"s"}, Cols: []string{"s", "bound_by_bind", "S"},
			Bindings: sparql.Table([]string{"s", "bound_by_bind", "S"}, []sparql.Binding{
				{"s": rdf.NewIRI("http://ex.org/s"), "bound_by_bind": rdf.NewInteger(7), "S": rdf.NewLiteral("upper sorts first")},
				{"S": rdf.NewLiteral("s unbound")},
			}),
		},
		"duplicated projection": {
			Vars: []string{"s", "s", "o"}, Cols: []string{"s", "o"},
			Bindings: sparql.Table([]string{"s", "o"}, []sparql.Binding{
				{"s": rdf.NewIRI("http://ex.org/s"), "o": rdf.NewInteger(1)},
				{"o": rdf.NewInteger(2)},
			}),
		},
		"lang and datatype on non-literals are not rendered": {
			Vars: []string{"x"}, Cols: []string{"x"},
			Bindings: sparql.Table([]string{"x"}, []sparql.Binding{
				{"x": {Kind: rdf.KindIRI, Value: "v", Datatype: "d", Lang: "l"}},
				{"x": {Kind: rdf.KindBlank, Value: "v", Datatype: "d", Lang: "l"}},
				{"x": {Kind: 7, Value: "unknown kinds render as literals", Datatype: "d", Lang: "l"}},
			}),
		},
		"construct": {Graph: []rdf.Triple{rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewIRI("o"))}},
	}
	for name, res := range cases {
		if got, want := encoded(res), reference(t, res); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestHandlerBodyIsReferenceEncoding drives the whole handler: fresh
// answers and cache hits alike carry the reference bytes.
func TestHandlerBodyIsReferenceEncoding(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 5; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", i))
		g.Add(rdf.NewTriple(s, rdf.NewIRI("http://ex.org/label"), rdf.NewLangLiteral(fmt.Sprintf("<l%d> & co", i), "en")))
		g.Add(rdf.NewTriple(s, rdf.NewIRI("http://ex.org/n"), rdf.NewInteger(int64(i))))
	}
	st := strabon.New()
	st.AddAll(g.Triples())
	srv := httptest.NewServer(NewHandlerOpts(st, nil, Options{Cache: rescache.New(8, 0)}))
	defer srv.Close()
	for _, q := range []string{
		`SELECT ?s ?l WHERE { ?s <http://ex.org/label> ?l } ORDER BY ?s`,
		`SELECT * WHERE { ?s <http://ex.org/n> ?n . BIND(?n + 1 AS ?m) } ORDER BY ?n`,
		`SELECT * WHERE { ?s <http://ex.org/n> ?n . VALUES ?k { 1 2 } OPTIONAL { ?s <http://ex.org/label> ?l FILTER(?n < 2) } }`,
		`SELECT ?s ?s ?n WHERE { ?s <http://ex.org/n> ?n } ORDER BY ?n`,
		`SELECT (COUNT(*) AS ?c) WHERE { ?s ?p ?o }`,
		`ASK { ?s <http://ex.org/n> 3 }`,
		`SELECT ?s WHERE { ?s <http://ex.org/none> ?o }`,
	} {
		res, err := sparql.Eval(st, q)
		if err != nil {
			t.Fatal(err)
		}
		want := string(reference(t, res))
		for _, cache := range []string{"miss", "hit"} {
			_, hdr, body := get(t, srv.URL, q)
			if hdr.Get("X-Applab-Cache") != cache {
				t.Fatalf("%s: cache header %q, want %q", q, hdr.Get("X-Applab-Cache"), cache)
			}
			if body != want {
				t.Errorf("%s (%s):\n got %s\nwant %s", q, cache, body, want)
			}
		}
	}
}

// stageAtFirstByte records what the registry says about the encode stage
// at the moment the first body byte is written.
type stageAtFirstByte struct {
	*httptest.ResponseRecorder
	reg             *telemetry.Registry
	encodes, traces int
}

func (w *stageAtFirstByte) Write(p []byte) (int, error) {
	if w.Body.Len() == 0 {
		w.encodes = int(w.reg.Snapshot().Histograms[`endpoint_stage_seconds{stage="encode"}`].Count)
		w.traces = len(w.reg.RecentTraces())
	}
	return w.ResponseRecorder.Write(p)
}

// TestEncodeStageClosedBeforeFirstByte pins the ordering the e2e golden
// counters depend on: a client that has seen any of the body can already
// see the request's encode observation and its finished trace.
func TestEncodeStageClosedBeforeFirstByte(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewIRI("o")))
	reg := telemetry.NewRegistry()
	h := NewHandlerOpts(g, reg, Options{})
	w := &stageAtFirstByte{ResponseRecorder: httptest.NewRecorder(), reg: reg}
	h.ServeHTTP(w, httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(`SELECT * WHERE { ?s ?p ?o }`), nil))
	if w.Code != 200 || w.Body.Len() == 0 {
		t.Fatalf("status %d, body %q", w.Code, w.Body)
	}
	if w.encodes != 1 || w.traces != 1 {
		t.Fatalf("at the first body byte: %d encode observations, %d finished traces; want 1 and 1", w.encodes, w.traces)
	}
}

// FuzzResultsWriter encodes tables shaped like the engine's: a
// projection that repeats v1 (one column), a SELECT * column the head
// does not list, and unbound cells.
func FuzzResultsWriter(f *testing.F) {
	f.Add("s", "http://ex.org/<&>", uint8(0), "", "", "o", "caf\xc3\xa9 \u2028 \xff", uint8(1), rdf.XSDString, "en", true)
	f.Add("", "", uint8(2), "d", "l", "", "\x00\"\\", uint8(9), "", "", false)
	f.Add("bound_by_bind", "x", uint8(1), "", "", "bound_by_bind", "y", uint8(2), "", "", false)
	f.Fuzz(func(t *testing.T, v1, val1 string, k1 uint8, dt1, l1, v2, val2 string, k2 uint8, dt2, l2 string, ask bool) {
		t1 := rdf.Term{Kind: rdf.TermKind(k1), Value: val1, Datatype: dt1, Lang: l1}
		t2 := rdf.Term{Kind: rdf.TermKind(k2), Value: val2, Datatype: dt2, Lang: l2}
		var cols []string
		for _, v := range []string{v1, v2, "bound_by_bind"} {
			if !slices.Contains(cols, v) {
				cols = append(cols, v)
			}
		}
		res := &sparql.Results{
			Bool: ask,
			Vars: []string{v1, v2, v1},
			Cols: cols,
			Bindings: sparql.Table(cols, []sparql.Binding{
				{v1: t1, v2: t2, "bound_by_bind": t1}, {v2: t1}, {"bound_by_bind": t2}, {},
			}),
		}
		if got, want := encoded(res), reference(t, res); !bytes.Equal(got, want) {
			t.Fatalf("got %q\nwant %q", got, want)
		}
	})
}

func thousandRows() *sparql.Results {
	cols := []string{"s", "wkt", "lai"}
	rows := make([]sparql.Binding, 1000)
	for i := range rows {
		rows[i] = sparql.Binding{
			"s":   rdf.NewIRI(fmt.Sprintf("http://ex.org/obs/%d", i)),
			"wkt": rdf.NewWKT(fmt.Sprintf("POINT (2.%d 48.%d)", i, i)),
			"lai": rdf.NewTypedLiteral("3.25", rdf.XSDDouble),
		}
	}
	return &sparql.Results{Vars: cols, Cols: cols, Bindings: sparql.Table(cols, rows)}
}

// TestResultsWriterAllocations is the allocation ceiling ci.sh names:
// into a warm buffer, encoding a 1000-row result allocates nothing — not
// per cell, not per row (the old map tree cost 39 objects a row).
func TestResultsWriterAllocations(t *testing.T) {
	res := thousandRows()
	var e resultsEncoder
	e.encode(res)
	if n := testing.AllocsPerRun(20, func() { e.encode(res) }); n != 0 {
		t.Fatalf("encoding 1000 rows allocates %v objects, want 0", n)
	}
}

func BenchmarkResultsWriter(b *testing.B) {
	res := thousandRows()
	var e resultsEncoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.encode(res)
	}
}

func BenchmarkResultsEncodingJSON(b *testing.B) {
	res := thousandRows()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reference(b, res)
	}
}
