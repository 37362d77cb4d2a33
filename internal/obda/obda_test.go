package obda

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"applab/internal/madis"
	"applab/internal/netcdf"
	"applab/internal/opendap"
	"applab/internal/rdf"
	"applab/internal/sparql"
)

const listing2 = `
mappingId	opendap_mapping
target		lai:{id} rdf:type lai:Observation .
			lai:{id} lai:lai {LAI}^^xsd:float ;
			time:hasTime {ts}^^xsd:dateTime .
			lai:{id} geo:hasGeometry _:g .
			_:g geo:asWKT {loc}^^geo:wktLiteral .
source		SELECT id, LAI , ts, loc
			FROM (ordered opendap
			url:lai/LAI/, 10)
			WHERE LAI > 0
`

func TestParseListing2(t *testing.T) {
	ms, err := ParseMappings(listing2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("mappings = %d", len(ms))
	}
	m := ms[0]
	if m.ID != "opendap_mapping" {
		t.Errorf("id = %q", m.ID)
	}
	if len(m.Target) != 5 {
		t.Fatalf("target templates = %d: %+v", len(m.Target), m.Target)
	}
	// Template 0: lai:{id} rdf:type lai:Observation
	if m.Target[0].S.Kind != TmplIRI || !strings.Contains(m.Target[0].S.Text, "{id}") {
		t.Errorf("subject template = %+v", m.Target[0].S)
	}
	if m.Target[0].P.Text != rdf.RDFType {
		t.Errorf("predicate = %+v", m.Target[0].P)
	}
	// Template 1: lai:lai {LAI}^^xsd:float
	if m.Target[1].O.Kind != TmplLiteral || m.Target[1].O.Datatype != rdf.NSXSD+"float" {
		t.Errorf("LAI literal template = %+v", m.Target[1].O)
	}
	// ";" keeps the subject
	if m.Target[2].S.Text != m.Target[1].S.Text {
		t.Errorf("semicolon must keep subject: %+v vs %+v", m.Target[2].S, m.Target[1].S)
	}
	// blank node templates
	if m.Target[3].O.Kind != TmplBlank || m.Target[4].S.Kind != TmplBlank {
		t.Errorf("blank templates: %+v %+v", m.Target[3].O, m.Target[4].S)
	}
	if !strings.Contains(m.Source, "WHERE LAI > 0") {
		t.Errorf("source = %q", m.Source)
	}
	cols := m.Target[1].O.Columns()
	if len(cols) != 1 || cols[0] != "LAI" {
		t.Errorf("columns = %v", cols)
	}
}

func TestParseMappingErrors(t *testing.T) {
	bad := []string{
		"",
		"target lai:{id} rdf:type lai:Observation .",
		"mappingId m1\ntarget lai:{id} rdf:type lai:Observation .",
		"mappingId m1\nsource SELECT 1",
		"mappingId m1\ntarget nosuchprefix:{id} rdf:type lai:Observation .\nsource SELECT 1",
	}
	for _, doc := range bad {
		if _, err := ParseMappings(doc); err == nil {
			t.Errorf("expected error for %q", doc)
		}
	}
}

// laiFixture is the small LAI grid laiServer publishes; tests republish
// edited copies of it.
func laiFixture(t testing.TB) *netcdf.Dataset {
	t.Helper()
	d := netcdf.NewDataset("lai")
	d.AddDim("time", 2)
	d.AddDim("lat", 3)
	d.AddDim("lon", 3)
	add := func(v *netcdf.Variable) {
		if err := d.AddVar(v); err != nil {
			t.Fatal(err)
		}
	}
	add(&netcdf.Variable{Name: "time", Dims: []string{"time"}, Data: []float64{0, 10},
		Attrs: map[string]string{"units": "days since 2018-06-01"}})
	add(&netcdf.Variable{Name: "lat", Dims: []string{"lat"}, Data: []float64{48.85, 48.86, 48.87}})
	add(&netcdf.Variable{Name: "lon", Dims: []string{"lon"}, Data: []float64{2.25, 2.26, 2.27}})
	// Values: include negatives (noise the WHERE filter removes).
	vals := []float64{
		1.5, -0.5, 2.0,
		0.0, 3.5, 1.0,
		-1.0, 4.0, 0.5,
		2.5, 1.5, -0.2,
		3.0, 0.0, 1.2,
		0.8, 2.2, 5.0,
	}
	add(&netcdf.Variable{Name: "LAI", Dims: []string{"time", "lat", "lon"}, Data: vals})
	return d
}

// laiServer publishes a small LAI grid and returns a DB with the opendap
// adapter registered.
func laiServer(t testing.TB, latency time.Duration) (*madis.DB, *OpendapAdapter, *opendap.Server, func()) {
	t.Helper()
	d := laiFixture(t)

	srv := opendap.NewServer()
	srv.Latency = latency
	srv.Publish(d)
	hs := httptest.NewServer(srv)
	client := opendap.NewClient(hs.URL)
	adapter := NewOpendapAdapter(client)
	db := madis.NewDB()
	adapter.Register(db)
	return db, adapter, srv, hs.Close
}

// query prepares sql and runs it once.
func query(db *madis.DB, sql string) (*madis.Table, error) {
	stmt, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	base, err := stmt.Base(context.Background())
	if err != nil {
		return nil, err
	}
	return stmt.Over(base)
}

func TestOpendapVirtualTable(t *testing.T) {
	db, _, _, closeFn := laiServer(t, 0)
	defer closeFn()
	res, err := query(db, "SELECT id, LAI, ts, loc FROM (ordered opendap url:lai/LAI/, 0) WHERE LAI > 0")
	if err != nil {
		t.Fatal(err)
	}
	// 18 cells, positives: count manually = 13 values > 0
	want := 13
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	// ts must be ISO dateTime; loc must be WKT POINT
	for _, r := range res.Rows {
		if !strings.HasSuffix(r[2].(string), "Z") || !strings.Contains(r[2].(string), "T") {
			t.Errorf("ts = %v", r[2])
		}
		if !strings.HasPrefix(r[3].(string), "POINT (") {
			t.Errorf("loc = %v", r[3])
		}
		if !strings.HasPrefix(r[0].(string), "obs_") {
			t.Errorf("id = %v", r[0])
		}
	}
}

func TestVirtualGraphListing3(t *testing.T) {
	db, _, _, closeFn := laiServer(t, 0)
	defer closeFn()
	ms, err := ParseMappings(listing2)
	if err != nil {
		t.Fatal(err)
	}
	vg := NewVirtualGraph(db, ms)
	// The paper's Listing 3 query (modulo the lai:hasLai/lai:lai naming
	// which the paper itself uses inconsistently; we follow the mapping).
	res, err := sparql.Eval(vg, `
SELECT DISTINCT ?s ?wkt ?lai
WHERE { ?s lai:lai ?lai .
        ?s geo:hasGeometry ?g .
        ?g geo:asWKT ?wkt }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 13 {
		t.Fatalf("rows = %d", len(res.Bindings))
	}
	for i := range res.Bindings {
		b := res.Binding(i)
		if b["wkt"].Datatype != rdf.WKTLiteral {
			t.Errorf("wkt datatype = %s", b["wkt"].Datatype)
		}
		if f, ok := b["lai"].Float(); !ok || f <= 0 {
			t.Errorf("lai = %v", b["lai"])
		}
	}
	// rdf:type triples exist in the virtual view
	res, err = sparql.Eval(vg, `SELECT (COUNT(*) AS ?n) WHERE { ?s a lai:Observation }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Binding(0)["n"].Int(); n != 13 {
		t.Errorf("observation count = %v", n)
	}
}

func TestVirtualGraphSpatialFilter(t *testing.T) {
	db, _, _, closeFn := laiServer(t, 0)
	defer closeFn()
	ms, _ := ParseMappings(listing2)
	vg := NewVirtualGraph(db, ms)
	res, err := sparql.Eval(vg, `
SELECT ?lai WHERE {
  ?s lai:lai ?lai ; geo:hasGeometry ?g .
  ?g geo:asWKT ?wkt .
  FILTER(geof:sfWithin(?wkt, "POLYGON ((2.245 48.845, 2.265 48.845, 2.265 48.865, 2.245 48.865, 2.245 48.845))"^^geo:wktLiteral))
}`)
	if err != nil {
		t.Fatal(err)
	}
	// lon in {2.25, 2.26}, lat in {48.85, 48.86}: 4 cells x 2 times = 8,
	// minus non-positive values among them.
	// cells: (48.85,2.25)=1.5/2.5 (48.85,2.26)=-0.5/1.5 (48.86,2.25)=0/3
	// (48.86,2.26)=3.5/0 -> positives: 1.5,2.5,1.5,3,3.5 = 5
	if len(res.Bindings) != 5 {
		t.Fatalf("rows = %d: %v", len(res.Bindings), res.Bindings)
	}
}

func TestCacheWindowReducesCalls(t *testing.T) {
	db, adapter, _, closeFn := laiServer(t, 0)
	defer closeFn()
	clock := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	adapter.Now = func() time.Time { return clock }

	q := "SELECT id, LAI, ts, loc FROM (ordered opendap url:lai/LAI/, 10) WHERE LAI > 0"
	if _, err := query(db, q); err != nil {
		t.Fatal(err)
	}
	calls1 := adapter.PhysicalCalls()
	// Second identical query within the window: served from cache.
	if _, err := query(db, q); err != nil {
		t.Fatal(err)
	}
	if adapter.PhysicalCalls() != calls1 {
		t.Errorf("cached query must not hit the server: %d -> %d", calls1, adapter.PhysicalCalls())
	}
	// After the window expires, the server is called again.
	clock = clock.Add(11 * time.Minute)
	if _, err := query(db, q); err != nil {
		t.Fatal(err)
	}
	if adapter.PhysicalCalls() != calls1+1 {
		t.Errorf("expired window must refetch: %d -> %d", calls1, adapter.PhysicalCalls())
	}
	// Window 0 always fetches.
	q0 := "SELECT id, LAI, ts, loc FROM (ordered opendap url:lai/LAI/, 0) WHERE LAI > 0"
	query(db, q0)
	query(db, q0)
	if adapter.PhysicalCalls() != calls1+3 {
		t.Errorf("window 0 must always fetch: calls = %d", adapter.PhysicalCalls())
	}
}

func TestInstantiateNullDropsTriple(t *testing.T) {
	table := &madis.Table{Cols: []string{"Other", "N"}}
	x := "{n}x"
	vals := []*string{&x, nil, nil} // the last slot: a column the table lacks
	inst := func(tmpl TermTemplate, seq int) (rdf.Term, bool) {
		tp := tmpl.compile(table)
		return tp.instantiate(vals, seq)
	}
	for _, text := range []string{"{missing}", "{n}", "a{other}{N}"} {
		if _, ok := inst(TermTemplate{Kind: TmplLiteral, Text: text}, 1); ok {
			t.Errorf("%s: a missing or NULL column must drop the triple", text)
		}
	}
	// Column names match case-insensitively, a value is never expanded
	// again, and an unclosed brace is text.
	for text, want := range map[string]string{"{OTHER}": "{n}x", "a{other}b{Other}": "a{n}xb{n}x", "a{other": "a{other"} {
		if got, ok := inst(TermTemplate{Kind: TmplIRI, Text: text}, 1); !ok || got != rdf.NewIRI(want) {
			t.Errorf("%s = %v %v, want <%s>", text, got, ok, want)
		}
	}
	// Blank templates are per-row unique.
	b := TermTemplate{Kind: TmplBlank, Text: "g"}
	t1, _ := inst(b, 1)
	t2, _ := inst(b, 2)
	if t1.Equal(t2) {
		t.Error("blank nodes must be unique per row")
	}
}
