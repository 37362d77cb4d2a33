package geotriples

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"applab/internal/netcdf"
	"applab/internal/obda"
	"applab/internal/rdf"
	"applab/internal/workload"
)

const parkMapping = `
@prefix rr: <http://www.w3.org/ns/r2rml#> .
@prefix osm: <http://www.app-lab.eu/osm/> .
@prefix geo: <http://www.opengis.net/ont/geosparql#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

<#ParkMap> rr:subjectMap _:sm .
_:sm rr:template "http://www.app-lab.eu/osm/{id}" ;
     rr:class osm:Park .
<#ParkMap> rr:predicateObjectMap _:pom1, _:pom2, _:pom3 .
_:pom1 rr:predicate osm:hasName ; rr:objectMap _:om1 .
_:om1 rr:column "name" ; rr:datatype xsd:string .
_:pom2 rr:predicate geo:hasGeometry ; rr:objectMap _:om2 .
_:om2 rr:template "http://www.app-lab.eu/osm/{id}/geom" .
<#GeomMap> rr:subjectMap _:sm2 .
_:sm2 rr:template "http://www.app-lab.eu/osm/{id}/geom" .
<#GeomMap> rr:predicateObjectMap _:pom4 .
_:pom4 rr:predicate geo:asWKT ; rr:objectMap _:om4 .
_:om4 rr:column "geometry" ; rr:datatype geo:wktLiteral .
_:pom3 rr:predicate osm:visitors ; rr:objectMap _:om3 .
_:om3 rr:column "visitors" ; rr:datatype xsd:integer .
`

func TestParseR2RML(t *testing.T) {
	maps, err := ParseR2RML(parkMapping)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 2 {
		t.Fatalf("maps = %d", len(maps))
	}
	var park *TriplesMap
	for i := range maps {
		if strings.Contains(maps[i].Name, "ParkMap") {
			park = &maps[i]
		}
	}
	if park == nil {
		t.Fatal("no ParkMap")
	}
	if park.SubjectTemplate != "http://www.app-lab.eu/osm/{id}" {
		t.Errorf("subject template = %q", park.SubjectTemplate)
	}
	if len(park.Classes) != 1 || park.Classes[0] != rdf.NSOSM+"Park" {
		t.Errorf("classes = %v", park.Classes)
	}
	if len(park.POMs) != 3 {
		t.Fatalf("POMs = %+v", park.POMs)
	}
}

func TestParseR2RMLErrors(t *testing.T) {
	bad := []string{
		``,
		`@prefix rr: <http://www.w3.org/ns/r2rml#> . <#M> rr:predicateObjectMap _:p .`,
		`@prefix rr: <http://www.w3.org/ns/r2rml#> . <#M> rr:subjectMap _:sm .`, // no template
		`@prefix rr: <http://www.w3.org/ns/r2rml#> .
<#M> rr:subjectMap _:sm . _:sm rr:template "http://x/{id}" .
<#M> rr:predicateObjectMap _:pom . _:pom rr:objectMap _:om . _:om rr:column "c" .`, // no predicate
		`@prefix rr: <http://www.w3.org/ns/r2rml#> .
<#M> rr:subjectMap _:sm . _:sm rr:template "http://x/{id}" .
<#M> rr:predicateObjectMap _:pom . _:pom rr:predicate <http://p> ; rr:objectMap _:om .`, // empty object map
	}
	for i, doc := range bad {
		if _, err := ParseR2RML(doc); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func parkTable() *Table {
	return &Table{
		Cols: []string{"id", "name", "geometry", "visitors"},
		Rows: [][]string{
			{"way1", "Bois de Boulogne", "POLYGON ((2.24 48.85, 2.26 48.85, 2.26 48.87, 2.24 48.87, 2.24 48.85))", "1200000"},
			{"way2", "Parc Monceau", "POLYGON ((2.30 48.87, 2.31 48.87, 2.31 48.88, 2.30 48.88, 2.30 48.87))", ""},
		},
	}
}

func TestProcess(t *testing.T) {
	maps, err := ParseR2RML(parkMapping)
	if err != nil {
		t.Fatal(err)
	}
	triples, err := Process(maps, parkTable())
	if err != nil {
		t.Fatal(err)
	}
	g := rdf.NewGraph()
	g.AddAll(triples)
	// way1: type + name + hasGeometry + visitors + asWKT = 5
	// way2: type + name + hasGeometry + asWKT = 4 (empty visitors skipped)
	if g.Len() != 9 {
		t.Fatalf("triples = %d:\n%v", g.Len(), triples)
	}
	name, ok := g.FirstObject(rdf.NewIRI(rdf.NSOSM+"way1"), rdf.NewIRI(rdf.NSOSM+"hasName"))
	if !ok || name.Value != "Bois de Boulogne" {
		t.Errorf("name = %+v", name)
	}
	wkt, ok := g.FirstObject(rdf.NewIRI(rdf.NSOSM+"way1/geom"), rdf.NewIRI(rdf.NSGeo+"asWKT"))
	if !ok || wkt.Datatype != rdf.WKTLiteral {
		t.Errorf("wkt = %+v", wkt)
	}
	visitors, ok := g.FirstObject(rdf.NewIRI(rdf.NSOSM+"way1"), rdf.NewIRI(rdf.NSOSM+"visitors"))
	if !ok {
		t.Fatal("no visitors triple")
	}
	if v, ok := visitors.Int(); !ok || v != 1200000 {
		t.Errorf("visitors = %+v", visitors)
	}
	if _, ok := g.FirstObject(rdf.NewIRI(rdf.NSOSM+"way2"), rdf.NewIRI(rdf.NSOSM+"visitors")); ok {
		t.Error("empty column must not produce a triple")
	}
}

func TestProcessParallelMatchesSequential(t *testing.T) {
	maps, _ := ParseR2RML(parkMapping)
	// Build a larger table.
	tbl := &Table{Cols: []string{"id", "name", "geometry", "visitors"}}
	for i := 0; i < 500; i++ {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("way%d", i),
			fmt.Sprintf("Park %d", i),
			fmt.Sprintf("POINT (%d %d)", i%100, i/100),
			fmt.Sprintf("%d", i*10),
		})
	}
	seq, err := Process(maps, tbl)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		par, err := ProcessParallel(maps, tbl, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d vs %d triples", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i].String() != seq[i].String() {
				t.Fatalf("workers=%d: triple %d differs:\n%v\n%v", workers, i, par[i], seq[i])
			}
		}
	}
}

func TestProcessUnknownColumn(t *testing.T) {
	doc := `@prefix rr: <http://www.w3.org/ns/r2rml#> .
<#M> rr:subjectMap _:sm . _:sm rr:template "http://x/{id}" .
<#M> rr:predicateObjectMap _:pom . _:pom rr:predicate <http://p> ; rr:objectMap _:om .
_:om rr:column "nope" .`
	maps, err := ParseR2RML(doc)
	if err != nil {
		t.Fatal(err)
	}
	tbl := &Table{Cols: []string{"id"}, Rows: [][]string{{"1"}}}
	if _, err := Process(maps, tbl); err == nil {
		t.Error("unknown column must error")
	}
}

func TestIRISafeSubjects(t *testing.T) {
	doc := `@prefix rr: <http://www.w3.org/ns/r2rml#> .
<#M> rr:subjectMap _:sm . _:sm rr:template "http://x/{name}" .
<#M> rr:predicateObjectMap _:pom . _:pom rr:predicate <http://p> ; rr:objectMap _:om .
_:om rr:column "name" .`
	maps, _ := ParseR2RML(doc)
	tbl := &Table{Cols: []string{"name"}, Rows: [][]string{{"Bois de Boulogne"}}}
	triples, err := Process(maps, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if triples[0].S.Value != "http://x/Bois%20de%20Boulogne" {
		t.Errorf("subject = %q", triples[0].S.Value)
	}
	// literal object keeps the raw value
	if triples[0].O.Value != "Bois de Boulogne" {
		t.Errorf("object = %q", triples[0].O.Value)
	}
}

func TestReadCSV(t *testing.T) {
	csvDoc := "id,name,geometry\nway1,Park A,POINT (1 2)\nway2,Park B,POINT (3 4)\n"
	tbl, err := ReadCSV(strings.NewReader(csvDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Cols) != 3 || len(tbl.Rows) != 2 {
		t.Fatalf("table = %+v", tbl)
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV must error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged CSV must error")
	}
}

func TestReadGeoJSON(t *testing.T) {
	doc := `{
	  "type": "FeatureCollection",
	  "features": [
	    {"type": "Feature",
	     "properties": {"id": "way1", "name": "Park A", "visitors": 1200},
	     "geometry": {"type": "Point", "coordinates": [2.25, 48.86]}},
	    {"type": "Feature",
	     "properties": {"id": "way2", "name": "Park B"},
	     "geometry": {"type": "Polygon", "coordinates": [[[0,0],[1,0],[1,1],[0,1],[0,0]]]}}
	  ]
	}`
	tbl, err := ReadGeoJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	gi, _ := tbl.ColIndex("geometry")
	if tbl.Rows[0][gi] != "POINT (2.25 48.86)" {
		t.Errorf("point wkt = %q", tbl.Rows[0][gi])
	}
	if !strings.HasPrefix(tbl.Rows[1][gi], "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))") {
		t.Errorf("polygon wkt = %q", tbl.Rows[1][gi])
	}
	ni, _ := tbl.ColIndex("visitors")
	if tbl.Rows[0][ni] != "1200" {
		t.Errorf("numeric property = %q", tbl.Rows[0][ni])
	}
	if tbl.Rows[1][ni] != "" {
		t.Errorf("missing property = %q", tbl.Rows[1][ni])
	}
	// errors
	if _, err := ReadGeoJSON(strings.NewReader(`{"type": "Feature"}`)); err == nil {
		t.Error("non-collection must error")
	}
	if _, err := ReadGeoJSON(strings.NewReader(`{"type": "FeatureCollection",
	  "features": [{"type":"Feature","properties":{},"geometry":{"type":"Circle","coordinates":[1,2]}}]}`)); err == nil {
		t.Error("unsupported geometry must error")
	}
}

func TestFromNetCDF(t *testing.T) {
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 3, 4, 2
	ds := workload.LAIGrid(opts)
	tbl, err := FromNetCDF(ds, "LAI")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 24 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	li, _ := tbl.ColIndex("loc")
	if !strings.HasPrefix(tbl.Rows[0][li], "POINT (") {
		t.Errorf("loc = %q", tbl.Rows[0][li])
	}
	if _, err := FromNetCDF(ds, "nope"); err == nil {
		t.Error("unknown variable must error")
	}
}

// The materialized workflow (FromNetCDF, then an R2RML mapping) and the
// on-the-fly one (the opendap virtual table) flatten one grid into the
// same rows, so they mint the same resource for one cell.
func TestNetCDFRowsMatchVirtualTable(t *testing.T) {
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 3, 4, 2
	flat := netcdf.NewDataset("flat")
	flat.AddDim("lat", 2)
	flat.AddDim("lon", 3)
	for _, v := range []*netcdf.Variable{
		{Name: "lat", Dims: []string{"lat"}, Data: []float64{48.8566123, 48.9}},
		{Name: "lon", Dims: []string{"lon"}, Data: []float64{2.3522219, 2.4, 2.5}},
		{Name: "NDVI", Dims: []string{"lat", "lon"}, Data: []float64{0.125, -1, 3, 4.5, 5, 1e-7}},
	} {
		if err := flat.AddVar(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		ds      *netcdf.Dataset
		varName string
		cells   int
	}{{workload.LAIGrid(opts), "LAI", 24}, {flat, "NDVI", 6}} {
		mat, err := FromNetCDF(c.ds, c.varName)
		if err != nil {
			t.Fatalf("%s: %v", c.varName, err)
		}
		virt, err := obda.GridToTable(c.ds, c.varName)
		if err != nil {
			t.Fatalf("%s: %v", c.varName, err)
		}
		if len(mat.Rows) != c.cells || len(virt.Rows) != c.cells {
			t.Fatalf("%s: %d and %d rows, want %d", c.varName, len(mat.Rows), len(virt.Rows), c.cells)
		}
		for i, row := range virt.Rows {
			want := []string{row[0].(string), strconv.FormatFloat(row[1].(float64), 'g', -1, 64),
				row[2].(string), row[3].(string)}
			if got := mat.Rows[i]; strings.Join(got, "|") != strings.Join(want, "|") {
				t.Fatalf("%s cell %d: materialized %q, virtual %q", c.varName, i, got, want)
			}
		}
	}
}

// End-to-end: GeoJSON -> R2RML -> RDF graph queried with GeoSPARQL shape.
func TestGeoJSONToRDFEndToEnd(t *testing.T) {
	doc := `{
	  "type": "FeatureCollection",
	  "features": [
	    {"type": "Feature", "properties": {"id": "p1", "name": "A"},
	     "geometry": {"type": "Point", "coordinates": [1, 1]}}
	  ]
	}`
	tbl, err := ReadGeoJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	maps, err := ParseR2RML(parkMapping)
	if err != nil {
		t.Fatal(err)
	}
	// parkMapping expects a "visitors" column; absent columns are an error
	// only when referenced rows exist — add the column empty.
	tbl.Cols = append(tbl.Cols, "visitors")
	for i := range tbl.Rows {
		tbl.Rows[i] = append(tbl.Rows[i], "")
	}
	triples, err := Process(maps, tbl)
	if err != nil {
		t.Fatal(err)
	}
	g := rdf.NewGraph()
	g.AddAll(triples)
	if g.Len() != 4 {
		t.Fatalf("graph = %d triples", g.Len())
	}
}
