package obda

import (
	"context"
	"testing"

	"applab/internal/madis"
	"applab/internal/netcdf"
	"applab/internal/rdf"
	"applab/internal/sparql"
)

// TestRelationalMappings covers OBDA over plain tables (no OPeNDAP): the
// classic Ontop deployment over a spatially-enabled RDBMS.
func TestRelationalMappings(t *testing.T) {
	db := madis.NewDB()
	db.CreateTable(&madis.Table{
		Name: "parks",
		Cols: []string{"gid", "name", "wkt"},
		Rows: []madis.Row{
			{"1", "Bois de Boulogne", "POLYGON ((2.23 48.85, 2.26 48.85, 2.26 48.88, 2.23 48.88, 2.23 48.85))"},
			{"2", "Parc Monceau", "POLYGON ((2.30 48.87, 2.31 48.87, 2.31 48.88, 2.30 48.88, 2.30 48.87))"},
		},
	})
	db.CreateTable(&madis.Table{
		Name: "admin",
		Cols: []string{"gid", "name", "wkt"},
		Rows: []madis.Row{
			{"a1", "West Paris", "POLYGON ((2.2 48.8, 2.28 48.8, 2.28 48.9, 2.2 48.9, 2.2 48.8))"},
		},
	})
	doc := `
mappingId	parks
target		osm:park/{gid} a osm:park ; osm:hasName "{name}" ; geo:hasGeometry _:pg .
			_:pg geo:asWKT {wkt}^^geo:wktLiteral .
source		SELECT gid, name, wkt FROM parks

mappingId	admin
target		gadm:{gid} a gadm:AdministrativeArea ; gadm:hasName "{name}" ; geo:hasGeometry _:ag .
			_:ag geo:asWKT {wkt}^^geo:wktLiteral .
source		SELECT gid, name, wkt FROM admin
`
	ms, err := ParseMappings(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("mappings = %d", len(ms))
	}
	vg := NewVirtualGraph(db, ms)

	// Virtual class instances from both mappings.
	res, err := sparql.Eval(vg, `SELECT (COUNT(*) AS ?n) WHERE { ?s a osm:park }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Binding(0)["n"].Int(); n != 2 {
		t.Fatalf("parks = %d", n)
	}

	// Cross-mapping spatial join: which parks are within West Paris?
	res, err = sparql.Eval(vg, `
SELECT ?pn WHERE {
  ?park a osm:park ; osm:hasName ?pn ; geo:hasGeometry ?pg .
  ?pg geo:asWKT ?pw .
  ?area a gadm:AdministrativeArea ; geo:hasGeometry ?ag .
  ?ag geo:asWKT ?aw .
  FILTER(geof:sfWithin(?pw, ?aw))
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 1 || res.Binding(0)["pn"].Value != "Bois de Boulogne" {
		t.Fatalf("rows = %v", res.Bindings)
	}
}

func TestVirtualGraphSourceError(t *testing.T) {
	db := madis.NewDB() // no tables registered
	ms, _ := ParseMappings(`
mappingId	m
target		osm:{id} a osm:Thing .
source		SELECT id FROM missing
`)
	vg := NewVirtualGraph(db, ms)
	// The failure reads as a partial answer, counted, not as an empty
	// dataset.
	if res, scanErrs := evalCounted(t, vg, `SELECT ?s WHERE { ?s ?p ?o }`); len(res.Bindings) != 0 || !res.Partial || scanErrs != 1 {
		t.Errorf("missing source table: %d rows, partial %v, %d scan errors; want 0, partial, 1", len(res.Bindings), res.Partial, scanErrs)
	}
	if _, err := vg.Snapshot(); err == nil {
		t.Error("missing source table must surface to a caller that builds the view")
	}
	// Match swallows the error per the Source contract.
	if got := vg.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}); got != nil {
		t.Errorf("Match after error = %v", got)
	}
}

func TestSnapshotReusedUntilInvalidated(t *testing.T) {
	db := madis.NewDB()
	calls := 0
	db.RegisterVirtualTable("counter", func(_ context.Context, args []string) (*madis.Table, error) {
		calls++
		return &madis.Table{Name: "counter", Cols: []string{"id"},
			Rows: []madis.Row{{"x"}}}, nil
	})
	ms, _ := ParseMappings(`
mappingId	m
target		osm:{id} a osm:Thing .
source		SELECT id FROM (counter 1)
`)
	vg := NewVirtualGraph(db, ms)
	// Each evaluation re-executes the sources once; Snapshot reuses the
	// view the evaluation built until something invalidates it.
	for i := 1; i <= 2; i++ {
		if _, err := sparql.Eval(vg, `ASK { ?s ?p ?o }`); err != nil {
			t.Fatal(err)
		}
		if calls != i {
			t.Errorf("evaluation %d: %d source executions, want %d", i, calls, i)
		}
		if _, err := vg.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if calls != i {
			t.Errorf("Snapshot after evaluation %d must reuse the view: %d source executions", i, calls)
		}
	}
	vg.Invalidate()
	if _, err := vg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("Snapshot after Invalidate must re-execute: %d source executions, want 3", calls)
	}
}

func TestGridToTable2D(t *testing.T) {
	// 2-D (lat, lon) grids get a synthetic single time instant.
	ds := netcdf.NewDataset("flat")
	ds.AddDim("lat", 2)
	ds.AddDim("lon", 3)
	if err := ds.AddVar(&netcdf.Variable{Name: "lat", Dims: []string{"lat"}, Data: []float64{48.8, 48.9}}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddVar(&netcdf.Variable{Name: "lon", Dims: []string{"lon"}, Data: []float64{2.1, 2.2, 2.3}}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddVar(&netcdf.Variable{Name: "NDVI", Dims: []string{"lat", "lon"},
		Data: []float64{1, 2, 3, 4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	tb, err := GridToTable(ds, "NDVI")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][3] != "POINT (2.1 48.8)" {
		t.Errorf("loc = %v", tb.Rows[0][3])
	}
	// rank-1 variables are rejected
	ds1 := netcdf.NewDataset("r1")
	ds1.AddDim("x", 2)
	ds1.AddVar(&netcdf.Variable{Name: "v", Dims: []string{"x"}, Data: []float64{1, 2}})
	if _, err := GridToTable(ds1, "v"); err == nil {
		t.Error("rank-1 variable must error")
	}
	if _, err := GridToTable(ds, "missing"); err == nil {
		t.Error("missing variable must error")
	}
}
