package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"applab/internal/geom"
	"applab/internal/interlink"
	"applab/internal/rdf"
	"applab/internal/sextant"
	"applab/internal/workload"
)

// TestLAIOntology structure-checks the paper's Figure 2.
func TestLAIOntology(t *testing.T) {
	g := rdf.NewGraph()
	g.AddAll(LAIOntology())
	obs := rdf.NewIRI(rdf.NSLAI + "Observation")
	if sup, ok := g.FirstObject(obs, rdf.NewIRI(rdf.RDFSSubClassOf)); !ok || sup.Value != rdf.NSQB+"Observation" {
		t.Errorf("lai:Observation superclass = %v", sup)
	}
	rng, ok := g.FirstObject(rdf.NewIRI(rdf.NSLAI+"lai"), rdf.NewIRI(rdf.RDFSRange))
	if !ok || rng.Value != rdf.NSXSD+"float" {
		t.Errorf("lai:lai range = %v", rng)
	}
	// Emitted Turtle parses back.
	var buf bytes.Buffer
	if err := rdf.WriteTurtle(&buf, LAIOntology(), rdf.DefaultPrefixes()); err != nil {
		t.Fatal(err)
	}
	back, _, err := rdf.ParseTurtleString(buf.String())
	if err != nil {
		t.Fatalf("ontology turtle re-parse: %v\n%s", err, buf.String())
	}
	if len(back) != len(LAIOntology()) {
		t.Errorf("round trip %d -> %d", len(LAIOntology()), len(back))
	}
}

// TestGADMOntology structure-checks the paper's Figure 3.
func TestGADMOntology(t *testing.T) {
	g := rdf.NewGraph()
	g.AddAll(GADMOntology())
	area := rdf.NewIRI(rdf.NSGADM + "AdministrativeArea")
	if sup, ok := g.FirstObject(area, rdf.NewIRI(rdf.RDFSSubClassOf)); !ok || sup.Value != rdf.NSGeo+"Feature" {
		t.Errorf("gadm:AdministrativeArea superclass = %v", sup)
	}
}

func TestCORINEOntologyHierarchy(t *testing.T) {
	g := rdf.NewGraph()
	g.AddAll(CORINEOntology())
	// clc:greenUrbanAreas -> clc:ArtificialSurfaces -> clc:CorineValue
	green := rdf.NewIRI(rdf.NSCLC + "greenUrbanAreas")
	sup, ok := g.FirstObject(green, rdf.NewIRI(rdf.RDFSSubClassOf))
	if !ok || sup.Value != rdf.NSCLC+"ArtificialSurfaces" {
		t.Fatalf("greenUrbanAreas superclass = %v", sup)
	}
	sup2, ok := g.FirstObject(sup, rdf.NewIRI(rdf.RDFSSubClassOf))
	if !ok || sup2.Value != rdf.NSCLC+"CorineValue" {
		t.Fatalf("ArtificialSurfaces superclass = %v", sup2)
	}
}

// newCaseStudyStack loads the full §4 case study into a materialized
// stack.
func newCaseStudyStack(t testing.TB) *MaterializedStack {
	t.Helper()
	m := NewMaterializedStack()
	ext := workload.ParisExtent
	m.LoadFeatures(rdf.NSOSM, rdf.NSOSM+"poiType",
		workload.OSMParks(workload.VectorOptions{Extent: ext, N: 30, Seed: 5}))
	m.LoadFeatures(rdf.NSCLC, rdf.NSCLC+"hasCorineValue",
		workload.CorineLandCover(workload.VectorOptions{Extent: ext, N: 40, Seed: 6}))
	m.LoadFeatures(rdf.NSUA, rdf.NSUA+"hasClass",
		workload.UrbanAtlas(workload.VectorOptions{Extent: ext, N: 40, Seed: 7}))
	m.LoadFeatures(rdf.NSGADM, rdf.NSGADM+"hasType", workload.GADMAreas(ext, 4, 5))
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 10, 12, 4
	if err := m.LoadLAI(workload.LAIGrid(opts), "LAI"); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestListing1 runs the paper's Listing 1 query end-to-end on the
// materialized stack.
func TestListing1(t *testing.T) {
	m := newCaseStudyStack(t)
	res, err := m.Query(Listing1Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) == 0 {
		t.Fatal("Listing 1 returned no LAI observations over Bois de Boulogne")
	}
	for i := range res.Bindings {
		b := res.Binding(i)
		if b["geoA"].Datatype != rdf.WKTLiteral || b["geoB"].Datatype != rdf.WKTLiteral {
			t.Errorf("non-WKT binding: %v", b)
		}
		if _, ok := b["lai"].Float(); !ok {
			t.Errorf("non-numeric lai: %v", b["lai"])
		}
	}
}

// TestGreennessOfParis reproduces Figure 4: the layered temporal map.
func TestGreennessOfParis(t *testing.T) {
	m := newCaseStudyStack(t)
	mp := sextant.NewMap("The greenness of Paris")

	// GADM boundaries (magenta lines in the paper's figure).
	gadmRes, err := m.Query(`SELECT ?wkt WHERE {
	  ?a gadm:hasType ?ty . ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp.LayerFromResults("GADM", sextant.Style{Stroke: "#ff00ff", Fill: "none"},
		gadmRes, "wkt", "", ""); err != nil {
		t.Fatal(err)
	}

	// CORINE green urban areas.
	clcRes, err := m.Query(`SELECT ?wkt WHERE {
	  ?a clc:hasCorineValue clc:greenUrbanAreas .
	  ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`)
	if err != nil {
		t.Fatal(err)
	}
	mp.LayerFromResults("CLC green", sextant.Style{Fill: "#44aa44", FillOpacity: 0.5}, clcRes, "wkt", "", "")

	// LAI circles over time.
	laiRes, err := m.Query(`SELECT ?wkt ?lai ?t WHERE {
	  ?o lai:lai ?lai ; geo:hasGeometry ?g ; time:hasTime ?t .
	  ?g geo:asWKT ?wkt }`)
	if err != nil {
		t.Fatal(err)
	}
	laiLayer, err := mp.LayerFromResults("LAI", sextant.Style{Fill: "#007700", Radius: 2},
		laiRes, "wkt", "lai", "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(laiLayer.Features) == 0 {
		t.Fatal("no LAI features on the map")
	}
	times := mp.Times()
	if len(times) != 4 {
		t.Fatalf("temporal frames = %d, want 4", len(times))
	}
	svg := mp.RenderSVGAt(800, times[0])
	if !strings.Contains(svg, "<circle") || !strings.Contains(svg, "<polygon") {
		t.Error("figure 4 frame must contain LAI circles and area polygons")
	}
	// Map ontology description.
	g := rdf.NewGraph()
	g.AddAll(mp.ToRDF())
	if len(g.Subjects(rdf.NewIRI(rdf.RDFType), rdf.NewIRI(sextant.NSMap+"Layer"))) != 3 {
		t.Error("map RDF must describe 3 layers")
	}
}

// TestFigure1Architecture wires both workflows end-to-end: the
// materialized store and the on-the-fly OBDA stack answer the same
// structural query over the same LAI product, and interlinking adds
// sameAs/spatial links.
func TestFigure1Architecture(t *testing.T) {
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 6, 6, 2
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"

	// On-the-fly workflow (right side of Figure 1).
	fly, err := NewOnTheFlyStack(Listing2Mapping, grid)
	if err != nil {
		t.Fatal(err)
	}
	defer fly.Close()
	flyRes, err := fly.Query(Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(flyRes.Bindings) == 0 {
		t.Fatal("on-the-fly workflow returned nothing")
	}

	// Materialized workflow (left side): same grid through the converter.
	mat := NewMaterializedStack()
	if err := mat.LoadLAI(grid, "LAI"); err != nil {
		t.Fatal(err)
	}
	matRes, err := mat.Query(Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	// Both see exactly the positive observations.
	if len(matRes.Bindings) != len(flyRes.Bindings) {
		t.Errorf("materialized %d rows, on-the-fly %d rows",
			len(matRes.Bindings), len(flyRes.Bindings))
	}

	// Materializing the virtual graph yields a queryable Strabon store.
	st, err := fly.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(`SELECT (COUNT(*) AS ?n) WHERE { ?o a lai:Observation }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Binding(0)["n"].Int(); n == 0 {
		t.Error("materialized store has no observations")
	}

	// Interlinking on the materialized side.
	m2 := newCaseStudyStack(t)
	linker := &interlink.SpatialLinker{Relation: geom.Intersects,
		Predicate: rdf.NSGeo + "sfIntersects", Workers: 2}
	if n := m2.Interlink(linker, rdf.NSOSM+"hasName", ""); n == 0 {
		t.Error("interlinking found no links")
	}
}

// TestOnTheFlyCacheWindow verifies the Listing 2 cache semantics through
// the whole stack.
func TestOnTheFlyCacheWindow(t *testing.T) {
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 4, 4, 2
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"
	fly, err := NewOnTheFlyStack(Listing2Mapping, grid)
	if err != nil {
		t.Fatal(err)
	}
	defer fly.Close()
	clock := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	fly.Adapter.Now = func() time.Time { return clock }

	if _, err := fly.Query(Listing3Query); err != nil {
		t.Fatal(err)
	}
	calls := fly.Adapter.PhysicalCalls()
	if _, err := fly.Query(Listing3Query); err != nil {
		t.Fatal(err)
	}
	if fly.Adapter.PhysicalCalls() != calls {
		t.Error("second query within window must be served from cache")
	}
	clock = clock.Add(11 * time.Minute)
	if _, err := fly.Query(Listing3Query); err != nil {
		t.Fatal(err)
	}
	if fly.Adapter.PhysicalCalls() != calls+1 {
		t.Error("query after window expiry must refetch")
	}
}
