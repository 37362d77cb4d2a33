package strabon

import (
	"fmt"
	"testing"
	"time"

	"applab/internal/geom"
	"applab/internal/rdf"
)

// buildParkData creates a feature/geometry/observation graph: a grid of
// point observations with timestamps plus one park polygon.
func buildParkData(t testing.TB, nObs int) []rdf.Triple {
	t.Helper()
	var ts []rdf.Triple
	geo := func(local string) rdf.Term { return rdf.NewIRI(rdf.NSGeo + local) }
	// Park polygon covering [0,10]x[0,10].
	park := rdf.NewIRI(rdf.NSOSM + "park1")
	parkGeom := rdf.NewIRI(rdf.NSOSM + "parkGeom1")
	ts = append(ts,
		rdf.NewTriple(park, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.NSOSM+"Park")),
		rdf.NewTriple(park, geo("hasGeometry"), parkGeom),
		rdf.NewTriple(parkGeom, geo("asWKT"), rdf.NewWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))")),
	)
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < nObs; i++ {
		x := float64(i % 20)
		y := float64((i / 20) % 20)
		obs := rdf.NewIRI(fmt.Sprintf("%sobs%d", rdf.NSLAI, i))
		gnode := rdf.NewIRI(fmt.Sprintf("%sgeom%d", rdf.NSLAI, i))
		when := base.Add(time.Duration(i%12) * 24 * time.Hour * 30)
		ts = append(ts,
			rdf.NewTriple(obs, rdf.NewIRI(rdf.NSLAI+"lai"), rdf.NewDouble(float64(i%10))),
			rdf.NewTriple(obs, geo("hasGeometry"), gnode),
			rdf.NewTriple(obs, rdf.NewIRI(rdf.NSTime+"hasTime"), rdf.NewDateTime(when)),
			rdf.NewTriple(gnode, geo("asWKT"), rdf.NewWKT(fmt.Sprintf("POINT (%g %g)", x, y))),
		)
	}
	return ts
}

func TestStoreBasics(t *testing.T) {
	s := New()
	s.AddAll(buildParkData(t, 100))
	if s.Len() == 0 {
		t.Fatal("store empty after load")
	}
	if err := s.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if s.GeometryCount() != 101 { // 100 obs + 1 park
		t.Errorf("GeometryCount = %d", s.GeometryCount())
	}
}

func TestStoreSPARQLIntegration(t *testing.T) {
	s := New()
	s.AddAll(buildParkData(t, 50))
	res, err := s.Query(`
SELECT (COUNT(*) AS ?n) WHERE { ?o lai:lai ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Binding(0)["n"].Int(); v != 50 {
		t.Errorf("count = %v", res.Bindings)
	}
	// Spatial filter through the engine (Listing 1 shape).
	res, err = s.Query(`
SELECT DISTINCT ?v WHERE {
  ?park a osm:Park ; geo:hasGeometry ?pg .
  ?pg geo:asWKT ?pwkt .
  ?o lai:lai ?v ; geo:hasGeometry ?og .
  ?og geo:asWKT ?owkt .
  FILTER(geof:sfIntersects(?pwkt, ?owkt))
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) == 0 {
		t.Error("no intersecting observations via SPARQL")
	}
}

func TestFreezeInvalidGeometryReported(t *testing.T) {
	s := New()
	s.Add(rdf.NewTriple(rdf.NewIRI("g"), rdf.NewIRI(rdf.NSGeo+"asWKT"), rdf.NewWKT("JUNK")))
	if err := s.Freeze(); err == nil {
		t.Error("Freeze must report invalid geometry")
	}
	// Store remains usable.
	if s.GeometryCount() != 0 {
		t.Error("invalid geometry must not be indexed")
	}
}

func TestIncrementalReindex(t *testing.T) {
	s := New()
	s.AddAll(buildParkData(t, 10))
	n1 := s.GeometryCount()
	s.AddAll(buildParkData(t, 20)) // superset ids overlap; adds new ones
	n2 := s.GeometryCount()
	if n2 <= n1 {
		t.Errorf("reindex after add: %d -> %d", n1, n2)
	}
}

// The spatial index holds geo:asWKT triples only, so only a write that
// changes one rebuilds it: the tree after writes of other triples, or
// of an asWKT triple already stored, is the same tree.
func TestIndexRebuildsOnlyForGeometryWrites(t *testing.T) {
	s := New()
	s.AddAll(buildParkData(t, 10))
	n := s.GeometryCount()
	obs := rdf.NewIRI(rdf.NSLAI + "obs0")
	label := rdf.NewTriple(obs, rdf.NewIRI(rdf.RDFSLabel), rdf.NewLiteral("first"))
	point := rdf.NewTriple(rdf.NewIRI(rdf.NSLAI+"geom99"), asWKT, rdf.NewWKT("POINT (50 50)"))
	for _, step := range []struct {
		name    string
		write   func()
		rebuild bool
		count   int
	}{
		{"Add of another predicate", func() { s.Add(label) }, false, n},
		{"AddAll of other predicates", func() {
			s.AddAll([]rdf.Triple{rdf.NewTriple(obs, rdf.NewIRI(rdf.NSLAI+"lai"), rdf.NewDouble(42))})
		}, false, n},
		{"Delete of another predicate", func() { s.Delete(label) }, false, n},
		{"Add of a stored asWKT triple", func() { s.Add(buildParkData(t, 1)[2]) }, false, n},
		{"Add of a new asWKT triple", func() { s.Add(point) }, true, n + 1},
		{"AddAll with an asWKT triple", func() {
			s.AddAll([]rdf.Triple{label, rdf.NewTriple(rdf.NewIRI(rdf.NSLAI+"geom98"), asWKT, rdf.NewWKT("POINT (60 60)"))})
		}, true, n + 2},
		{"Delete of an asWKT triple", func() { s.Delete(point) }, true, n + 1},
	} {
		tree := s.spatial
		step.write()
		if got := s.GeometryCount(); got != step.count {
			t.Fatalf("%s: %d geometries, want %d", step.name, got, step.count)
		}
		if rebuilt := s.spatial != tree; rebuilt != step.rebuild {
			t.Fatalf("%s: index rebuilt = %v, want %v", step.name, rebuilt, step.rebuild)
		}
	}
	far := geom.Envelope{MinX: 55, MinY: 55, MaxX: 65, MaxY: 65}
	if got, _ := s.SpatialCandidates(far); len(got) != 1 || got[0].O.Value != "POINT (60 60)" {
		t.Fatalf("candidates near (60, 60) = %v", got)
	}
}
