package federation

import (
	"net/http/httptest"
	"testing"

	"applab/internal/endpoint"
	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/workload"
)

// buildMembers creates two stores holding disjoint datasets: GADM areas
// and OSM parks (the paper's federation example).
func buildMembers(t testing.TB) (*strabon.Store, *strabon.Store) {
	t.Helper()
	gadmStore := strabon.New()
	gadmStore.AddAll(workload.FeaturesToRDF(rdf.NSGADM, rdf.NSGADM+"hasType",
		workload.GADMAreas(workload.ParisExtent, 3, 4)))
	osmStore := strabon.New()
	osmStore.AddAll(workload.FeaturesToRDF(rdf.NSOSM, rdf.NSOSM+"poiType",
		workload.OSMParks(workload.VectorOptions{Extent: workload.ParisExtent, N: 20, Seed: 5})))
	return gadmStore, osmStore
}

func TestFederatedUnionQuery(t *testing.T) {
	gadm, osm := buildMembers(t)
	fed := New(Member{"gadm", gadm}, Member{"osm", osm})
	res, err := sparql.Eval(fed, `SELECT (COUNT(*) AS ?n) WHERE { ?s geo:hasGeometry ?g }`)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Binding(0)["n"].Int()
	if int(n) != 12+20 {
		t.Fatalf("federated count = %d, want 32", n)
	}
}

func TestFederatedSpatialJoin(t *testing.T) {
	gadm, osm := buildMembers(t)
	fed := New(Member{"gadm", gadm}, Member{"osm", osm})
	// Cross-endpoint GeoSPARQL join: which parks intersect which
	// administrative areas — the paper's GADM x OSM federation scenario.
	res, err := sparql.Eval(fed, `
SELECT ?park ?area WHERE {
  ?park osm:poiType osm:park .
  ?park geo:hasGeometry ?pg . ?pg geo:asWKT ?pw .
  ?area gadm:hasType ?ty .
  ?area geo:hasGeometry ?ag . ?ag geo:asWKT ?aw .
  FILTER(geof:sfIntersects(?pw, ?aw))
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) == 0 {
		t.Fatal("cross-endpoint spatial join found nothing")
	}
	// Sanity: every binding pairs an OSM IRI with a GADM IRI.
	for i := range res.Bindings {
		b := res.Binding(i)
		if b["park"].Value[:len(rdf.NSOSM)] != rdf.NSOSM {
			t.Errorf("park from wrong endpoint: %v", b["park"])
		}
		if b["area"].Value[:len(rdf.NSGADM)] != rdf.NSGADM {
			t.Errorf("area from wrong endpoint: %v", b["area"])
		}
	}
}

func TestSourceSelectionLearning(t *testing.T) {
	gadm, osm := buildMembers(t)
	fed := New(Member{"gadm", gadm}, Member{"osm", osm})
	// First query with osm:poiType asks both members; afterwards the gadm
	// member is known not to answer that predicate.
	q := `SELECT (COUNT(*) AS ?n) WHERE { ?s osm:poiType osm:park }`
	if _, err := sparql.Eval(fed, q); err != nil {
		t.Fatal(err)
	}
	gadmAfterFirst := fed.RequestCount("gadm")
	if _, err := sparql.Eval(fed, q); err != nil {
		t.Fatal(err)
	}
	if fed.RequestCount("gadm") != gadmAfterFirst {
		t.Errorf("gadm asked again for a predicate it cannot answer: %d -> %d",
			gadmAfterFirst, fed.RequestCount("gadm"))
	}
	if fed.RequestCount("osm") <= gadmAfterFirst {
		t.Error("osm must keep serving the pattern")
	}
	// ForgetCapabilities resets the learning.
	fed.ForgetCapabilities()
	if _, err := sparql.Eval(fed, q); err != nil {
		t.Fatal(err)
	}
	if fed.RequestCount("gadm") == gadmAfterFirst {
		t.Error("after forgetting, gadm must be probed again")
	}
}

func TestFederationDeduplicates(t *testing.T) {
	// Two members holding the same triple must yield it once.
	a, b := strabon.New(), strabon.New()
	tr := rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewLiteral("o"))
	a.Add(tr)
	b.Add(tr)
	fed := New(Member{"a", a}, Member{"b", b})
	got := fed.Match(rdf.Term{}, rdf.Term{}, rdf.Term{})
	if len(got) != 1 {
		t.Fatalf("deduplicated union = %d triples", len(got))
	}
}

// TestFederationUnionIsCanonical: a triple both members hold comes back
// once, and the union is in rdf.Triple.Compare order whatever order the
// members answered in.
func TestFederationUnionIsCanonical(t *testing.T) {
	p := rdf.NewIRI("http://ex/p")
	tr := func(s string) rdf.Triple { return rdf.NewTriple(rdf.NewIRI("http://ex/"+s), p, rdf.NewLiteral(s)) }
	a, b := strabon.New(), strabon.New()
	a.AddAll([]rdf.Triple{tr("z"), tr("m")})
	b.AddAll([]rdf.Triple{tr("m"), tr("a")})
	fed := New(Member{"a", a}, Member{"b", b})
	got := fed.Match(rdf.Term{}, p, rdf.Term{})
	want := []rdf.Triple{tr("a"), tr("m"), tr("z")}
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].Compare(&want[i]) != 0 {
			t.Fatalf("union = %v, want %v", got, want)
		}
	}
}

func TestFederationOverHTTPEndpoints(t *testing.T) {
	gadm, osm := buildMembers(t)
	gadmSrv := httptest.NewServer(endpoint.Handler(gadm))
	defer gadmSrv.Close()
	osmSrv := httptest.NewServer(endpoint.Handler(osm))
	defer osmSrv.Close()

	gadmRemote := endpoint.NewRemoteSource(gadmSrv.URL)
	osmRemote := endpoint.NewRemoteSource(osmSrv.URL)
	if err := gadmRemote.Probe(); err != nil {
		t.Fatal(err)
	}
	fed := New(Member{"gadm", gadmRemote}, Member{"osm", osmRemote})

	res, err := sparql.Eval(fed, `
SELECT ?name WHERE {
  ?park osm:poiType osm:park ; osm:hasName ?name ;
        geo:hasGeometry ?pg .
  ?pg geo:asWKT ?pw .
  ?area gadm:hasType ?ty ; geo:hasGeometry ?ag .
  ?ag geo:asWKT ?aw .
  FILTER(geof:sfIntersects(?pw, ?aw))
  FILTER(?name = "Bois de Boulogne")
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) == 0 {
		t.Fatal("HTTP federation found no Bois de Boulogne intersections")
	}
	for i := range res.Bindings {
		b := res.Binding(i)
		if b["name"].Value != "Bois de Boulogne" {
			t.Errorf("unexpected name %v", b["name"])
		}
	}
}

func TestAddMember(t *testing.T) {
	gadm, osm := buildMembers(t)
	fed := New(Member{"gadm", gadm})
	if len(fed.Members()) != 1 {
		t.Fatal("initial members")
	}
	fed.AddMember(Member{"osm", osm})
	res, err := sparql.Eval(fed, `SELECT (COUNT(*) AS ?n) WHERE { ?s osm:poiType ?t }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Binding(0)["n"].Int(); n != 20 {
		t.Fatalf("count after AddMember = %d", n)
	}
}

// TestFederationCacheIdentity: the federation composes its members'
// cache identities (the endpoint's result cache keys on them), so two federations over the same member instances
// share entries while a federation over different instances does not.
func TestFederationCacheIdentity(t *testing.T) {
	gadm, osm := buildMembers(t)
	fedA := New(Member{"gadm", gadm}, Member{"osm", osm})
	fedB := New(Member{"gadm", gadm}, Member{"osm", osm})
	if fedA.Fingerprint() != fedB.Fingerprint() {
		t.Fatalf("same members, different fingerprints: %q vs %q",
			fedA.Fingerprint(), fedB.Fingerprint())
	}
	gadm2, osm2 := buildMembers(t)
	fedC := New(Member{"gadm", gadm2}, Member{"osm", osm2})
	if fedA.Fingerprint() == fedC.Fingerprint() {
		t.Fatal("distinct member instances share a fingerprint")
	}
	// Epoch moves with member ingest.
	before := fedA.DataEpoch()
	osm.Add(rdf.NewTriple(rdf.NewIRI(rdf.NSOSM+"extra"),
		hasGeometry, rdf.NewIRI(rdf.NSOSM+"extraGeom")))
	if fedA.DataEpoch() == before {
		t.Fatal("member ingest did not move the federation epoch")
	}
}

// TestFederatedAnswerSaysPartial: an answer missing a broken member's
// triples says so, and an answer every member contributed to does not.
func TestFederatedAnswerSaysPartial(t *testing.T) {
	gadm, osm := buildMembers(t)
	q := `SELECT (COUNT(*) AS ?n) WHERE { ?s geo:hasGeometry ?g }`
	for _, c := range []struct {
		name    string
		fed     *Federation
		n       int64
		partial bool
	}{
		{"healthy", New(Member{"gadm", gadm}, Member{"osm", osm}), 12 + 20, false},
		{"broken member", New(Member{"gadm", gadm}, Member{"bad", failingSource{}}), 12, true},
	} {
		res, err := sparql.Eval(c.fed, q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n, _ := res.Binding(0)["n"].Int(); n != c.n || res.Partial != c.partial {
			t.Fatalf("%s: count %d, partial %v; want %d, %v", c.name, n, res.Partial, c.n, c.partial)
		}
	}
}
