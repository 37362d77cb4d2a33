package interlink

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"applab/internal/geom"
	"applab/internal/rdf"
	"applab/internal/workload"
)

func ent(id string, g geom.Geometry) Entity {
	return Entity{ID: rdf.NewIRI("http://ex.org/" + id), Geom: g}
}

// assertMatchesNaive checks Discover against DiscoverNaive for
// geom.Intersects, order-exactly, at workers {1, 4}.
func assertMatchesNaive(t *testing.T, label string, src, dst []Entity) {
	t.Helper()
	naive := DiscoverNaive(src, dst, geom.Intersects, rdf.NSGeo+"sfIntersects")
	for _, workers := range []int{1, 4} {
		l := &SpatialLinker{Relation: geom.Intersects, Predicate: rdf.NSGeo + "sfIntersects", Workers: workers}
		got := l.Discover(src, dst)
		if len(got) != len(naive) {
			t.Fatalf("%s, workers=%d: %d links, naive %d", label, workers, len(got), len(naive))
		}
		for i := range got {
			if got[i] != naive[i] {
				t.Fatalf("%s, workers=%d: link %d differs: %+v vs %+v", label, workers, i, got[i], naive[i])
			}
		}
	}
}

// randomEntities draws n entities on a half-unit lattice, so shared
// edges, corners and coincident points are common: points, rectangles,
// slivers, segments and the odd extent-spanning rectangle. About one in
// five repeats an earlier entity's ID with a second geometry, the shape
// EntitiesFromGraph emits for a subject with two geo:hasGeometry.
func randomEntities(r *rand.Rand, prefix string, n int) []Entity {
	coord := func() float64 { return float64(r.Intn(41)) / 2 }
	var out []Entity
	for i := 0; i < n; i++ {
		id := rdf.NewIRI(fmt.Sprintf("http://ex.org/%s%d", prefix, i))
		if i > 0 && r.Intn(5) == 0 {
			id = out[r.Intn(len(out))].ID
		}
		x, y := coord(), coord()
		var g geom.Geometry
		switch k := r.Intn(20); {
		case k < 5:
			g = geom.NewPoint(x, y)
		case k < 11:
			g = geom.NewRect(x, y, x+0.5+coord()/4, y+0.5+coord()/4)
		case k < 13:
			g = geom.NewRect(x, y, x+0.5+coord(), y+1e-6)
		case k < 19:
			g = &geom.LineString{Points: []geom.Point{{X: x, Y: y}, {X: coord(), Y: coord()}}}
		default:
			g = geom.NewRect(-5, -5, 25, 25)
		}
		out = append(out, Entity{ID: id, Geom: g})
	}
	return out
}

func TestSpatialLinkerMatchesNaive(t *testing.T) {
	parks := workload.OSMParks(workload.VectorOptions{Extent: workload.ParisExtent, N: 60, Seed: 3})
	clc := workload.CorineLandCover(workload.VectorOptions{Extent: workload.ParisExtent, N: 80, Seed: 4})
	var src, dst []Entity
	for _, f := range parks {
		src = append(src, ent("osm/"+f.ID, f.Geom))
	}
	for _, f := range clc {
		dst = append(dst, ent("clc/"+f.ID, f.Geom))
	}
	if len(DiscoverNaive(src, dst, geom.Intersects, "p")) == 0 {
		t.Fatal("naive discovery found nothing; bad workload")
	}
	assertMatchesNaive(t, "paris", src, dst)

	// One ID, two geometries: the first shares blocking cells with b but
	// misses it, the second intersects it; then both intersect it. Every
	// geometry pair is verified, so the links are naive's — the link via
	// the second geometry included, and one link per intersecting pair.
	b := []Entity{ent("b", geom.NewRect(1.05, 1.05, 5.5, 5.5))}
	assertMatchesNaive(t, "second geometry hits", []Entity{
		ent("a", geom.NewRect(0, 0, 1, 1)),
		ent("a", geom.NewRect(5, 5, 6, 6)),
	}, b)
	assertMatchesNaive(t, "both geometries hit", []Entity{
		ent("a", geom.NewRect(1, 1, 2, 2)),
		ent("a", geom.NewRect(5, 5, 6, 6)),
	}, b)

	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := randomEntities(r, "s", 1+r.Intn(30))
		var dst []Entity
		switch r.Intn(4) {
		case 0: // self-join: every entity also meets itself
			dst = src
		case 1: // overlapping sets
			dst = append(src[:len(src)/2:len(src)/2], randomEntities(r, "d", 1+r.Intn(30))...)
		default:
			dst = randomEntities(r, "d", 1+r.Intn(30))
		}
		assertMatchesNaive(t, fmt.Sprintf("seed %d", seed), src, dst)
	}
}

func TestSpatialLinkerRectangles(t *testing.T) {
	a := []Entity{ent("a", geom.NewRect(0, 0, 1, 1))}
	b := []Entity{
		ent("b1", geom.NewRect(0.5, 0.5, 2, 2)), // intersects
		ent("b2", geom.NewRect(10, 10, 11, 11)), // disjoint
		ent("b3", geom.NewRect(0.9, 0.9, 5, 5)), // intersects
	}
	l := &SpatialLinker{Relation: geom.Intersects, Predicate: "p"}
	links := l.Discover(a, b)
	if len(links) != 2 {
		t.Fatalf("links = %+v", links)
	}
}

// Entity.Geom is nil for an entity without a geometry: on either side,
// blocked or naive, such an entity links to nothing and the others'
// links stand.
func TestSpatialLinkerSkipsEntitiesWithoutGeometry(t *testing.T) {
	a := []Entity{ent("a", geom.NewRect(0, 0, 1, 1)), {ID: rdf.NewIRI("http://ex.org/nameless"), Name: "no geometry"}}
	b := []Entity{{ID: rdf.NewIRI("http://ex.org/named"), Name: "no geometry"}, ent("b", geom.NewRect(0.5, 0.5, 2, 2))}
	l := &SpatialLinker{Relation: geom.Intersects, Predicate: "p"}
	for _, c := range []struct {
		name     string
		src, dst []Entity
		want     int
	}{
		{"both sides", a, b, 1},
		{"self-join", append(a, b...), append(a, b...), 2},
		{"only nil destinations", a, b[:1], 0},
	} {
		if got := l.Discover(c.src, c.dst); len(got) != c.want {
			t.Fatalf("%s: %d links, want %d: %+v", c.name, len(got), c.want, got)
		}
		assertMatchesNaive(t, c.name, c.src, c.dst)
	}
}

func TestSpatialLinkerEmptyInputs(t *testing.T) {
	l := &SpatialLinker{Relation: geom.Intersects, Predicate: "p"}
	if got := l.Discover(nil, nil); got != nil {
		t.Errorf("empty discover = %v", got)
	}
}

func TestEntitiesFromGraph(t *testing.T) {
	parks := workload.OSMParks(workload.VectorOptions{Extent: workload.ParisExtent, N: 5, Seed: 1})
	g := rdf.NewGraph()
	g.AddAll(workload.FeaturesToRDF(rdf.NSOSM, rdf.NSOSM+"poiType", parks))
	// Add an unparseable geometry that must be skipped.
	g.Add(rdf.NewTriple(rdf.NewIRI("bad"), rdf.NewIRI(rdf.NSGeo+"hasGeometry"), rdf.NewIRI("badg")))
	g.Add(rdf.NewTriple(rdf.NewIRI("badg"), rdf.NewIRI(rdf.NSGeo+"asWKT"), rdf.NewWKT("JUNK")))

	ents := EntitiesFromGraph(g, rdf.NSOSM+"hasName")
	if len(ents) != 5 {
		t.Fatalf("entities = %d", len(ents))
	}
	foundBois := false
	for _, e := range ents {
		if e.Name == "Bois de Boulogne" {
			foundBois = true
		}
		if e.Geom == nil {
			t.Errorf("entity %v lacks geometry", e.ID)
		}
	}
	if !foundBois {
		t.Error("named entity missing")
	}
}

func TestResolveEntities(t *testing.T) {
	a := []Entity{
		{ID: rdf.NewIRI("a1"), Name: "Bois de Boulogne"},
		{ID: rdf.NewIRI("a2"), Name: "Parc Monceau"},
		{ID: rdf.NewIRI("a3"), Name: "Jardin du Luxembourg"},
	}
	b := []Entity{
		{ID: rdf.NewIRI("b1"), Name: "bois de boulogne"}, // same, case differs
		{ID: rdf.NewIRI("b2"), Name: "Parc de Monceau"},  // near
		{ID: rdf.NewIRI("b3"), Name: "Tour Eiffel"},      // unrelated
	}
	links := ResolveEntities(a, b, 0.6, 2)
	if len(links) != 2 {
		t.Fatalf("links = %+v", links)
	}
	if links[0].Source.Value != "a1" || links[0].Target.Value != "b1" {
		t.Errorf("first link = %+v", links[0])
	}
	if links[0].Score != 1 {
		t.Errorf("identical names score = %v", links[0].Score)
	}
	if links[0].Predicate != rdf.OWLSameAs {
		t.Errorf("predicate = %q", links[0].Predicate)
	}
	// Threshold 1.0 keeps only the exact match.
	strict := ResolveEntities(a, b, 1.0, 1)
	if len(strict) != 1 {
		t.Fatalf("strict links = %+v", strict)
	}
	// Workers must not change results.
	for _, w := range []int{1, 2, 8} {
		got := ResolveEntities(a, b, 0.6, w)
		if len(got) != 2 {
			t.Errorf("workers=%d links=%d", w, len(got))
		}
	}
}

func TestTemporalLinks(t *testing.T) {
	d := func(m time.Month, day int) time.Time {
		return time.Date(2018, m, day, 0, 0, 0, 0, time.UTC)
	}
	a := []Entity{
		{ID: rdf.NewIRI("jan"), From: d(1, 1), To: d(1, 31)},
		{ID: rdf.NewIRI("jun"), From: d(6, 1), To: d(6, 30)},
	}
	b := []Entity{
		{ID: rdf.NewIRI("spring"), From: d(3, 1), To: d(5, 31)},
		{ID: rdf.NewIRI("h1"), From: d(1, 1), To: d(6, 30)},
		{ID: rdf.NewIRI("notime")},
	}
	before := TemporalLinks(a, b, RelBefore)
	if len(before) != 1 || before[0].Source.Value != "jan" || before[0].Target.Value != "spring" {
		t.Errorf("before = %+v", before)
	}
	during := TemporalLinks(a, b, RelDuring)
	if len(during) != 2 { // jan during h1, jun during h1
		t.Errorf("during = %+v", during)
	}
	overlaps := TemporalLinks(a, b, RelOverlaps)
	if len(overlaps) != 2 { // jan-h1, jun-h1 (jan/spring disjoint)
		t.Errorf("overlaps = %+v", overlaps)
	}
	after := TemporalLinks(b, a, RelAfter)
	if len(after) != 1 || after[0].Source.Value != "spring" {
		t.Errorf("after = %+v", after)
	}
}

func TestLinksToRDF(t *testing.T) {
	links := []Link{{Source: rdf.NewIRI("a"), Target: rdf.NewIRI("b"), Predicate: rdf.OWLSameAs, Score: 1}}
	triples := LinksToRDF(links)
	if len(triples) != 1 || triples[0].P.Value != rdf.OWLSameAs {
		t.Errorf("triples = %v", triples)
	}
}

func TestBlockingScalesBetterThanNaive(t *testing.T) {
	// Not a benchmark, just a sanity check that blocking visits far fewer
	// pairs: compare verified-pair counts via instrumented relations.
	n := 300
	var src, dst []Entity
	for i := 0; i < n; i++ {
		x := float64(i%20) * 10
		y := float64(i/20) * 10
		src = append(src, ent(fmt.Sprintf("s%d", i), geom.NewRect(x, y, x+1, y+1)))
		dst = append(dst, ent(fmt.Sprintf("d%d", i), geom.NewRect(x+0.5, y+0.5, x+1.5, y+1.5)))
	}
	naiveCalls := 0
	DiscoverNaive(src, dst, func(a, b geom.Geometry) bool {
		naiveCalls++
		return geom.Intersects(a, b)
	}, "p")
	blockedCalls := 0
	l := &SpatialLinker{Relation: func(a, b geom.Geometry) bool {
		blockedCalls++
		return geom.Intersects(a, b)
	}, Predicate: "p"}
	l.Discover(src, dst)
	if blockedCalls*10 > naiveCalls {
		t.Errorf("blocking visited %d pairs, naive %d — expected >=10x reduction", blockedCalls, naiveCalls)
	}
}

func TestObservationEntitiesFromGraph(t *testing.T) {
	g := rdf.NewGraph()
	hasTime := rdf.NewIRI(rdf.NSTime + "hasTime")
	hasGeom := rdf.NewIRI(rdf.NSGeo + "hasGeometry")
	asWKT := rdf.NewIRI(rdf.NSGeo + "asWKT")
	add := func(id, when, wkt string) {
		s := rdf.NewIRI("http://ex.org/" + id)
		gn := rdf.NewIRI("http://ex.org/" + id + "/g")
		g.Add(rdf.NewTriple(s, hasTime, rdf.NewTypedLiteral(when, rdf.XSDDateTime)))
		g.Add(rdf.NewTriple(s, hasGeom, gn))
		g.Add(rdf.NewTriple(gn, asWKT, rdf.NewWKT(wkt)))
	}
	add("o2", "2018-06-01T00:00:00Z", "POINT (2 2)")
	add("o1", "2018-03-01T00:00:00Z", "POINT (1 1)")
	// Subject with time but no geometry: skipped.
	g.Add(rdf.NewTriple(rdf.NewIRI("http://ex.org/nogeo"), hasTime,
		rdf.NewTypedLiteral("2018-01-01T00:00:00Z", rdf.XSDDateTime)))

	ents := ObservationEntitiesFromGraph(g)
	if len(ents) != 2 {
		t.Fatalf("entities = %d", len(ents))
	}
	// Sorted by time.
	if !strings.HasSuffix(ents[0].ID.Value, "o1") || !strings.HasSuffix(ents[1].ID.Value, "o2") {
		t.Errorf("order = %v, %v", ents[0].ID, ents[1].ID)
	}
	// Usable with TemporalLinks.
	links := TemporalLinks(ents[:1], ents[1:], RelBefore)
	if len(links) != 1 {
		t.Errorf("temporal links = %v", links)
	}
}
