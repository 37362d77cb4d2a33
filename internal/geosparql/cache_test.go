package geosparql

import (
	"fmt"
	"sync"
	"testing"

	"applab/internal/geom"
	"applab/internal/rdf"
	"applab/internal/telemetry"
)

// setGeometryCacheCap replaces the geometry memo with an empty one
// bounded to n live entries; n <= 0 restores the default cap.
// In-flight lookups finish against the old cache.
func setGeometryCacheCap(n int) {
	geomCache.Store(newBoundedGeomCache(n))
}

// TestGeometryCacheBounded is the churn regression the unbounded
// sync.Map failed: stream far more distinct WKT literals through the
// parser than the cap and check the live entry count stays bounded.
func TestGeometryCacheBounded(t *testing.T) {
	setGeometryCacheCap(64)
	t.Cleanup(func() { setGeometryCacheCap(0) })
	for i := 0; i < 10000; i++ {
		w := rdf.NewWKT(fmt.Sprintf("POINT (%d %d)", i%500, i/500))
		if _, err := ParseGeometryTerm(w); err != nil {
			t.Fatal(err)
		}
	}
	entries, bytes := GeometryCacheStats()
	if entries > 64 {
		t.Fatalf("cache holds %d entries, cap 64", entries)
	}
	if entries == 0 || bytes <= 0 {
		t.Fatalf("cache empty after churn (entries=%d bytes=%d)", entries, bytes)
	}
}

// TestGeometryCachePromotion: an entry hit between inserts keeps its
// reference bit set, so the CLOCK hand passes it by (its second chance)
// instead of evicting it.
func TestGeometryCachePromotion(t *testing.T) {
	setGeometryCacheCap(8)
	t.Cleanup(func() { setGeometryCacheCap(0) })
	hot := rdf.NewWKT("POINT (1 1)")
	if _, err := ParseGeometryTerm(hot); err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 50; gen++ {
		for i := 0; i < 3; i++ {
			w := rdf.NewWKT(fmt.Sprintf("POINT (%d %d)", gen+2, i+2))
			if _, err := ParseGeometryTerm(w); err != nil {
				t.Fatal(err)
			}
		}
		// Touch the hot entry each generation: it must stay resident.
		g, err := ParseGeometryTerm(hot)
		if err != nil {
			t.Fatal(err)
		}
		if g.WKT() != "POINT (1 1)" {
			t.Fatalf("hot entry corrupted: %s", g.WKT())
		}
	}
	if entries, _ := GeometryCacheStats(); entries > 8 {
		t.Fatalf("cache exceeded cap under promotion: %d entries", entries)
	}
}

// TestGeometryCacheConcurrent hammers the cache from many goroutines
// with overlapping keys; run under -race this pins the locking.
func TestGeometryCacheConcurrent(t *testing.T) {
	setGeometryCacheCap(32)
	t.Cleanup(func() { setGeometryCacheCap(0) })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w := rdf.NewWKT(fmt.Sprintf("POINT (%d 0)", (seed*31+i)%100))
				g, err := ParseGeometryTerm(w)
				if err != nil || g == nil {
					panic(fmt.Sprintf("parse: %v", err))
				}
			}
		}(w)
	}
	wg.Wait()
	if entries, _ := GeometryCacheStats(); entries > 32 {
		t.Fatalf("cache exceeded cap: %d entries", entries)
	}
}

// TestGeometryCacheSemantics: cached geometries behave identically to
// freshly parsed ones, and non-literals / bad WKT still error.
func TestGeometryCacheSemantics(t *testing.T) {
	setGeometryCacheCap(16)
	t.Cleanup(func() { setGeometryCacheCap(0) })
	w := rdf.NewWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	first, err := ParseGeometryTerm(w)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseGeometryTerm(w)
	if err != nil {
		t.Fatal(err)
	}
	fresh := geom.MustParseWKT(w.Value)
	if first.WKT() != fresh.WKT() || again.WKT() != fresh.WKT() {
		t.Fatalf("cached geometry diverges: %s vs %s", again.WKT(), fresh.WKT())
	}
	if !geom.Intersects(again, geom.NewPoint(2, 2)) {
		t.Fatal("cached polygon lost its interior")
	}
	if _, err := ParseGeometryTerm(rdf.NewIRI("urn:x")); err == nil {
		t.Fatal("non-literal accepted")
	}
	if _, err := ParseGeometryTerm(rdf.NewLiteral("POINT (bad")); err == nil {
		t.Fatal("garbage WKT accepted")
	}
}

// TestArenaBytesGauge: parsing publishes the arena footprint into an
// installed registry.
func TestArenaBytesGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	SetMetrics(reg)
	setGeometryCacheCap(16)
	t.Cleanup(func() {
		SetMetrics(nil)
		setGeometryCacheCap(0)
	})
	if _, err := ParseGeometryTerm(rdf.NewWKT("POINT (3 4)")); err != nil {
		t.Fatal(err)
	}
	if v := reg.Gauge("spatial_arena_bytes").Value(); v <= 0 {
		t.Fatalf("spatial_arena_bytes = %v, want > 0", v)
	}
}

// TestGeometryMemoHit: a hit copies nothing and allocates nothing.
func TestGeometryMemoHit(t *testing.T) {
	setGeometryCacheCap(16)
	t.Cleanup(func() { setGeometryCacheCap(0) })
	w := rdf.NewWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	first, env, ok := Decode(&w)
	if !ok || env != first.Envelope() {
		t.Fatalf("Decode = %v, %v, %v", first, env, ok)
	}
	var again geom.Geometry
	if n := testing.AllocsPerRun(100, func() { again, _, _ = Decode(&w) }); n != 0 {
		t.Fatalf("a memo hit allocates %.0f times, want 0", n)
	}
	if again != first {
		t.Fatal("a memo hit returned a different geometry")
	}
	for _, bad := range []*rdf.Term{nil, {Kind: rdf.KindIRI, Value: "urn:x"}, {Kind: rdf.KindLiteral, Value: "POINT (bad"}} {
		if _, env, ok := Decode(bad); ok || !env.IsEmpty() {
			t.Fatalf("Decode(%v) = ok %v, envelope %v", bad, ok, env)
		}
	}
}

// TestGeometryMemoHotEntrySurvivesChurn streams 50x the cap in distinct
// literals past an entry that is touched a few times per sweep of the
// hand: it is never evicted, so never parsed again (the memo hands out the
// geometry it stored first), and the table never exceeds its cap.
func TestGeometryMemoHotEntrySurvivesChurn(t *testing.T) {
	const capacity = 64
	setGeometryCacheCap(capacity)
	t.Cleanup(func() { setGeometryCacheCap(0) })
	hot := rdf.NewWKT("LINESTRING (0 0, 1 1, 2 0)")
	first, _, ok := Decode(&hot)
	if !ok {
		t.Fatal("hot literal did not decode")
	}
	for i := 0; i < 50*capacity; i++ {
		w := rdf.NewWKT(fmt.Sprintf("POINT (%d 7)", i))
		if _, _, ok := Decode(&w); !ok {
			t.Fatal(w)
		}
		if entries, _ := GeometryCacheStats(); entries > capacity {
			t.Fatalf("memo holds %d entries, cap %d", entries, capacity)
		}
		if i%(capacity/4) == 0 {
			if g, _, _ := Decode(&hot); g != first {
				t.Fatalf("after %d inserts the hot entry was parsed again", i)
			}
		}
	}
}

// TestGeometryMemoImmutable: memoized slices are clipped to their length,
// so a caller appending to a shared ring reallocates instead of writing
// into memory another goroutine reads.
func TestGeometryMemoImmutable(t *testing.T) {
	setGeometryCacheCap(16)
	t.Cleanup(func() { setGeometryCacheCap(0) })
	for _, w := range []string{
		"LINESTRING (0 0, 1 1, 2 0)",
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))",
		"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((2 2, 3 2, 3 3, 2 2)))",
		"GEOMETRYCOLLECTION (MULTIPOINT ((1 1), (2 2), (3 3)), MULTILINESTRING ((0 0, 1 1, 2 2)))",
	} {
		term := rdf.NewWKT(w)
		g, _, ok := Decode(&term)
		if !ok {
			t.Fatal(w)
		}
		var check func(g geom.Geometry)
		clippedTo := func(l, c int) {
			if l != c {
				t.Errorf("%s: slice len %d cap %d, want clipped", w, l, c)
			}
		}
		check = func(g geom.Geometry) {
			switch x := g.(type) {
			case *geom.MultiPoint:
				clippedTo(len(x.Points), cap(x.Points))
			case *geom.LineString:
				clippedTo(len(x.Points), cap(x.Points))
			case *geom.MultiLineString:
				clippedTo(len(x.Lines), cap(x.Lines))
				for _, l := range x.Lines {
					check(l)
				}
			case *geom.Polygon:
				clippedTo(len(x.Rings), cap(x.Rings))
				for _, r := range x.Rings {
					clippedTo(len(r), cap(r))
				}
			case *geom.MultiPolygon:
				clippedTo(len(x.Polygons), cap(x.Polygons))
				for _, p := range x.Polygons {
					check(p)
				}
			case *geom.Collection:
				clippedTo(len(x.Members), cap(x.Members))
				for _, m := range x.Members {
					check(m)
				}
			}
		}
		check(g)
		if g.WKT() != geom.MustParseWKT(w).WKT() {
			t.Errorf("memoized %s reads back as %s", w, g.WKT())
		}
	}
}

// TestMemoBytesGaugeOnInstall: a registry installed after the memo is
// warm sees its size at once, not at the next insert.
func TestMemoBytesGaugeOnInstall(t *testing.T) {
	setGeometryCacheCap(16)
	t.Cleanup(func() {
		SetMetrics(nil)
		setGeometryCacheCap(0)
	})
	if _, err := ParseGeometryTerm(rdf.NewWKT("POINT (5 6)")); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	SetMetrics(reg)
	_, bytes := GeometryCacheStats()
	if v := reg.Gauge("spatial_arena_bytes").Value(); v != float64(bytes) || v <= 0 {
		t.Fatalf("spatial_arena_bytes = %v, want the warm memo's %d", v, bytes)
	}
}
