package geom

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseWKTPoint(t *testing.T) {
	g, err := ParseWKT("POINT (2.35 48.85)")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := g.(*PointGeom)
	if !ok || p.P.X != 2.35 || p.P.Y != 48.85 {
		t.Fatalf("got %#v", g)
	}
}

func TestParseWKTCaseInsensitiveAndSpacing(t *testing.T) {
	for _, s := range []string{
		"point(1 2)",
		"Point ( 1 2 )",
		"POINT(1 2)",
		"  POINT (1 2)  ",
	} {
		g, err := ParseWKT(s)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		if g.Kind() != KindPoint {
			t.Errorf("%q parsed as %v", s, g.Kind())
		}
	}
}

func TestParseWKTCRSPrefix(t *testing.T) {
	g, err := ParseWKT("<http://www.opengis.net/def/crs/EPSG/0/4326> POINT (2 48)")
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind() != KindPoint {
		t.Fatalf("kind = %v", g.Kind())
	}
}

func TestParseWKTLineString(t *testing.T) {
	g := MustParseWKT("LINESTRING (0 0, 1 1, 2 0)")
	l := g.(*LineString)
	if len(l.Points) != 3 {
		t.Fatalf("points = %v", l.Points)
	}
	if l.Length() <= 2.8 || l.Length() >= 2.9 {
		t.Errorf("length = %v", l.Length())
	}
}

func TestParseWKTPolygonWithHole(t *testing.T) {
	g := MustParseWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))")
	p := g.(*Polygon)
	if len(p.Rings) != 2 {
		t.Fatalf("rings = %d", len(p.Rings))
	}
	if a := p.Area(); a != 96 {
		t.Errorf("area with hole = %v, want 96", a)
	}
}

func TestParseWKTAutoClosesRings(t *testing.T) {
	g := MustParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4))")
	p := g.(*Polygon)
	ring := p.Rings[0]
	if ring[0] != ring[len(ring)-1] {
		t.Error("ring not closed")
	}
	if p.Area() != 16 {
		t.Errorf("area = %v", p.Area())
	}
}

func TestParseWKTMultiGeometries(t *testing.T) {
	mp := MustParseWKT("MULTIPOINT ((1 2), (3 4))").(*MultiPoint)
	if len(mp.Points) != 2 {
		t.Errorf("multipoint = %v", mp.Points)
	}
	mp2 := MustParseWKT("MULTIPOINT (1 2, 3 4)").(*MultiPoint)
	if len(mp2.Points) != 2 {
		t.Errorf("bare multipoint = %v", mp2.Points)
	}
	ml := MustParseWKT("MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 4))").(*MultiLineString)
	if len(ml.Lines) != 2 || len(ml.Lines[1].Points) != 3 {
		t.Errorf("multilinestring = %v", ml)
	}
	mpoly := MustParseWKT("MULTIPOLYGON (((0 0, 2 0, 2 2, 0 2, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))").(*MultiPolygon)
	if len(mpoly.Polygons) != 2 {
		t.Errorf("multipolygon = %v", mpoly)
	}
	if mpoly.Area() != 5 {
		t.Errorf("multipolygon area = %v", mpoly.Area())
	}
	gc := MustParseWKT("GEOMETRYCOLLECTION (POINT (1 1), LINESTRING (0 0, 1 0))").(*Collection)
	if len(gc.Members) != 2 {
		t.Errorf("collection = %v", gc)
	}
}

func TestParseWKTEmpty(t *testing.T) {
	for _, s := range []string{
		"POINT EMPTY", "LINESTRING EMPTY", "POLYGON EMPTY",
		"MULTIPOINT EMPTY", "MULTIPOLYGON EMPTY", "GEOMETRYCOLLECTION EMPTY",
	} {
		g, err := ParseWKT(s)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		if !g.IsEmpty() {
			t.Errorf("%q should be empty", s)
		}
	}
}

func TestParseWKTZOrdinatesDropped(t *testing.T) {
	g, err := ParseWKT("LINESTRING (0 0 5, 1 1 6)")
	if err != nil {
		t.Fatal(err)
	}
	l := g.(*LineString)
	if len(l.Points) != 2 || l.Points[1].X != 1 {
		t.Errorf("points = %v", l.Points)
	}
}

func TestParseWKTErrors(t *testing.T) {
	bad := []string{
		"",
		"CIRCLE (0 0, 1)",
		"POINT (1)",
		"POINT (1 2",
		"POINT (a b)",
		"POINT (1 2) extra",
		"<http://crs POINT (1 2)",
	}
	for _, s := range bad {
		if _, err := ParseWKT(s); err == nil {
			t.Errorf("expected error for %q", s)
		}
	}
}

func TestWKTRoundTrip(t *testing.T) {
	inputs := []string{
		"POINT (2.35 48.85)",
		"LINESTRING (0 0, 1 1, 2 0)",
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))",
		"MULTIPOINT ((1 2), (3 4))",
		"MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
		"MULTIPOLYGON (((0 0, 2 0, 2 2, 0 2, 0 0)))",
		"GEOMETRYCOLLECTION (POINT (1 1), LINESTRING (0 0, 1 0))",
	}
	for _, in := range inputs {
		g := MustParseWKT(in)
		out := g.WKT()
		g2, err := ParseWKT(out)
		if err != nil {
			t.Errorf("re-parse of %q failed: %v", out, err)
			continue
		}
		if g2.WKT() != out {
			t.Errorf("unstable round trip: %q -> %q", out, g2.WKT())
		}
		if !strings.HasPrefix(out, strings.ToUpper(strings.SplitN(in, " ", 2)[0])) {
			t.Errorf("tag mismatch: %q from %q", out, in)
		}
	}
}

func TestEnvelopeOps(t *testing.T) {
	e := EmptyEnvelope()
	if !e.IsEmpty() || e.Area() != 0 {
		t.Error("empty envelope misbehaves")
	}
	e = e.ExtendPoint(Point{1, 2}).ExtendPoint(Point{3, 0})
	if e.MinX != 1 || e.MinY != 0 || e.MaxX != 3 || e.MaxY != 2 {
		t.Errorf("extend: %+v", e)
	}
	if e.Area() != 4 {
		t.Errorf("area = %v", e.Area())
	}
	o := Envelope{2, 1, 5, 5}
	if !e.Intersects(o) {
		t.Error("envelopes should intersect")
	}
	if e.Intersects(Envelope{10, 10, 11, 11}) {
		t.Error("disjoint envelopes reported intersecting")
	}
	if !(Envelope{0, 0, 10, 10}).ContainsEnvelope(e) {
		t.Error("container check failed")
	}
	if !e.ContainsPoint(Point{2, 1}) || e.ContainsPoint(Point{9, 9}) {
		t.Error("point containment wrong")
	}
	c := e.Center()
	if c.X != 2 || c.Y != 1 {
		t.Errorf("center = %v", c)
	}
}

func TestCentroidAndArea(t *testing.T) {
	sq := MustParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	c := Centroid(sq)
	if c.X != 2 || c.Y != 2 {
		t.Errorf("square centroid = %v", c)
	}
	if Area(sq) != 16 {
		t.Errorf("square area = %v", Area(sq))
	}
	pt := NewPoint(7, 8)
	if c := Centroid(pt); c.X != 7 || c.Y != 8 {
		t.Errorf("point centroid = %v", c)
	}
	if Area(pt) != 0 {
		t.Error("point area must be 0")
	}
	line := MustParseWKT("LINESTRING (0 0, 2 0)")
	if c := Centroid(line); c.X != 1 || c.Y != 0 {
		t.Errorf("line centroid = %v", c)
	}
}

// TestParseWKTCoordAllocations: a 2-D coordinate costs nothing beyond
// its place in the point slice — in particular the probe for optional
// Z/M ordinates builds no error to throw away. Doubling the ring
// therefore adds only the slice's one extra growth step.
func TestParseWKTCoordAllocations(t *testing.T) {
	ring := func(n int) string {
		var b strings.Builder
		b.WriteString("POLYGON((")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%d %d, ", i, i*i%7)
		}
		b.WriteString("0 0))")
		return b.String()
	}
	allocs := func(n int) float64 {
		src := ring(n)
		return testing.AllocsPerRun(20, func() {
			if _, err := ParseWKT(src); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := allocs(64), allocs(128); big > small+1 {
		t.Fatalf("parsing allocates %v objects for 65 coordinates, %v for 129", small, big)
	}
}
