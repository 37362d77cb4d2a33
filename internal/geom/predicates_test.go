package geom

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

var (
	unitSquare  = MustParseWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))")
	innerSquare = MustParseWKT("POLYGON ((2 2, 8 2, 8 8, 2 8, 2 2))")
	rightSquare = MustParseWKT("POLYGON ((10 0, 20 0, 20 10, 10 10, 10 0))") // shares edge x=10
	farSquare   = MustParseWKT("POLYGON ((100 100, 110 100, 110 110, 100 110, 100 100))")
	overlapping = MustParseWKT("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))")
	holed       = MustParseWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))")
)

func TestIntersectsPolygonPolygon(t *testing.T) {
	cases := []struct {
		a, b Geometry
		want bool
	}{
		{unitSquare, innerSquare, true},
		{unitSquare, overlapping, true},
		{unitSquare, rightSquare, true}, // edge touch counts as intersects
		{unitSquare, farSquare, false},
		{innerSquare, farSquare, false},
	}
	for i, c := range cases {
		if got := Intersects(c.a, c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := Intersects(c.b, c.a); got != c.want {
			t.Errorf("case %d (swapped): Intersects = %v, want %v", i, got, c.want)
		}
		if Disjoint(c.a, c.b) == c.want {
			t.Errorf("case %d: Disjoint inconsistent with Intersects", i)
		}
	}
}

func TestIntersectsPointPolygon(t *testing.T) {
	inside := NewPoint(5, 5)
	onEdge := NewPoint(10, 5)
	outside := NewPoint(50, 50)
	inHole := NewPoint(5, 5)

	if !Intersects(inside, unitSquare) || !Intersects(unitSquare, inside) {
		t.Error("interior point must intersect")
	}
	if !Intersects(onEdge, unitSquare) {
		t.Error("boundary point must intersect")
	}
	if Intersects(outside, unitSquare) {
		t.Error("outside point must not intersect")
	}
	if Intersects(inHole, holed) {
		t.Error("point in hole must not intersect")
	}
	if !Intersects(NewPoint(1, 1), holed) {
		t.Error("point in shell outside hole must intersect")
	}
}

func TestIntersectsLineCases(t *testing.T) {
	crossing := MustParseWKT("LINESTRING (-5 5, 15 5)")
	outsideLine := MustParseWKT("LINESTRING (20 20, 30 30)")
	touchingLine := MustParseWKT("LINESTRING (10 0, 20 0)")
	insideLine := MustParseWKT("LINESTRING (3 3, 7 7)")

	if !Intersects(crossing, unitSquare) {
		t.Error("crossing line must intersect polygon")
	}
	if Intersects(outsideLine, unitSquare) {
		t.Error("outside line must not intersect")
	}
	if !Intersects(touchingLine, unitSquare) {
		t.Error("corner-touching line must intersect")
	}
	if !Intersects(insideLine, unitSquare) {
		t.Error("fully interior line must intersect")
	}
	// line/line
	l1 := MustParseWKT("LINESTRING (0 0, 10 10)")
	l2 := MustParseWKT("LINESTRING (0 10, 10 0)")
	l3 := MustParseWKT("LINESTRING (20 0, 30 0)")
	if !Intersects(l1, l2) {
		t.Error("crossing lines must intersect")
	}
	if Intersects(l1, l3) {
		t.Error("disjoint lines must not intersect")
	}
	// point/line
	if !Intersects(NewPoint(5, 5), l1) {
		t.Error("point on line must intersect")
	}
	if Intersects(NewPoint(5, 6), l1) {
		t.Error("point off line must not intersect")
	}
	// point/point
	if !Intersects(NewPoint(1, 1), NewPoint(1, 1)) || Intersects(NewPoint(1, 1), NewPoint(2, 2)) {
		t.Error("point/point intersection wrong")
	}
}

func TestContainsWithin(t *testing.T) {
	if !Contains(unitSquare, innerSquare) {
		t.Error("outer must contain inner")
	}
	if Contains(innerSquare, unitSquare) {
		t.Error("inner must not contain outer")
	}
	if !Within(innerSquare, unitSquare) {
		t.Error("inner must be within outer")
	}
	if Contains(unitSquare, overlapping) {
		t.Error("partial overlap is not containment")
	}
	if Contains(unitSquare, farSquare) {
		t.Error("disjoint is not containment")
	}
	// polygon contains point
	if !Contains(unitSquare, NewPoint(5, 5)) {
		t.Error("polygon must contain interior point")
	}
	if Contains(unitSquare, NewPoint(50, 5)) {
		t.Error("polygon must not contain outside point")
	}
	// polygon with hole does not contain point in hole
	if Contains(holed, NewPoint(5, 5)) {
		t.Error("holed polygon must not contain point in hole")
	}
	if !Contains(holed, NewPoint(1, 1)) {
		t.Error("holed polygon must contain shell point")
	}
	// polygon contains line
	if !Contains(unitSquare, MustParseWKT("LINESTRING (1 1, 9 9)")) {
		t.Error("polygon must contain interior line")
	}
	if Contains(unitSquare, MustParseWKT("LINESTRING (5 5, 15 5)")) {
		t.Error("polygon must not contain exiting line")
	}
	// hole-crossing line not contained
	if Contains(holed, MustParseWKT("LINESTRING (3 5, 7 5)")) {
		t.Error("line through hole must not be contained")
	}
	// line contains point
	l := MustParseWKT("LINESTRING (0 0, 10 0)")
	if !Contains(l, NewPoint(5, 0)) {
		t.Error("line must contain on-point")
	}
	if Contains(l, NewPoint(5, 1)) {
		t.Error("line must not contain off-point")
	}
	// line contains sub-line
	if !Contains(l, MustParseWKT("LINESTRING (2 0, 8 0)")) {
		t.Error("line must contain collinear sub-line")
	}
	if Contains(l, MustParseWKT("LINESTRING (2 0, 8 1)")) {
		t.Error("line must not contain divergent line")
	}
	// point contains point
	if !Contains(NewPoint(1, 2), NewPoint(1, 2)) || Contains(NewPoint(1, 2), NewPoint(1, 3)) {
		t.Error("point/point containment wrong")
	}
}

func TestTouches(t *testing.T) {
	if !Touches(unitSquare, rightSquare) {
		t.Error("edge-adjacent squares must touch")
	}
	if Touches(unitSquare, overlapping) {
		t.Error("overlapping squares must not touch")
	}
	if Touches(unitSquare, innerSquare) {
		t.Error("contained squares must not touch")
	}
	if Touches(unitSquare, farSquare) {
		t.Error("disjoint squares must not touch")
	}
	// point touching polygon boundary
	if !Touches(NewPoint(10, 5), unitSquare) {
		t.Error("boundary point must touch")
	}
	if Touches(NewPoint(5, 5), unitSquare) {
		t.Error("interior point must not touch")
	}
	// line touching polygon at a corner
	if !Touches(MustParseWKT("LINESTRING (10 10, 20 20)"), unitSquare) {
		t.Error("corner-touching line must touch")
	}
}

func TestOverlapsCrossesEquals(t *testing.T) {
	if !Overlaps(unitSquare, overlapping) {
		t.Error("partially overlapping squares must overlap")
	}
	if Overlaps(unitSquare, innerSquare) {
		t.Error("containment is not overlap")
	}
	if Overlaps(unitSquare, rightSquare) {
		t.Error("touching is not overlap")
	}
	if Overlaps(unitSquare, MustParseWKT("LINESTRING (-5 5, 15 5)")) {
		t.Error("different dimensions cannot overlap")
	}

	if !Crosses(MustParseWKT("LINESTRING (-5 5, 15 5)"), unitSquare) {
		t.Error("line through polygon must cross")
	}
	if Crosses(MustParseWKT("LINESTRING (20 20, 30 30)"), unitSquare) {
		t.Error("outside line must not cross")
	}
	if !Crosses(MustParseWKT("LINESTRING (0 0, 10 10)"), MustParseWKT("LINESTRING (0 10, 10 0)")) {
		t.Error("crossing lines must cross")
	}

	sq2 := MustParseWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))")
	if !Equals(unitSquare, sq2) {
		t.Error("identical polygons must be equal")
	}
	// Same region, different starting vertex.
	sq3 := MustParseWKT("POLYGON ((10 0, 10 10, 0 10, 0 0, 10 0))")
	if !Equals(unitSquare, sq3) {
		t.Error("rotated-ring polygons must be equal")
	}
	if Equals(unitSquare, innerSquare) {
		t.Error("different polygons must not be equal")
	}
	if Equals(unitSquare, MustParseWKT("LINESTRING (0 0, 10 0)")) {
		t.Error("different dimensions must not be equal")
	}
	if !Equals(NewPoint(1, 1), NewPoint(1, 1)) {
		t.Error("identical points must be equal")
	}
}

func TestDistance(t *testing.T) {
	if d := Distance(unitSquare, innerSquare); d != 0 {
		t.Errorf("intersecting distance = %v", d)
	}
	if d := Distance(NewPoint(0, 0), NewPoint(3, 4)); d != 5 {
		t.Errorf("point distance = %v", d)
	}
	// point to polygon edge
	if d := Distance(NewPoint(15, 5), unitSquare); d != 5 {
		t.Errorf("point-polygon distance = %v", d)
	}
	// square (0..10) to square (100..110): nearest corners (10,10)-(100,100)
	want := math.Hypot(90, 90)
	if d := Distance(unitSquare, farSquare); math.Abs(d-want) > 1e-9 {
		t.Errorf("polygon-polygon distance = %v, want %v", d, want)
	}
	// line to line
	l1 := MustParseWKT("LINESTRING (0 0, 10 0)")
	l2 := MustParseWKT("LINESTRING (0 3, 10 3)")
	if d := Distance(l1, l2); d != 3 {
		t.Errorf("parallel line distance = %v", d)
	}
}

func TestConvexHull(t *testing.T) {
	mp := &MultiPoint{Points: []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {5, 5}, {2, 3}}}
	hull := ConvexHull(mp)
	poly, ok := hull.(*Polygon)
	if !ok {
		t.Fatalf("hull kind = %T", hull)
	}
	if a := poly.Area(); a != 100 {
		t.Errorf("hull area = %v, want 100", a)
	}
	// interior points must be inside the hull
	if !Contains(poly, NewPoint(5, 5)) {
		t.Error("hull must contain interior point")
	}
	// degenerate cases
	if ConvexHull(NewPoint(1, 1)).Kind() != KindPoint {
		t.Error("hull of single point must be a point")
	}
	two := &MultiPoint{Points: []Point{{0, 0}, {1, 1}}}
	if ConvexHull(two).Kind() != KindLineString {
		t.Error("hull of two points must be a line")
	}
}

func TestBuffer(t *testing.T) {
	b := Buffer(NewPoint(5, 5), 2)
	e := b.Envelope()
	if e.MinX != 3 || e.MaxX != 7 || e.MinY != 3 || e.MaxY != 7 {
		t.Errorf("buffer envelope = %+v", e)
	}
	if !Contains(b, NewPoint(5, 5)) {
		t.Error("buffer must contain its seed")
	}
}

// Property: a random point strictly inside a random rectangle intersects it,
// is contained by it, and has distance 0; a point outside the rectangle's
// envelope is disjoint with positive distance.
func TestRectanglePointProperty(t *testing.T) {
	f := func(cx, cy, wRaw, hRaw, fx, fy float64) bool {
		w := 1 + math.Mod(math.Abs(wRaw), 100)
		h := 1 + math.Mod(math.Abs(hRaw), 100)
		if math.IsNaN(cx) || math.IsNaN(cy) || math.IsInf(cx, 0) || math.IsInf(cy, 0) {
			return true
		}
		cx = math.Mod(cx, 1e6)
		cy = math.Mod(cy, 1e6)
		rect := NewRect(cx-w/2, cy-h/2, cx+w/2, cy+h/2)
		// fraction in (0.05, 0.95) keeps the point strictly interior
		fix := 0.05 + 0.9*math.Mod(math.Abs(fx), 1)
		fiy := 0.05 + 0.9*math.Mod(math.Abs(fy), 1)
		inside := NewPoint(cx-w/2+fix*w, cy-h/2+fiy*h)
		if !Intersects(rect, inside) || !Contains(rect, inside) || Distance(rect, inside) != 0 {
			return false
		}
		outside := NewPoint(cx+w, cy+h) // beyond the max corner
		return !Intersects(rect, outside) && Distance(rect, outside) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: predicate symmetry — Intersects, Touches, Overlaps, Equals and
// Distance are symmetric for random rectangles.
func TestSymmetryProperty(t *testing.T) {
	f := func(x1, y1, x2, y2 int8, w1, w2 uint8) bool {
		a := NewRect(float64(x1), float64(y1), float64(x1)+1+float64(w1%20), float64(y1)+1+float64(w1%20))
		b := NewRect(float64(x2), float64(y2), float64(x2)+1+float64(w2%20), float64(y2)+1+float64(w2%20))
		if Intersects(a, b) != Intersects(b, a) {
			return false
		}
		if Touches(a, b) != Touches(b, a) {
			return false
		}
		if Overlaps(a, b) != Overlaps(b, a) {
			return false
		}
		if Equals(a, b) != Equals(b, a) {
			return false
		}
		return Distance(a, b) == Distance(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: containment implies intersection; touching implies intersection
// and excludes overlap.
func TestPredicateImplicationsProperty(t *testing.T) {
	f := func(x1, y1, x2, y2 int8, w1, w2 uint8) bool {
		a := NewRect(float64(x1), float64(y1), float64(x1)+1+float64(w1%20), float64(y1)+1+float64(w1%20))
		b := NewRect(float64(x2), float64(y2), float64(x2)+1+float64(w2%20), float64(y2)+1+float64(w2%20))
		if Contains(a, b) && !Intersects(a, b) {
			return false
		}
		if Touches(a, b) && !Intersects(a, b) {
			return false
		}
		if Touches(a, b) && Overlaps(a, b) {
			return false
		}
		if Equals(a, b) && !(Contains(a, b) && Contains(b, a)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPredicateAllocations: the predicates walk geometry parts in place,
// so testing two polygons allocates nothing — the spatial join and the
// FILTER path call them once per candidate pair.
func TestPredicateAllocations(t *testing.T) {
	preds := []struct {
		name string
		fn   func(a, b Geometry) bool
	}{
		{"Intersects", Intersects}, {"Contains", Contains}, {"Within", Within},
		{"Touches", Touches}, {"Overlaps", Overlaps},
	}
	pairs := [][2]Geometry{{unitSquare, innerSquare}, {unitSquare, overlapping}, {holed, rightSquare}, {innerSquare, farSquare}}
	for _, p := range preds {
		for _, pair := range pairs {
			if n := testing.AllocsPerRun(50, func() { p.fn(pair[0], pair[1]) }); n != 0 {
				t.Errorf("%s(%s, %s): %.0f allocations, want 0", p.name, pair[0].WKT(), pair[1].WKT(), n)
			}
		}
	}
}

// everyKindWKTs covers every geometry kind, empty bodies, holes and
// multi-member bodies, for the walkers the predicates share.
var everyKindWKTs = []string{
	"POINT (1 2)",
	"MULTIPOINT ((1 1), (2 2), (3 1))",
	"MULTIPOINT EMPTY",
	"LINESTRING (0 0, 1 1, 2 0)",
	"LINESTRING (1 -1, 1 3)",
	"LINESTRING EMPTY",
	"MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 2))",
	"MULTILINESTRING EMPTY",
	"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
	"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))",
	"POLYGON EMPTY",
	"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((2 2, 3 2, 3 3, 2 3, 2 2), (2.2 2.2, 2.8 2.2, 2.8 2.8, 2.2 2.8, 2.2 2.2)))",
	"MULTIPOLYGON EMPTY",
	"GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))",
	"GEOMETRYCOLLECTION (POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0)), MULTIPOINT ((5 5)))",
	"GEOMETRYCOLLECTION EMPTY",
}

// TestEveryKindPredicatesAgree runs every predicate over every pair of
// kinds and checks the identities that hold between them: symmetry,
// Within as the converse of Contains, Disjoint as the negation of
// Intersects, containment implying intersection, and distance zero
// exactly on intersection.
func TestEveryKindPredicatesAgree(t *testing.T) {
	gs := make([]Geometry, len(everyKindWKTs))
	for i, w := range everyKindWKTs {
		gs[i] = MustParseWKT(w)
		if again := MustParseWKT(gs[i].WKT()); again.WKT() != gs[i].WKT() || again.Kind() != gs[i].Kind() {
			t.Fatalf("%s does not round-trip: %s", w, again.WKT())
		}
		if !strings.HasPrefix(w, strings.ToUpper(gs[i].Kind().String())) {
			t.Fatalf("%s parsed as a %s", w, gs[i].Kind())
		}
		if a := Area(gs[i]); a < 0 || math.IsNaN(a) {
			t.Fatalf("Area(%s) = %g", w, a)
		}
		if c := Centroid(gs[i]); math.IsNaN(c.X) || math.IsNaN(c.Y) {
			t.Fatalf("Centroid(%s) = %v", w, c)
		}
	}
	for i, a := range gs {
		for j, b := range gs {
			name := everyKindWKTs[i] + " / " + everyKindWKTs[j]
			in := Intersects(a, b)
			if in != Intersects(b, a) || Disjoint(a, b) == in {
				t.Fatalf("%s: Intersects not symmetric or Disjoint not its negation", name)
			}
			if Within(a, b) != Contains(b, a) {
				t.Fatalf("%s: Within is not the converse of Contains", name)
			}
			if Contains(a, b) && !in {
				t.Fatalf("%s: Contains without Intersects", name)
			}
			if Touches(a, b) != Touches(b, a) || Overlaps(a, b) != Overlaps(b, a) ||
				Crosses(a, b) != Crosses(b, a) || Equals(a, b) != Equals(b, a) {
				t.Fatalf("%s: a symmetric predicate is not symmetric", name)
			}
			if a.IsEmpty() || b.IsEmpty() {
				continue
			}
			if d := Distance(a, b); (d == 0) != in || d != Distance(b, a) {
				t.Fatalf("%s: Distance %g, Intersects %v", name, d, in)
			}
		}
	}
}
