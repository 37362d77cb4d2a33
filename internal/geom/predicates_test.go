package geom

import (
	"math"
	"math/rand"
	"sort"
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

// TestTopologyCounterexamples pins four answers that vertex and midpoint
// sampling alone gets wrong: a polygon does not touch itself, a concave
// polygon whose centroid lies outside it still contains itself, Touches
// and Overlaps do not depend on argument order, and a polygon covering
// a hole of another is not contained in it.
func TestTopologyCounterexamples(t *testing.T) {
	concave := MustParseWKT("POLYGON ((1 4, 5 5, 6 1, 6 6, 1 4))")
	covering := MustParseWKT("POLYGON ((3 3, 7 3, 7 7, 3 7, 3 3))")
	cases := []struct {
		name string
		got  bool
		want bool
	}{
		{"Touches(square, square)", Touches(unitSquare, unitSquare), false},
		{"Touches(concave, concave)", Touches(concave, concave), false},
		{"Contains(concave, concave)", Contains(concave, concave), true},
		{"Equals(concave, concave)", Equals(concave, concave), true},
		{"Contains(holed, covers the hole)", Contains(holed, covering), false},
		{"Within(covers the hole, holed)", Within(covering, holed), false},
		{"Overlaps(holed, covers the hole)", Overlaps(holed, covering), true},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// Each pair below was answered differently in the two orders.
	for _, pair := range [][2]string{
		{"POLYGON ((5 7, 4 8, 0 6, 3 4, 2 3, 5 4, 5 7))", "POLYGON ((0 4, 2 3, 3 2, 5 0, 6 4, 0 4))"},
		{"POLYGON ((2 4, 0 2, 0 1, -1 1, -2 0, -1 0, 2 -5, 2 4))", "POLYGON ((11 5, 9 6, 7 9, 6 8, 1 3, 2 2, 4 1, 10 1, 11 5))"},
	} {
		a, b := MustParseWKT(pair[0]), MustParseWKT(pair[1])
		if Touches(a, b) != Touches(b, a) || Overlaps(a, b) != Overlaps(b, a) {
			t.Errorf("%s / %s: Touches %v/%v, Overlaps %v/%v", pair[0], pair[1],
				Touches(a, b), Touches(b, a), Overlaps(a, b), Overlaps(b, a))
		}
	}
}

// randomSimplePolygon draws a star-shaped polygon with 4–8 integer
// vertices on a small grid, so that pairs share vertices and edges
// often, and most are concave. Rounding can fold the ring: drawings
// that are not simple are retried.
func randomSimplePolygon(rng *rand.Rand) *Polygon {
	for {
		cx, cy := float64(rng.Intn(12)), float64(rng.Intn(12))
		n := 4 + rng.Intn(5)
		angles := make([]float64, n)
		for i := range angles {
			angles[i] = rng.Float64() * 2 * math.Pi
		}
		sort.Float64s(angles)
		ring := make([]Point, 0, n+1)
		for _, a := range angles {
			r := 1 + rng.Float64()*6
			p := Point{math.Round(cx+r*math.Cos(a)) + 0, math.Round(cy+r*math.Sin(a)) + 0} // + 0: no -0
			if len(ring) == 0 || p != ring[len(ring)-1] {
				ring = append(ring, p)
			}
		}
		if len(ring) > 1 && ring[0] == ring[len(ring)-1] {
			ring = ring[:len(ring)-1]
		}
		if len(ring) < 3 {
			continue
		}
		ring = append(ring, ring[0])
		if pg := (&Polygon{Rings: [][]Point{ring}}); simpleRing(ring) && pg.Area() > 0 {
			return pg
		}
	}
}

// simpleRing reports whether no two edges of the closed ring meet except
// adjacent edges at their shared vertex.
func simpleRing(ring []Point) bool {
	m := len(ring) - 1
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			a, b, c, d := ring[i], ring[i+1], ring[j], ring[j+1]
			switch {
			case j == i+1 || (i == 0 && j == m-1):
				if math.Abs(orient(a, b, d)) == 0 && math.Abs(orient(c, d, a)) == 0 && collinearOverlap(a, b, c, d) {
					return false // the ring doubles back on itself
				}
				shared, far := b, d
				if j != i+1 {
					shared, far = a, c
				}
				if onSegment(far, a, b) && far != shared || onSegment(a, c, d) && a != shared || onSegment(b, c, d) && b != shared {
					return false
				}
			case segmentsIntersect(a, b, c, d):
				return false
			}
		}
	}
	return true
}

// TestRandomPolygonTopologyProperty checks the OGC identities over
// seeded random concave integer polygons: the symmetric predicates are
// symmetric, Within is the converse of Contains, a polygon equals and
// contains itself and does not touch itself, and touching excludes
// overlapping.
func TestRandomPolygonTopologyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	bad := map[string]int{}
	example := map[string]string{}
	note := func(what string, a, b Geometry) {
		if bad[what]++; bad[what] == 1 {
			example[what] = a.WKT() + " / " + b.WKT()
		}
	}
	for i := 0; i < 20000; i++ {
		a, b := randomSimplePolygon(rng), randomSimplePolygon(rng)
		for _, p := range []struct {
			name string
			fn   func(a, b Geometry) bool
		}{{"Intersects", Intersects}, {"Touches", Touches}, {"Overlaps", Overlaps}, {"Crosses", Crosses}, {"Equals", Equals}} {
			if p.fn(a, b) != p.fn(b, a) {
				note(p.name+" asymmetric", a, b)
			}
		}
		if Within(a, b) != Contains(b, a) {
			note("Within is not the converse of Contains", a, b)
		}
		if Touches(a, b) && Overlaps(a, b) {
			note("Touches and Overlaps", a, b)
		}
		if Touches(a, a) {
			note("Touches(g, g)", a, a)
		}
		if !Contains(a, a) || !Equals(a, a) {
			note("not Contains(g, g) or not Equals(g, g)", a, a)
		}
	}
	for what, n := range bad {
		t.Errorf("%s: %d of 20000 pairs, e.g. %s", what, n, example[what])
	}
}

// TestRelationSpecTable pins the named relations on cases whose answers
// are written by hand from the DE-9IM definitions of OGC Simple Features
// (06-103r4, §6.1.15), not computed by this package. A line's boundary
// follows the mod-2 rule: the endpoints shared by an odd number of its
// components, none for a closed line.
func TestRelationSpecTable(t *testing.T) {
	preds := map[string]func(a, b Geometry) bool{
		"Equals": Equals, "Disjoint": Disjoint, "Intersects": Intersects, "Touches": Touches,
		"Crosses": Crosses, "Within": Within, "Contains": Contains, "Overlaps": Overlaps,
	}
	const (
		square = "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"
		vee    = "LINESTRING (0 0, 1 1, 2 0)"
		upward = "LINESTRING (1 -1, 1 3)"
	)
	cases := []struct {
		a, b string
		want map[string]bool // predicates not named are not checked
	}{
		// A hole is exterior: the holed square is within the square and
		// not equal to it.
		{square, "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 3 1, 3 3, 1 3, 1 1))",
			map[string]bool{"Equals": false, "Contains": true, "Within": false, "Overlaps": false}},
		{square, "POLYGON ((4 0, 4 4, 0 4, 0 0, 4 0))",
			map[string]bool{"Equals": true, "Contains": true, "Within": true, "Touches": false}},
		// The vertical line passes through the vee's apex, a point of both
		// interiors: they cross at a point.
		{vee, upward, map[string]bool{"Intersects": true, "Touches": false, "Crosses": true, "Overlaps": false}},
		{upward, vee, map[string]bool{"Touches": false, "Crosses": true}},
		// Two lines crossing at one point cross; they do not overlap.
		{"LINESTRING (-1 2, 5 2)", upward, map[string]bool{"Crosses": true, "Overlaps": false, "Touches": false}},
		// The multipoint's (1 1) is the vee's apex, (2 2) is off it.
		{"MULTIPOINT ((1 1), (2 2), (3 1))", vee,
			map[string]bool{"Touches": false, "Crosses": true, "Within": false}},
		{"MULTIPOINT ((0 0), (2 0))", vee, map[string]bool{"Touches": true, "Crosses": false}},
		// An endpoint is on a line's boundary, not in its interior.
		{upward, "POINT (1 -1)", map[string]bool{"Contains": false, "Intersects": true}},
		{"POINT (1 -1)", upward, map[string]bool{"Within": false, "Touches": true}},
		{upward, "POINT (1 0)", map[string]bool{"Contains": true}},
		{"LINESTRING (0 0, 2 0, 2 2, 0 0)", "POINT (0 0)", map[string]bool{"Contains": true, "Touches": false}},
		{"MULTILINESTRING ((0 0, 1 0), (1 0, 2 0))", "POINT (1 0)", map[string]bool{"Contains": true}},
		{"MULTILINESTRING ((0 0, 1 0), (1 0, 2 0))", "POINT (0 0)", map[string]bool{"Contains": false, "Touches": true}},
		// One line ends in the other's interior: they touch.
		{"LINESTRING (0 0, 2 0)", "LINESTRING (1 0, 1 1)",
			map[string]bool{"Touches": true, "Crosses": false, "Overlaps": false}},
		// Collinear along a length, neither inside the other: overlap.
		{"LINESTRING (0 0, 2 0)", "LINESTRING (1 0, 3 0)",
			map[string]bool{"Overlaps": true, "Crosses": false, "Touches": false, "Contains": false}},
		{"LINESTRING (0 0, 2 0)", "LINESTRING (2 0, 1 0, 0 0)",
			map[string]bool{"Equals": true, "Contains": true, "Overlaps": false}},
		{"LINESTRING (0 0, 4 0)", "LINESTRING (0 0, 1 0)", map[string]bool{"Contains": true, "Equals": false}},
		{"LINESTRING (0 0, 2 0)", "MULTIPOINT ((0 0), (1 0), (2 0))", map[string]bool{"Contains": true, "Equals": false}},
		{"MULTIPOINT ((0 0), (1 0), (2 0))", "LINESTRING (0 0, 2 0)", map[string]bool{"Equals": false, "Contains": false}},
		{"MULTIPOINT ((0 0), (2 0))", "LINESTRING (0 0, 2 0)", map[string]bool{"Contains": false, "Touches": true}},
		{"MULTIPOINT ((0 0), (2 0))", "POINT (2 0)", map[string]bool{"Contains": true, "Equals": false}},
		// A line along a polygon's edge touches it; one through it crosses.
		{"LINESTRING (0 0, 4 0)", square, map[string]bool{"Touches": true, "Crosses": false, "Within": false}},
		{"LINESTRING (-1 2, 5 2)", square, map[string]bool{"Crosses": true, "Within": false, "Touches": false}},
		{"POINT (4 2)", square, map[string]bool{"Touches": true, "Within": false}},
	}
	for _, c := range cases {
		a, b := MustParseWKT(c.a), MustParseWKT(c.b)
		for name, want := range c.want {
			if got := preds[name](a, b); got != want {
				t.Errorf("%s(%s, %s) = %v, want %v", name, c.a, c.b, got, want)
			}
		}
	}
}
