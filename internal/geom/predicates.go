package geom

import (
	"math"
	"sort"
)

// eps is the coordinate tolerance used by the predicate implementations.
const eps = 1e-12

// ---- low-level primitives ----

// orient returns >0 when c is left of ab, <0 when right, 0 when collinear.
func orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether p lies on the closed segment ab.
func onSegment(p, a, b Point) bool {
	if math.Abs(orient(a, b, p)) > eps*(1+math.Abs(a.X)+math.Abs(b.X)+math.Abs(a.Y)+math.Abs(b.Y)) {
		return false
	}
	return p.X >= math.Min(a.X, b.X)-eps && p.X <= math.Max(a.X, b.X)+eps &&
		p.Y >= math.Min(a.Y, b.Y)-eps && p.Y <= math.Max(a.Y, b.Y)+eps
}

// segmentsIntersect reports whether the closed segments ab and cd share any
// point.
func segmentsIntersect(a, b, c, d Point) bool {
	o1 := orient(a, b, c)
	o2 := orient(a, b, d)
	o3 := orient(c, d, a)
	o4 := orient(c, d, b)
	if ((o1 > 0 && o2 < 0) || (o1 < 0 && o2 > 0)) &&
		((o3 > 0 && o4 < 0) || (o3 < 0 && o4 > 0)) {
		return true
	}
	return onSegment(c, a, b) || onSegment(d, a, b) || onSegment(a, c, d) || onSegment(b, c, d)
}

// segmentsProperCross reports whether ab and cd cross at a single interior
// point of both.
func segmentsProperCross(a, b, c, d Point) bool {
	o1 := orient(a, b, c)
	o2 := orient(a, b, d)
	o3 := orient(c, d, a)
	o4 := orient(c, d, b)
	return ((o1 > eps && o2 < -eps) || (o1 < -eps && o2 > eps)) &&
		((o3 > eps && o4 < -eps) || (o3 < -eps && o4 > eps))
}

// pointInRing reports the even-odd containment of p in the closed ring.
// Returns +1 inside, 0 on boundary, -1 outside.
func pointInRing(p Point, ring []Point) int {
	n := len(ring)
	if n < 4 {
		return -1
	}
	inside := false
	for i := 0; i < n-1; i++ {
		a, b := ring[i], ring[i+1]
		if onSegment(p, a, b) {
			return 0
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			x := a.X + (p.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if x > p.X {
				inside = !inside
			}
		}
	}
	if inside {
		return 1
	}
	return -1
}

// pointInPolygon returns +1 when p is strictly inside g (inside outer ring
// and outside all holes), 0 on any ring boundary, -1 outside.
func pointInPolygon(p Point, g *Polygon) int {
	if len(g.Rings) == 0 {
		return -1
	}
	r := pointInRing(p, g.Rings[0])
	if r <= 0 {
		return r
	}
	for _, hole := range g.Rings[1:] {
		hr := pointInRing(p, hole)
		if hr == 0 {
			return 0
		}
		if hr > 0 {
			return -1
		}
	}
	return 1
}

// ---- decomposition ----

// The predicates walk a geometry's parts in place instead of collecting
// them: each any* walker calls fn on the parts in order and stops at the
// first fn that returns true, reporting whether one did. The callbacks
// never outlive the call, so a predicate over parsed geometries
// allocates nothing.

// anyVertex walks every coordinate of g.
func anyVertex(g Geometry, fn func(Point) bool) bool {
	switch t := g.(type) {
	case *PointGeom:
		return fn(t.P)
	case *MultiPoint:
		return anyPoint(t.Points, fn)
	case *LineString:
		return anyPoint(t.Points, fn)
	case *MultiLineString:
		for _, l := range t.Lines {
			if anyPoint(l.Points, fn) {
				return true
			}
		}
	case *Polygon:
		for _, r := range t.Rings {
			if anyPoint(r, fn) {
				return true
			}
		}
	case *MultiPolygon:
		for _, p := range t.Polygons {
			for _, r := range p.Rings {
				if anyPoint(r, fn) {
					return true
				}
			}
		}
	case *Collection:
		for _, m := range t.Members {
			if anyVertex(m, fn) {
				return true
			}
		}
	}
	return false
}

func anyPoint(pts []Point, fn func(Point) bool) bool {
	for _, p := range pts {
		if fn(p) {
			return true
		}
	}
	return false
}

// anySegment walks every line segment of g: polyline edges and polygon
// ring edges.
func anySegment(g Geometry, fn func(a, b Point) bool) bool {
	switch t := g.(type) {
	case *LineString:
		return anyEdge(t.Points, fn)
	case *MultiLineString:
		for _, l := range t.Lines {
			if anyEdge(l.Points, fn) {
				return true
			}
		}
	case *Polygon:
		for _, r := range t.Rings {
			if anyEdge(r, fn) {
				return true
			}
		}
	case *MultiPolygon:
		for _, p := range t.Polygons {
			for _, r := range p.Rings {
				if anyEdge(r, fn) {
					return true
				}
			}
		}
	case *Collection:
		for _, m := range t.Members {
			if anySegment(m, fn) {
				return true
			}
		}
	}
	return false
}

func anyEdge(pts []Point, fn func(a, b Point) bool) bool {
	for i := 0; i+1 < len(pts); i++ {
		if fn(pts[i], pts[i+1]) {
			return true
		}
	}
	return false
}

// anySegmentPair walks every pair of a segment of a and a segment of b.
func anySegmentPair(a, b Geometry, fn func(p1, p2, q1, q2 Point) bool) bool {
	return anySegment(a, func(p1, p2 Point) bool {
		return anySegment(b, func(q1, q2 Point) bool { return fn(p1, p2, q1, q2) })
	})
}

// anyPolygon walks the areal components of g.
func anyPolygon(g Geometry, fn func(*Polygon) bool) bool {
	switch t := g.(type) {
	case *Polygon:
		return fn(t)
	case *MultiPolygon:
		for _, p := range t.Polygons {
			if fn(p) {
				return true
			}
		}
	case *Collection:
		for _, m := range t.Members {
			if anyPolygon(m, fn) {
				return true
			}
		}
	}
	return false
}

// anyLoosePoint walks the point components of g (point and multipoint
// members).
func anyLoosePoint(g Geometry, fn func(Point) bool) bool {
	switch t := g.(type) {
	case *PointGeom:
		return fn(t.P)
	case *MultiPoint:
		return anyPoint(t.Points, fn)
	case *Collection:
		for _, m := range t.Members {
			if anyLoosePoint(m, fn) {
				return true
			}
		}
	}
	return false
}

// hasArea reports whether g has an areal component.
func hasArea(g Geometry) bool { return anyPolygon(g, func(*Polygon) bool { return true }) }

// pointInAny returns the max containment value of p over g's polygons:
// +1 strictly inside some polygon, 0 on some boundary, -1 outside all.
func pointInAny(p Point, g Geometry) int {
	best := -1
	anyPolygon(g, func(pg *Polygon) bool {
		best = max(best, pointInPolygon(p, pg))
		return best == 1
	})
	return best
}

// onAnySegment reports whether p lies on some segment of g.
func onAnySegment(p Point, g Geometry) bool {
	return anySegment(g, func(a, b Point) bool { return onSegment(p, a, b) })
}

// inSegmentInterior reports whether p lies on some segment of g other
// than at its endpoints.
func inSegmentInterior(p Point, g Geometry) bool {
	return anySegment(g, func(a, b Point) bool {
		return onSegment(p, a, b) && !samePoint(p, a) && !samePoint(p, b)
	})
}

func midpoint(a, b Point) Point { return Point{(a.X + b.X) / 2, (a.Y + b.Y) / 2} }

// ---- OGC simple feature predicates ----

// Intersects reports whether a and b share at least one point.
func Intersects(a, b Geometry) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return false
	}
	if !a.Envelope().Intersects(b.Envelope()) {
		return false
	}
	// Any vertex of one inside/on the other's areal part.
	if hasArea(b) && anyVertex(a, func(v Point) bool { return pointInAny(v, b) >= 0 }) {
		return true
	}
	if hasArea(a) && anyVertex(b, func(v Point) bool { return pointInAny(v, a) >= 0 }) {
		return true
	}
	// Point-only geometries against point/line parts.
	if anyLoosePoint(a, func(v Point) bool {
		return onAnySegment(v, b) || anyLoosePoint(b, func(w Point) bool { return samePoint(v, w) })
	}) {
		return true
	}
	if anyLoosePoint(b, func(v Point) bool { return onAnySegment(v, a) }) {
		return true
	}
	// Segment-segment intersection (covers line/line, line/polygon edge,
	// polygon/polygon edge cases).
	return anySegmentPair(a, b, segmentsIntersect)
}

func samePoint(a, b Point) bool {
	return math.Abs(a.X-b.X) <= eps && math.Abs(a.Y-b.Y) <= eps
}

// Disjoint reports whether a and b share no point.
func Disjoint(a, b Geometry) bool { return !Intersects(a, b) }

// Contains reports whether a contains b: every point of b is in a, and at
// least one point of b is in a's interior.
func Contains(a, b Geometry) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return false
	}
	if !a.Envelope().ContainsEnvelope(b.Envelope()) {
		return false
	}
	if hasArea(a) {
		// Areal container: all of b's vertices inside or on boundary, at
		// least one strictly inside, and no segment of b crossing out.
		interior := false
		outside := func(p Point) bool {
			r := pointInAny(p, a)
			if r > 0 {
				interior = true
			}
			return r < 0
		}
		if anyVertex(b, outside) {
			return false
		}
		if anySegment(b, func(p, q Point) bool {
			return anySegment(a, func(r, s Point) bool { return segmentsProperCross(p, q, r, s) }) ||
				// Midpoint must not fall outside (handles b's edge passing
				// through a hole or a concavity without proper crossings).
				outside(midpoint(p, q))
		}) {
			return false
		}
		if !interior {
			// All sampled points sit on a's boundary. For an areal b this
			// happens when the boundaries coincide (Contains(A, A) must
			// hold): probe interior points of b's polygons. Otherwise b (a
			// point/line) lies entirely on a's boundary.
			interior = anyPolygon(b, func(pb *Polygon) bool {
				c := polygonCentroid(pb)
				return pointInPolygon(c, pb) > 0 && pointInAny(c, a) > 0
			})
		}
		return interior
	}
	switch ta := a.(type) {
	case *LineString, *MultiLineString:
		// Line contains points / sub-lines: every vertex and midpoint of b
		// must lie on some segment of a. A line contains a point only in
		// its interior; endpoints are boundary. Accept boundary too
		// (pragmatic covers semantics).
		offLine := func(p Point) bool { return !onAnySegment(p, a) }
		return !anyVertex(b, offLine) &&
			!anySegment(b, func(p, q Point) bool { return offLine(midpoint(p, q)) })
	case *PointGeom:
		return !anyVertex(b, func(v Point) bool { return !samePoint(ta.P, v) })
	case *MultiPoint:
		return !anyVertex(b, func(v Point) bool {
			return !anyPoint(ta.Points, func(p Point) bool { return samePoint(p, v) })
		})
	}
	return false
}

// Within reports whether a is within b (the converse of Contains).
func Within(a, b Geometry) bool { return Contains(b, a) }

// interiorsIntersect reports whether the interiors of a and b share a point
// (approximated by strict containment of vertices/midpoints and proper
// segment crossings).
func interiorsIntersect(a, b Geometry) bool {
	areaA, areaB := hasArea(a), hasArea(b)
	if areaB && !areaA {
		return interiorsIntersect(b, a)
	}
	if areaA {
		// b strictly inside a somewhere (for a line/point b, that is what
		// interior intersection means), a strictly inside an areal b, or
		// proper crossings. One polygon entirely inside the other with no
		// vertex strictly inside is impossible once envelopes overlap and
		// edges don't cross, except identical boundaries — hence the
		// midpoints.
		insideA := func(p Point) bool { return pointInAny(p, a) > 0 }
		return anyVertex(b, insideA) ||
			(areaB && anyVertex(a, func(p Point) bool { return pointInAny(p, b) > 0 })) ||
			anySegmentPair(a, b, segmentsProperCross) ||
			anySegment(b, func(p, q Point) bool { return insideA(midpoint(p, q)) })
	}
	// line/line: proper crossing or collinear overlap of positive length,
	// then points against line/point interiors.
	return anySegmentPair(a, b, func(p1, p2, q1, q2 Point) bool {
		return segmentsProperCross(p1, p2, q1, q2) || collinearOverlap(p1, p2, q1, q2)
	}) ||
		anyLoosePoint(a, func(v Point) bool {
			return inSegmentInterior(v, b) || anyLoosePoint(b, func(w Point) bool { return samePoint(v, w) })
		}) ||
		anyLoosePoint(b, func(v Point) bool { return inSegmentInterior(v, a) })
}

// collinearOverlap reports whether segments ab and cd are collinear and
// overlap along a positive length.
func collinearOverlap(a, b, c, d Point) bool {
	if math.Abs(orient(a, b, c)) > eps || math.Abs(orient(a, b, d)) > eps {
		return false
	}
	// Project onto the dominant axis and check interval overlap length.
	ax := math.Abs(b.X - a.X)
	ay := math.Abs(b.Y - a.Y)
	var a1, a2, b1, b2 float64
	if ax >= ay {
		a1, a2 = math.Min(a.X, b.X), math.Max(a.X, b.X)
		b1, b2 = math.Min(c.X, d.X), math.Max(c.X, d.X)
	} else {
		a1, a2 = math.Min(a.Y, b.Y), math.Max(a.Y, b.Y)
		b1, b2 = math.Min(c.Y, d.Y), math.Max(c.Y, d.Y)
	}
	return math.Min(a2, b2)-math.Max(a1, b1) > eps
}

// Touches reports whether a and b intersect only at their boundaries.
func Touches(a, b Geometry) bool {
	return Intersects(a, b) && !interiorsIntersect(a, b)
}

// Overlaps reports whether a and b have the same dimension, their interiors
// intersect, and neither contains the other.
func Overlaps(a, b Geometry) bool {
	if dimension(a) != dimension(b) {
		return false
	}
	return interiorsIntersect(a, b) && !Contains(a, b) && !Contains(b, a)
}

// Crosses reports whether the interiors intersect and the geometries have
// different dimensions (or two lines crossing at a point).
func Crosses(a, b Geometry) bool {
	da, db := dimension(a), dimension(b)
	if da == db {
		// Two lines cross when they properly cross at points.
		return da == 1 && anySegmentPair(a, b, segmentsProperCross)
	}
	return interiorsIntersect(a, b) && !Contains(a, b) && !Contains(b, a)
}

// Equals reports geometric equality: mutual containment.
func Equals(a, b Geometry) bool {
	if a.IsEmpty() && b.IsEmpty() {
		return true
	}
	da, db := dimension(a), dimension(b)
	if da != db {
		return false
	}
	if da == 0 {
		return Contains(a, b) && Contains(b, a)
	}
	// For lines and areas mutual "every point inside" is sufficient at our
	// tolerance: check all vertices and midpoints mutually.
	return coveredBy(a, b) && coveredBy(b, a)
}

// coveredBy reports whether every sampled point of a lies on/in b.
func coveredBy(a, b Geometry) bool {
	areal := hasArea(b)
	outside := func(p Point) bool {
		if areal {
			return pointInAny(p, b) < 0
		}
		return !onAnySegment(p, b)
	}
	return !anyVertex(a, outside) &&
		!anySegment(a, func(p, q Point) bool { return outside(midpoint(p, q)) })
}

func dimension(g Geometry) int {
	switch t := g.(type) {
	case *PointGeom, *MultiPoint:
		return 0
	case *LineString, *MultiLineString:
		return 1
	case *Polygon, *MultiPolygon:
		return 2
	case *Collection:
		d := 0
		for _, m := range t.Members {
			if md := dimension(m); md > d {
				d = md
			}
		}
		return d
	}
	return 0
}

// Distance returns the minimum planar distance between a and b (0 when they
// intersect).
func Distance(a, b Geometry) float64 {
	if Intersects(a, b) {
		return 0
	}
	best := math.Inf(1)
	// nearest lowers best to p's distance from g's segments, or from its
	// vertices when g has none.
	nearest := func(p Point, g Geometry) bool {
		segs := false
		anySegment(g, func(s0, s1 Point) bool {
			segs = true
			best = math.Min(best, pointSegDist(p, s0, s1))
			return false
		})
		if !segs {
			anyVertex(g, func(q Point) bool {
				best = math.Min(best, dist(p, q))
				return false
			})
		}
		return false
	}
	anyVertex(a, func(p Point) bool { return nearest(p, b) })
	anyVertex(b, func(p Point) bool { return nearest(p, a) })
	return best
}

func pointSegDist(p, a, b Point) float64 {
	dx, dy := b.X-a.X, b.Y-a.Y
	l2 := dx*dx + dy*dy
	if l2 == 0 {
		return dist(p, a)
	}
	t := ((p.X-a.X)*dx + (p.Y-a.Y)*dy) / l2
	t = math.Max(0, math.Min(1, t))
	return dist(p, Point{a.X + t*dx, a.Y + t*dy})
}

// ConvexHull returns the convex hull of the geometry's vertices as a
// Polygon (Andrew's monotone chain). Degenerate inputs (fewer than three
// distinct points) yield a point or line wrapped in a collection-friendly
// geometry.
func ConvexHull(g Geometry) Geometry {
	pts := distinctVertices(g)
	if len(pts) == 0 {
		return &MultiPoint{}
	}
	if len(pts) == 1 {
		return &PointGeom{pts[0]}
	}
	if len(pts) == 2 {
		return &LineString{pts}
	}
	sortPoints(pts)
	var lower, upper []Point
	for _, p := range pts {
		for len(lower) >= 2 && orient(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(pts) - 1; i >= 0; i-- {
		p := pts[i]
		for len(upper) >= 2 && orient(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	if len(hull) < 3 {
		return &LineString{pts}
	}
	hull = append(hull, hull[0])
	return &Polygon{Rings: [][]Point{hull}}
}

// distinctVertices returns g's coordinates in order, first occurrences
// only.
func distinctVertices(g Geometry) []Point {
	seen := map[Point]bool{}
	var out []Point
	anyVertex(g, func(p Point) bool {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
		return false
	})
	return out
}

func sortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	})
}

// Buffer returns a crude polygonal buffer: the envelope of g expanded by d
// on every side, converted to a polygon. (The paper's workloads use buffers
// only for coarse proximity filtering; a rounded buffer is unnecessary.)
func Buffer(g Geometry, d float64) *Polygon {
	e := g.Envelope()
	return NewRect(e.MinX-d, e.MinY-d, e.MaxX+d, e.MaxY+d)
}
