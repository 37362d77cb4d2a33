// Package geosparql contributes the OGC GeoSPARQL vocabulary and the geof:*
// filter functions (sfIntersects, sfContains, sfWithin, sfTouches,
// sfOverlaps, sfCrosses, sfEquals, sfDisjoint, distance, buffer, envelope,
// convexHull, area) to the SPARQL engine, plus stSPARQL-style temporal
// relation functions over xsd:dateTime pairs (during, before, after,
// overlaps). The query engine calls Function and Relation directly; the
// tables behind them are fixed at package initialization.
//
// Geometry literals are parsed once and memoized: the paper's workloads
// evaluate the same WKT serializations across thousands of filter calls.
package geosparql

import (
	"fmt"
	"time"

	"applab/internal/geom"
	"applab/internal/rdf"
)

// GeoSPARQL vocabulary IRIs.
const (
	HasGeometry = rdf.NSGeo + "hasGeometry"
	AsWKT       = rdf.NSGeo + "asWKT"
	Geometry    = rdf.NSGeo + "Geometry"
	Feature     = rdf.NSGeo + "Feature"

	FnSfIntersects = rdf.NSGeof + "sfIntersects"
	FnSfContains   = rdf.NSGeof + "sfContains"
	FnSfWithin     = rdf.NSGeof + "sfWithin"
	FnSfTouches    = rdf.NSGeof + "sfTouches"
	FnSfOverlaps   = rdf.NSGeof + "sfOverlaps"
	FnSfCrosses    = rdf.NSGeof + "sfCrosses"
	FnSfEquals     = rdf.NSGeof + "sfEquals"
	FnSfDisjoint   = rdf.NSGeof + "sfDisjoint"
	FnDistance     = rdf.NSGeof + "distance"
	FnBuffer       = rdf.NSGeof + "buffer"
	FnEnvelope     = rdf.NSGeof + "envelope"
	FnConvexHull   = rdf.NSGeof + "convexHull"
	FnArea         = rdf.NSGeof + "area" // Strabon extension
	FnIntersection = rdf.NSGeof + "intersection"
)

// Temporal (stSPARQL-style) function IRIs under the time: namespace.
const (
	FnTimeDuring   = rdf.NSTime + "during"
	FnTimeBefore   = rdf.NSTime + "before"
	FnTimeAfter    = rdf.NSTime + "after"
	FnTimeOverlaps = rdf.NSTime + "overlaps"
)

// relations are the envelope-conservative geof:sf* predicates — rel(a, b)
// implies intersecting envelopes — which the query engine may run as a
// spatial join that never calls rel on envelope-disjoint pairs. Hence
// geof:sfDisjoint is a function but not a relation.
var relations = map[string]func(a, b geom.Geometry) bool{
	FnSfIntersects: geom.Intersects,
	FnSfContains:   geom.Contains,
	FnSfWithin:     geom.Within,
	FnSfTouches:    geom.Touches,
	FnSfOverlaps:   geom.Overlaps,
	FnSfCrosses:    geom.Crosses,
	FnSfEquals:     geom.Equals,
}

// functions maps every geof:* and time:* IRI to its implementation. Like
// relations it is filled at package initialization and only read after.
var functions = map[string]func(args []rdf.Term) (rdf.Term, error){
	FnSfIntersects: relationFunc(geom.Intersects),
	FnSfContains:   relationFunc(geom.Contains),
	FnSfWithin:     relationFunc(geom.Within),
	FnSfTouches:    relationFunc(geom.Touches),
	FnSfOverlaps:   relationFunc(geom.Overlaps),
	FnSfCrosses:    relationFunc(geom.Crosses),
	FnSfEquals:     relationFunc(geom.Equals),
	FnSfDisjoint:   relationFunc(geom.Disjoint),
	FnDistance: func(args []rdf.Term) (rdf.Term, error) {
		a, b, err := twoGeoms(args[:min(2, len(args))])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewDouble(geom.Distance(a, b)), nil
	},
	FnBuffer: func(args []rdf.Term) (rdf.Term, error) {
		if len(args) < 2 {
			return rdf.Term{}, fmt.Errorf("geof:buffer needs geometry and radius")
		}
		g, err := ParseGeometryTerm(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		d, ok := args[1].Float()
		if !ok {
			return rdf.Term{}, fmt.Errorf("geof:buffer radius must be numeric")
		}
		return rdf.NewWKT(geom.Buffer(g, d).WKT()), nil
	},
	FnEnvelope: func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("geof:envelope takes one geometry")
		}
		g, err := ParseGeometryTerm(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewWKT(g.Envelope().ToPolygon().WKT()), nil
	},
	FnConvexHull: func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("geof:convexHull takes one geometry")
		}
		g, err := ParseGeometryTerm(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewWKT(geom.ConvexHull(g).WKT()), nil
	},
	FnArea: func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("geof:area takes one geometry")
		}
		g, err := ParseGeometryTerm(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewDouble(geom.Area(g)), nil
	},
	FnIntersection: func(args []rdf.Term) (rdf.Term, error) {
		a, b, err := twoGeoms(args)
		if err != nil {
			return rdf.Term{}, err
		}
		// The clipper needs one convex-polygon operand; try either
		// side (intersection is symmetric).
		if clip, ok := b.(*geom.Polygon); ok && geom.IsConvex(clip) {
			out, err := geom.ClipToConvex(a, clip)
			if err != nil {
				return rdf.Term{}, err
			}
			return rdf.NewWKT(out.WKT()), nil
		}
		if clip, ok := a.(*geom.Polygon); ok && geom.IsConvex(clip) {
			out, err := geom.ClipToConvex(b, clip)
			if err != nil {
				return rdf.Term{}, err
			}
			return rdf.NewWKT(out.WKT()), nil
		}
		return rdf.Term{}, fmt.Errorf("geof:intersection needs one convex polygon operand")
	},

	// Temporal relations over (aFrom, aTo, bFrom, bTo) or (a, bFrom, bTo).
	FnTimeDuring: func(args []rdf.Term) (rdf.Term, error) {
		if len(args) == 3 {
			t, ok := args[0].Time()
			if !ok {
				return rdf.Term{}, fmt.Errorf("time:during: bad instant %s", args[0])
			}
			from, to, err := interval(args[1], args[2])
			if err != nil {
				return rdf.Term{}, err
			}
			return rdf.NewBool(!t.Before(from) && !t.After(to)), nil
		}
		if len(args) != 4 {
			return rdf.Term{}, fmt.Errorf("time:during takes 3 or 4 arguments")
		}
		aFrom, aTo, err := interval(args[0], args[1])
		if err != nil {
			return rdf.Term{}, err
		}
		bFrom, bTo, err := interval(args[2], args[3])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBool(!aFrom.Before(bFrom) && !aTo.After(bTo)), nil
	},
	FnTimeBefore: func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 2 {
			return rdf.Term{}, fmt.Errorf("time:before takes 2 arguments")
		}
		a, okA := args[0].Time()
		b, okB := args[1].Time()
		if !okA || !okB {
			return rdf.Term{}, fmt.Errorf("time:before: non-temporal argument")
		}
		return rdf.NewBool(a.Before(b)), nil
	},
	FnTimeAfter: func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 2 {
			return rdf.Term{}, fmt.Errorf("time:after takes 2 arguments")
		}
		a, okA := args[0].Time()
		b, okB := args[1].Time()
		if !okA || !okB {
			return rdf.Term{}, fmt.Errorf("time:after: non-temporal argument")
		}
		return rdf.NewBool(a.After(b)), nil
	},
	FnTimeOverlaps: func(args []rdf.Term) (rdf.Term, error) {
		if len(args) != 4 {
			return rdf.Term{}, fmt.Errorf("time:overlaps takes 4 arguments")
		}
		aFrom, aTo, err := interval(args[0], args[1])
		if err != nil {
			return rdf.Term{}, err
		}
		bFrom, bTo, err := interval(args[2], args[3])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBool(!aFrom.After(bTo) && !bFrom.After(aTo)), nil
	},
}

// relationFunc lifts a binary spatial predicate to a filter function over
// two geometry literals.
func relationFunc(rel func(a, b geom.Geometry) bool) func(args []rdf.Term) (rdf.Term, error) {
	return func(args []rdf.Term) (rdf.Term, error) {
		a, b, err := twoGeoms(args)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBool(rel(a, b)), nil
	}
}

// Function returns the geof:* or time:* function named by iri.
func Function(iri string) (func(args []rdf.Term) (rdf.Term, error), bool) {
	fn, ok := functions[iri]
	return fn, ok
}

// Relation returns the envelope-conservative spatial predicate named by
// iri, for the query engine's spatial join; geof:sfDisjoint is not one.
func Relation(iri string) (func(a, b geom.Geometry) bool, bool) {
	rel, ok := relations[iri]
	return rel, ok
}

// interval parses two xsd:dateTime terms as a closed interval.
func interval(fromT, toT rdf.Term) (from, to time.Time, err error) {
	var okF, okT bool
	from, okF = fromT.Time()
	to, okT = toT.Time()
	if !okF || !okT {
		return time.Time{}, time.Time{}, fmt.Errorf("geosparql: non-temporal interval bound")
	}
	if to.Before(from) {
		return time.Time{}, time.Time{}, fmt.Errorf("geosparql: interval end precedes start")
	}
	return from, to, nil
}

// ---- geometry literal parsing with memoization ----

// ParseGeometryTerm parses a geo:wktLiteral (or plain string holding WKT)
// into a geometry, memoizing by lexical form in the bounded
// arena-backed cache (see cache.go).
func ParseGeometryTerm(t rdf.Term) (geom.Geometry, error) {
	if !t.IsLiteral() {
		return nil, fmt.Errorf("geosparql: %s is not a geometry literal", t)
	}
	c := activeGeomCache()
	if g, ok := c.get(t.Value); ok {
		return g, nil
	}
	g, err := geom.ParseWKT(t.Value)
	if err != nil {
		return nil, fmt.Errorf("geosparql: %v", err)
	}
	return c.insert(t.Value, g), nil
}

func twoGeoms(args []rdf.Term) (geom.Geometry, geom.Geometry, error) {
	if len(args) != 2 {
		return nil, nil, fmt.Errorf("geosparql: spatial relation takes two geometries")
	}
	a, err := ParseGeometryTerm(args[0])
	if err != nil {
		return nil, nil, err
	}
	b, err := ParseGeometryTerm(args[1])
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}
