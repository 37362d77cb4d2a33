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

// predicates are the eight geof:sf* relations over decoded geometries.
var predicates = map[string]func(a, b geom.Geometry) bool{
	FnSfIntersects: geom.Intersects,
	FnSfContains:   geom.Contains,
	FnSfWithin:     geom.Within,
	FnSfTouches:    geom.Touches,
	FnSfOverlaps:   geom.Overlaps,
	FnSfCrosses:    geom.Crosses,
	FnSfEquals:     geom.Equals,
	FnSfDisjoint:   geom.Disjoint,
}

// geometryFunc is a binary geof:* function over two decoded geometries.
type geometryFunc = func(a, b geom.Geometry) (rdf.Term, error)

// geometryFuncs are the binary geof:* functions at the geometry level: the
// sf* predicates (added by init), distance and intersection. The query
// engine calls them directly when one argument is a constant it decoded
// once per plan; functions lifts them to term arguments, so each is
// defined once.
var geometryFuncs = map[string]geometryFunc{
	FnDistance: func(a, b geom.Geometry) (rdf.Term, error) {
		return rdf.NewDouble(geom.Distance(a, b)), nil
	},
	FnIntersection: intersection,
}

// intersection clips one geometry to the other; the clipper needs one
// convex-polygon operand, so either side may serve (intersection is
// symmetric).
func intersection(a, b geom.Geometry) (rdf.Term, error) {
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
}

// functions maps every geof:* and time:* IRI to its implementation; init
// adds the lifted geometryFuncs. Like the tables above it is filled at
// package initialization and only read after.
var functions = map[string]func(args []rdf.Term) (rdf.Term, error){
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

func init() {
	for iri, pred := range predicates {
		geometryFuncs[iri] = func(a, b geom.Geometry) (rdf.Term, error) { return rdf.NewBool(pred(a, b)), nil }
	}
	for iri, fn := range geometryFuncs {
		functions[iri] = func(args []rdf.Term) (rdf.Term, error) {
			if iri == FnDistance {
				args = args[:min(2, len(args))] // an optional unit of measure
			}
			a, b, err := twoGeoms(args)
			if err != nil {
				return rdf.Term{}, err
			}
			return fn(a, b)
		}
	}
}

// Function returns the geof:* or time:* function named by iri.
func Function(iri string) (func(args []rdf.Term) (rdf.Term, error), bool) {
	fn, ok := functions[iri]
	return fn, ok
}

// GeometryFunction returns the binary geof:* function named by iri — an
// sf* predicate, distance or intersection — over decoded geometries.
func GeometryFunction(iri string) (func(a, b geom.Geometry) (rdf.Term, error), bool) {
	fn, ok := geometryFuncs[iri]
	return fn, ok
}

// Relation returns the envelope-conservative spatial predicate named by
// iri, for the query engine's spatial join: rel(a, b) implies
// intersecting envelopes, so the join never calls rel on
// envelope-disjoint pairs. Hence geof:sfDisjoint is not one.
func Relation(iri string) (func(a, b geom.Geometry) bool, bool) {
	if iri == FnSfDisjoint {
		return nil, false
	}
	rel, ok := predicates[iri]
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

// Decode returns the geometry and envelope of a geo:wktLiteral (or plain
// string holding WKT) through the process-wide memo (see cache.go).
// Unbound (nil) terms, non-literals and unparsable WKT report false. The
// geometry is shared and must not be mutated.
func Decode(t *rdf.Term) (geom.Geometry, geom.Envelope, bool) {
	if t == nil || !t.IsLiteral() {
		return nil, geom.EmptyEnvelope(), false
	}
	c := activeGeomCache()
	if g, env, ok := c.get(t.Value); ok {
		return g, env, true
	}
	g, err := geom.ParseWKT(t.Value)
	if err != nil {
		return nil, geom.EmptyEnvelope(), false
	}
	g, env := c.insert(t.Value, g)
	return g, env, true
}

// ParseGeometryTerm is Decode with an error saying why a term is not a
// geometry.
func ParseGeometryTerm(t rdf.Term) (geom.Geometry, error) {
	if g, _, ok := Decode(&t); ok {
		return g, nil
	}
	if !t.IsLiteral() {
		return nil, fmt.Errorf("geosparql: %s is not a geometry literal", t)
	}
	_, err := geom.ParseWKT(t.Value)
	return nil, fmt.Errorf("geosparql: %v", err)
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
