// Package geographica implements a Geographica-style benchmark suite
// [Garbis, Kyzirakos & Koubarakis, ISWC 2013] over the synthetic App Lab
// datasets: spatial selections, spatial joins, aggregations and
// nearest-neighbour queries, each runnable against two systems —
//
//   - Strabon: the RDF store, queried through GeoSPARQL (triple joins
//     resolve feature → geometry → WKT before the spatial filter), and
//   - Ontop-spatial (OBDA): the relational path, where the same question is
//     answered directly over the source tables with a spatial index, the
//     way Ontop-spatial pushes work into a spatially-enabled DBMS.
//
// The paper's §5 claim reproduced by experiment E2 is that the OBDA path
// "achieves significantly better performance than state-of-the-art RDF
// stores" on most of these queries.
package geographica

import (
	"fmt"

	"applab/internal/geom"
	"applab/internal/geom/rtree"
	"applab/internal/geosparql"
	"applab/internal/madis"
	"applab/internal/rdf"
	"applab/internal/strabon"
	"applab/internal/workload"
)

// Relation names the spatial predicates used by the suite.
type Relation string

// Relations.
const (
	RelIntersects Relation = "sfIntersects"
	RelWithin     Relation = "sfWithin"
	RelContains   Relation = "sfContains"
	RelTouches    Relation = "sfTouches"
)

// fn is the relation the OBDA system refines R-tree candidates with:
// the same envelope-conservative predicate GeoSPARQL evaluates.
func (r Relation) fn() func(a, b geom.Geometry) bool {
	rel, _ := geosparql.Relation(rdf.NSGeof + string(r))
	return rel
}

// System is one system under test.
type System interface {
	// Name identifies the system in reports.
	Name() string
	// SpatialSelection counts features of dataset ds whose geometry
	// satisfies rel against the constant WKT geometry.
	SpatialSelection(ds string, rel Relation, wkt string) (int, error)
	// SpatialJoin counts (a, b) pairs between two datasets satisfying rel.
	SpatialJoin(dsA, dsB string, rel Relation) (int, error)
	// TotalAreaWithin sums feature areas of ds inside the envelope.
	TotalAreaWithin(ds string, env geom.Envelope) (float64, error)
	// Nearest returns the ids of the k features of ds nearest to p.
	Nearest(ds string, p geom.Point, k int) ([]string, error)
	// ThematicSelection counts features of ds with the given class whose
	// geometry intersects the envelope — the "map search and browsing"
	// macro scenario of Geographica (a thematic layer in a viewport).
	ThematicSelection(ds, class string, env geom.Envelope) (int, error)
}

// Workload bundles the generated datasets the suite runs over.
type Workload struct {
	Parks  []workload.Feature // "osm"
	Corine []workload.Feature // "clc"
	Urban  []workload.Feature // "ua"
	Gadm   []workload.Feature // "gadm"
}

// NewWorkload generates the benchmark datasets at the given scale
// (features per dataset), deterministically.
func NewWorkload(scale int, seed int64) *Workload {
	ext := workload.ParisExtent
	return &Workload{
		Parks:  workload.OSMParks(workload.VectorOptions{Extent: ext, N: scale, Seed: seed}),
		Corine: workload.CorineLandCover(workload.VectorOptions{Extent: ext, N: scale, Seed: seed + 1}),
		Urban:  workload.UrbanAtlas(workload.VectorOptions{Extent: ext, N: scale, Seed: seed + 2}),
		Gadm:   workload.GADMAreas(ext, 4, (scale+3)/4),
	}
}

func (w *Workload) dataset(name string) ([]workload.Feature, error) {
	switch name {
	case "osm":
		return w.Parks, nil
	case "clc":
		return w.Corine, nil
	case "ua":
		return w.Urban, nil
	case "gadm":
		return w.Gadm, nil
	}
	return nil, fmt.Errorf("geographica: unknown dataset %q", name)
}

// datasetNS maps dataset names to namespaces and class properties for the
// RDF side.
var datasetNS = map[string]struct{ ns, classProp string }{
	"osm":  {rdf.NSOSM, rdf.NSOSM + "poiType"},
	"clc":  {rdf.NSCLC, rdf.NSCLC + "hasCorineValue"},
	"ua":   {rdf.NSUA, rdf.NSUA + "hasClass"},
	"gadm": {rdf.NSGADM, rdf.NSGADM + "hasType"},
}

// ---- Strabon system ----

// StrabonSystem answers the suite through GeoSPARQL over the RDF store.
type StrabonSystem struct {
	store *strabon.Store
}

// NewStrabonSystem loads the workload into a Strabon store.
func NewStrabonSystem(w *Workload) (*StrabonSystem, error) {
	s := strabon.New()
	for _, name := range []string{"osm", "clc", "ua", "gadm"} {
		feats, _ := w.dataset(name)
		ns := datasetNS[name]
		s.AddAll(workload.FeaturesToRDF(ns.ns, ns.classProp, feats))
	}
	if err := s.Freeze(); err != nil {
		_ = s.Close()
		return nil, err
	}
	return &StrabonSystem{store: s}, nil
}

// Store exposes the underlying store.
func (s *StrabonSystem) Store() *strabon.Store { return s.store }

// Name implements System.
func (s *StrabonSystem) Name() string { return "strabon" }

// SpatialSelection implements System via a GeoSPARQL query.
func (s *StrabonSystem) SpatialSelection(ds string, rel Relation, wkt string) (int, error) {
	ns, ok := datasetNS[ds]
	if !ok {
		return 0, fmt.Errorf("geographica: unknown dataset %q", ds)
	}
	q := fmt.Sprintf(`SELECT (COUNT(*) AS ?n) WHERE {
  ?f <%s> ?cls .
  ?f geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
  FILTER(geof:%s(?w, "%s"^^geo:wktLiteral))
}`, ns.classProp, rel, wkt)
	res, err := s.store.Query(q)
	if err != nil {
		return 0, err
	}
	n, _ := res.Bindings[0]["n"].Int()
	return int(n), nil
}

// SpatialJoin implements System via a GeoSPARQL join query.
func (s *StrabonSystem) SpatialJoin(dsA, dsB string, rel Relation) (int, error) {
	nsA, okA := datasetNS[dsA]
	nsB, okB := datasetNS[dsB]
	if !okA || !okB {
		return 0, fmt.Errorf("geographica: unknown dataset %q/%q", dsA, dsB)
	}
	q := fmt.Sprintf(`SELECT (COUNT(*) AS ?n) WHERE {
  ?a <%s> ?clsA .
  ?a geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?b <%s> ?clsB .
  ?b geo:hasGeometry ?gb .
  ?gb geo:asWKT ?wb .
  FILTER(geof:%s(?wa, ?wb))
}`, nsA.classProp, nsB.classProp, rel)
	res, err := s.store.Query(q)
	if err != nil {
		return 0, err
	}
	n, _ := res.Bindings[0]["n"].Int()
	return int(n), nil
}

// TotalAreaWithin implements System with geof:area + geof:sfWithin.
func (s *StrabonSystem) TotalAreaWithin(ds string, env geom.Envelope) (float64, error) {
	ns, ok := datasetNS[ds]
	if !ok {
		return 0, fmt.Errorf("geographica: unknown dataset %q", ds)
	}
	q := fmt.Sprintf(`SELECT (SUM(geof:area(?w)) AS ?total) WHERE {
  ?f <%s> ?cls .
  ?f geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
  FILTER(geof:sfWithin(?w, "%s"^^geo:wktLiteral))
}`, ns.classProp, env.ToPolygon().WKT())
	res, err := s.store.Query(q)
	if err != nil {
		return 0, err
	}
	if len(res.Bindings) == 0 {
		return 0, nil
	}
	total, _ := res.Bindings[0]["total"].Float()
	return total, nil
}

// ThematicSelection implements System via a class-constrained GeoSPARQL
// query.
func (s *StrabonSystem) ThematicSelection(ds, class string, env geom.Envelope) (int, error) {
	ns, ok := datasetNS[ds]
	if !ok {
		return 0, fmt.Errorf("geographica: unknown dataset %q", ds)
	}
	q := fmt.Sprintf(`SELECT (COUNT(*) AS ?n) WHERE {
  ?f <%s> <%s%s> .
  ?f geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
  FILTER(geof:sfIntersects(?w, "%s"^^geo:wktLiteral))
}`, ns.classProp, ns.ns, class, env.ToPolygon().WKT())
	res, err := s.store.Query(q)
	if err != nil {
		return 0, err
	}
	n, _ := res.Bindings[0]["n"].Int()
	return int(n), nil
}

// Nearest implements System through the store's spatial index (Strabon's
// nearest-neighbour extension).
func (s *StrabonSystem) Nearest(ds string, p geom.Point, k int) ([]string, error) {
	ns, ok := datasetNS[ds]
	if !ok {
		return nil, fmt.Errorf("geographica: unknown dataset %q", ds)
	}
	entries := s.store.NearestGeometries(p, k*4) // over-fetch, then filter by namespace
	var out []string
	for _, e := range entries {
		for _, f := range e.Features {
			if len(out) >= k {
				return out, nil
			}
			if len(f.Value) >= len(ns.ns) && f.Value[:len(ns.ns)] == ns.ns {
				out = append(out, f.Value)
			}
		}
	}
	return out, nil
}

// ---- OBDA system ----

// OBDASystem answers the suite over relational tables with a spatial
// index, the way Ontop-spatial unfolds GeoSPARQL into the backend DBMS.
type OBDASystem struct {
	db     *madis.DB
	geoms  map[string][]obdaFeature
	rtrees map[string]*rtree.Tree
}

type obdaFeature struct {
	id    string
	class string
	geom  geom.Geometry
}

// NewOBDASystem loads the workload into relational tables.
func NewOBDASystem(w *Workload) (*OBDASystem, error) {
	s := &OBDASystem{db: madis.NewDB(), geoms: map[string][]obdaFeature{},
		rtrees: map[string]*rtree.Tree{}}
	for _, name := range []string{"osm", "clc", "ua", "gadm"} {
		feats, _ := w.dataset(name)
		tb := &madis.Table{Name: name, Cols: []string{"id", "class", "name", "wkt"}}
		var items []rtree.Item
		var ofs []obdaFeature
		for i, f := range feats {
			tb.Rows = append(tb.Rows, madis.Row{f.ID, f.Class, f.Name, f.Geom.WKT()})
			of := obdaFeature{id: f.ID, class: f.Class, geom: f.Geom}
			ofs = append(ofs, of)
			items = append(items, rtree.Item{Env: f.Geom.Envelope(), Data: i})
		}
		s.db.CreateTable(tb)
		s.geoms[name] = ofs
		s.rtrees[name] = rtree.Bulk(items)
	}
	return s, nil
}

// DB exposes the relational backend.
func (s *OBDASystem) DB() *madis.DB { return s.db }

// Name implements System.
func (s *OBDASystem) Name() string { return "ontop-spatial" }

// SpatialSelection implements System: R-tree candidates + exact predicate.
func (s *OBDASystem) SpatialSelection(ds string, rel Relation, wkt string) (int, error) {
	feats, ok := s.geoms[ds]
	if !ok {
		return 0, fmt.Errorf("geographica: unknown dataset %q", ds)
	}
	q, err := geom.ParseWKT(wkt)
	if err != nil {
		return 0, err
	}
	relFn := rel.fn()
	count := 0
	s.rtrees[ds].Search(q.Envelope(), func(it rtree.Item) bool {
		f := feats[it.Data.(int)]
		if relFn(f.geom, q) {
			count++
		}
		return true
	})
	return count, nil
}

// SpatialJoin implements System: index-nested-loops join.
func (s *OBDASystem) SpatialJoin(dsA, dsB string, rel Relation) (int, error) {
	fa, okA := s.geoms[dsA]
	tb, okB := s.rtrees[dsB]
	fb := s.geoms[dsB]
	if !okA || !okB {
		return 0, fmt.Errorf("geographica: unknown dataset %q/%q", dsA, dsB)
	}
	relFn := rel.fn()
	count := 0
	for _, a := range fa {
		tb.Search(a.geom.Envelope(), func(it rtree.Item) bool {
			b := fb[it.Data.(int)]
			if relFn(a.geom, b.geom) {
				count++
			}
			return true
		})
	}
	return count, nil
}

// TotalAreaWithin implements System.
func (s *OBDASystem) TotalAreaWithin(ds string, env geom.Envelope) (float64, error) {
	feats, ok := s.geoms[ds]
	if !ok {
		return 0, fmt.Errorf("geographica: unknown dataset %q", ds)
	}
	container := env.ToPolygon()
	total := 0.0
	s.rtrees[ds].Search(env, func(it rtree.Item) bool {
		f := feats[it.Data.(int)]
		if geom.Within(f.geom, container) {
			total += geom.Area(f.geom)
		}
		return true
	})
	return total, nil
}

// ThematicSelection implements System: class predicate + R-tree window.
func (s *OBDASystem) ThematicSelection(ds, class string, env geom.Envelope) (int, error) {
	feats, ok := s.geoms[ds]
	if !ok {
		return 0, fmt.Errorf("geographica: unknown dataset %q", ds)
	}
	container := env.ToPolygon()
	count := 0
	s.rtrees[ds].Search(env, func(it rtree.Item) bool {
		f := feats[it.Data.(int)]
		if f.class == class && geom.Intersects(f.geom, container) {
			count++
		}
		return true
	})
	return count, nil
}

// Nearest implements System via the R-tree NN search.
func (s *OBDASystem) Nearest(ds string, p geom.Point, k int) ([]string, error) {
	feats, ok := s.geoms[ds]
	if !ok {
		return nil, fmt.Errorf("geographica: unknown dataset %q", ds)
	}
	items := s.rtrees[ds].Nearest(p, k)
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = feats[it.Data.(int)].id
	}
	return out, nil
}

// ---- suite ----

// Query is one benchmark query instance.
type Query struct {
	ID   string
	Kind string // selection | join | aggregate | nearest
	Run  func(System) (float64, error)
}

// Suite returns the Geographica-style micro+macro query set over the
// workload extent.
func Suite() []Query {
	center := workload.ParisExtent.Center()
	sel := geom.NewRect(center.X-0.05, center.Y-0.02, center.X+0.05, center.Y+0.02).WKT()
	small := geom.NewRect(center.X-0.01, center.Y-0.01, center.X+0.01, center.Y+0.01).WKT()
	return []Query{
		{ID: "SC1_Intersects_CLC", Kind: "selection", Run: func(s System) (float64, error) {
			n, err := s.SpatialSelection("clc", RelIntersects, sel)
			return float64(n), err
		}},
		{ID: "SC2_Within_UA", Kind: "selection", Run: func(s System) (float64, error) {
			n, err := s.SpatialSelection("ua", RelWithin, sel)
			return float64(n), err
		}},
		{ID: "SC3_Intersects_OSM_small", Kind: "selection", Run: func(s System) (float64, error) {
			n, err := s.SpatialSelection("osm", RelIntersects, small)
			return float64(n), err
		}},
		{ID: "SJ1_OSM_x_CLC_Intersects", Kind: "join", Run: func(s System) (float64, error) {
			n, err := s.SpatialJoin("osm", "clc", RelIntersects)
			return float64(n), err
		}},
		{ID: "SJ2_UA_x_GADM_Within", Kind: "join", Run: func(s System) (float64, error) {
			n, err := s.SpatialJoin("ua", "gadm", RelWithin)
			return float64(n), err
		}},
		{ID: "AG1_Area_CLC", Kind: "aggregate", Run: func(s System) (float64, error) {
			return s.TotalAreaWithin("clc", workload.ParisExtent)
		}},
		{ID: "MB1_MapBrowse_UA_green", Kind: "selection", Run: func(s System) (float64, error) {
			viewport := geom.Envelope{MinX: center.X - 0.06, MinY: center.Y - 0.03,
				MaxX: center.X + 0.06, MaxY: center.Y + 0.03}
			n, err := s.ThematicSelection("ua", "greenUrbanAreas", viewport)
			return float64(n), err
		}},
		{ID: "NN1_ReverseGeocode_GADM", Kind: "nearest", Run: func(s System) (float64, error) {
			ids, err := s.Nearest("gadm", center, 1)
			return float64(len(ids)), err
		}},
	}
}
