// Package geographica implements a Geographica-style benchmark suite
// [Garbis, Kyzirakos & Koubarakis, ISWC 2013] over the synthetic App Lab
// datasets: spatial selections, spatial joins, aggregations and
// nearest-neighbour queries, each one GeoSPARQL text that runs against
// two sources built from the same workload —
//
//   - Strabon: the materialized RDF store (LoadStore), and
//   - Ontop-spatial (OBDA): a virtual graph over the four datasets'
//     MadIS tables, one mapping per dataset (NewView).
//
// The paper's §5 claim reproduced by experiment E2 is that the OBDA path
// "achieves significantly better performance than state-of-the-art RDF
// stores" on most of these queries.
package geographica

import (
	"fmt"

	"applab/internal/geom"
	"applab/internal/madis"
	"applab/internal/obda"
	"applab/internal/rdf"
	"applab/internal/strabon"
	"applab/internal/workload"
)

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

// dataset is one of the workload's four datasets as both sources see
// it: a namespace for its IRIs and the property naming a feature's class.
type dataset struct {
	name, ns, classProp string
	feats               func(*Workload) []workload.Feature
}

var (
	osm  = dataset{"osm", rdf.NSOSM, rdf.NSOSM + "poiType", func(w *Workload) []workload.Feature { return w.Parks }}
	clc  = dataset{"clc", rdf.NSCLC, rdf.NSCLC + "hasCorineValue", func(w *Workload) []workload.Feature { return w.Corine }}
	ua   = dataset{"ua", rdf.NSUA, rdf.NSUA + "hasClass", func(w *Workload) []workload.Feature { return w.Urban }}
	gadm = dataset{"gadm", rdf.NSGADM, rdf.NSGADM + "hasType", func(w *Workload) []workload.Feature { return w.Gadm }}

	datasets = []dataset{osm, clc, ua, gadm}
)

// LoadStore loads the workload into a Strabon store, the materialized
// column of E2.
func LoadStore(w *Workload) (*strabon.Store, error) {
	s := strabon.New()
	for _, d := range datasets {
		s.AddAll(workload.FeaturesToRDF(d.ns, d.classProp, d.feats(w)))
	}
	if err := s.Freeze(); err != nil {
		_ = s.Close()
		return nil, err
	}
	return s, nil
}

// NewView builds the Ontop-spatial column of E2: one MadIS table per
// dataset and one mapping per table whose target produces exactly the
// triples workload.FeaturesToRDF gives the store.
func NewView(w *Workload) (*obda.VirtualGraph, error) {
	db := madis.NewDB()
	var doc string
	for _, d := range datasets {
		tb := &madis.Table{Name: d.name, Cols: []string{"id", "class", "name", "wkt"}}
		for _, f := range d.feats(w) {
			tb.Rows = append(tb.Rows, madis.Row{f.ID, f.Class, f.Name, f.Geom.WKT()})
		}
		db.CreateTable(tb)
		doc += fmt.Sprintf(`
mappingId	%[1]s
target		<%[2]s{id}> <%[3]s> <%[2]s{class}> ;
			<%[2]shasName> {name} ;
			geo:hasGeometry <%[2]s{id}/geom> .
			<%[2]s{id}/geom> geo:asWKT {wkt}^^geo:wktLiteral .
source		SELECT id, class, name, wkt FROM %[1]s
`, d.name, d.ns, d.classProp)
	}
	mappings, err := obda.ParseMappings(doc)
	if err != nil {
		return nil, err
	}
	return obda.NewVirtualGraph(db, mappings), nil
}

// Query is one benchmark query instance.
type Query struct {
	ID     string
	Kind   string // selection | join | aggregate | nearest
	SPARQL string
}

// Suite returns the Geographica-style micro+macro query set over the
// workload extent.
func Suite() []Query {
	center := workload.ParisExtent.Center()
	sel := geom.NewRect(center.X-0.05, center.Y-0.02, center.X+0.05, center.Y+0.02).WKT()
	small := geom.NewRect(center.X-0.01, center.Y-0.01, center.X+0.01, center.Y+0.01).WKT()
	viewport := geom.NewRect(center.X-0.06, center.Y-0.03, center.X+0.06, center.Y+0.03).WKT()
	return []Query{
		{"SC1_Intersects_CLC", "selection", selection(clc, "sfIntersects", sel)},
		{"SC2_Within_UA", "selection", selection(ua, "sfWithin", sel)},
		{"SC3_Intersects_OSM_small", "selection", selection(osm, "sfIntersects", small)},
		{"SJ1_OSM_x_CLC_Intersects", "join", join(osm, clc, "sfIntersects")},
		{"SJ2_UA_x_GADM_Within", "join", join(ua, gadm, "sfWithin")},
		{"AG1_Area_CLC", "aggregate", fmt.Sprintf(`SELECT (SUM(geof:area(?w)) AS ?total) WHERE {
  ?f <%s> ?cls .
  ?f geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
  FILTER(geof:sfWithin(?w, "%s"^^geo:wktLiteral))
}`, clc.classProp, workload.ParisExtent.ToPolygon().WKT())},
		{"MB1_MapBrowse_UA_green", "selection", fmt.Sprintf(`SELECT (COUNT(*) AS ?n) WHERE {
  ?f <%s> <%sgreenUrbanAreas> .
  ?f geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
  FILTER(geof:sfIntersects(?w, "%s"^^geo:wktLiteral))
}`, ua.classProp, ua.ns, viewport)},
		{"NN1_ReverseGeocode_GADM", "nearest", nearest(gadm, center, 1)},
	}
}

// selection counts the features of ds whose geometry satisfies rel
// against a constant WKT geometry.
func selection(ds dataset, rel, wkt string) string {
	return fmt.Sprintf(`SELECT (COUNT(*) AS ?n) WHERE {
  ?f <%s> ?cls .
  ?f geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
  FILTER(geof:%s(?w, "%s"^^geo:wktLiteral))
}`, ds.classProp, rel, wkt)
}

// join counts the (a, b) pairs between two datasets satisfying rel.
func join(a, b dataset, rel string) string {
	return fmt.Sprintf(`SELECT (COUNT(*) AS ?n) WHERE {
  ?a <%s> ?clsA .
  ?a geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?b <%s> ?clsB .
  ?b geo:hasGeometry ?gb .
  ?gb geo:asWKT ?wb .
  FILTER(geof:%s(?wa, ?wb))
}`, a.classProp, b.classProp, rel)
}

// nearest selects the k features of ds whose geometry is nearest to p by
// geof:distance; equal distances rank by feature IRI.
func nearest(ds dataset, p geom.Point, k int) string {
	return fmt.Sprintf(`SELECT ?f WHERE {
  ?f <%s> ?cls .
  ?f geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
}
ORDER BY ASC(geof:distance(?w, "%s"^^geo:wktLiteral, <http://www.opengis.net/def/uom/OGC/1.0/degree>)) ?f
LIMIT %d`, ds.classProp, geom.NewPoint(p.X, p.Y).WKT(), k)
}
