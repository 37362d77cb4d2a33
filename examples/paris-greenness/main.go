// paris-greenness reproduces the paper's §4 case study end-to-end through
// the materialized workflow: synthetic Copernicus/OSM/GADM datasets are
// converted to RDF, stored in Strabon, interlinked, queried with the
// paper's Listing 1, and rendered as the Figure 4 thematic map.
//
//	go run ./examples/paris-greenness
package main

import (
	"fmt"
	"log"
	"os"

	"applab/internal/core"
	"applab/internal/geom"
	"applab/internal/interlink"
	"applab/internal/rdf"
	"applab/internal/sextant"
	"applab/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. Generate the case-study datasets (substitutes for the real
	// Copernicus land monitoring, OSM and GADM data).
	ext := workload.ParisExtent
	parks := workload.OSMParks(workload.VectorOptions{Extent: ext, N: 40, Seed: 5})
	corine := workload.CorineLandCover(workload.VectorOptions{Extent: ext, N: 60, Seed: 6})
	urban := workload.UrbanAtlas(workload.VectorOptions{Extent: ext, N: 60, Seed: 7})
	gadm := workload.GADMAreas(ext, 4, 5)
	lai := workload.LAIGrid(workload.DefaultLAIOptions())

	// 2. Transform to RDF and load into Strabon (with the Figure 2/3
	// ontologies preloaded).
	stack := core.NewMaterializedStack()
	stack.LoadFeatures(rdf.NSOSM, rdf.NSOSM+"poiType", parks)
	stack.LoadFeatures(rdf.NSCLC, rdf.NSCLC+"hasCorineValue", corine)
	stack.LoadFeatures(rdf.NSUA, rdf.NSUA+"hasClass", urban)
	stack.LoadFeatures(rdf.NSGADM, rdf.NSGADM+"hasType", gadm)
	if err := stack.LoadLAI(lai, "LAI"); err != nil {
		log.Fatal(err)
	}
	res, err := stack.Query(`SELECT (COUNT(*) AS ?n) WHERE { ?o a lai:Observation }`)
	if err != nil {
		log.Fatal(err)
	}
	nObs, _ := res.Binding(0)["n"].Int()
	fmt.Printf("store: %d triples, %d geometries, %d LAI observations\n",
		stack.Store.Len(), stack.Store.GeometryCount(), nObs)

	// 3. Interlink: discover geo:sfIntersects links between everything
	// with a geometry (parks overlapping land-cover patches etc.).
	linker := &interlink.SpatialLinker{
		Relation:  geom.Intersects,
		Predicate: rdf.NSGeo + "sfIntersects",
		Workers:   2,
	}
	n := stack.Interlink(linker, rdf.NSOSM+"hasName", "")
	fmt.Printf("interlinking: %d geo:sfIntersects links added\n", n)

	// 4. The paper's Listing 1: LAI values over the Bois de Boulogne.
	res, err = stack.Query(core.Listing1Query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Listing 1: %d LAI observations intersect the Bois de Boulogne\n", len(res.Bindings))
	for i := range res.Bindings {
		b := res.Binding(i)
		if i >= 3 {
			fmt.Printf("  ... and %d more\n", len(res.Bindings)-3)
			break
		}
		v, _ := b["lai"].Float()
		fmt.Printf("  LAI %.2f at %s\n", v, b["geoB"].Value)
	}

	// 5. Figure 4: the layered "greenness of Paris" map.
	m := sextant.NewMap("The greenness of Paris")
	mustLayer := func(name, q, wkt, val, tm string, style sextant.Style) {
		r, err := stack.Query(q)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if _, err := m.LayerFromResults(name, style, r, wkt, val, tm); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	mustLayer("CORINE green urban areas",
		`SELECT ?wkt WHERE { ?a clc:hasCorineValue clc:greenUrbanAreas .
		   ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`,
		"wkt", "", "", sextant.Style{Stroke: "#2e7d32", Fill: "#66bb6a", FillOpacity: 0.45})
	mustLayer("OSM parks",
		`SELECT ?wkt WHERE { ?a osm:poiType osm:park . ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`,
		"wkt", "", "", sextant.Style{Stroke: "#1b5e20", Fill: "#a5d6a7", FillOpacity: 0.5})
	mustLayer("GADM boundaries",
		`SELECT ?wkt WHERE { ?a gadm:hasType ?ty . ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`,
		"wkt", "", "", sextant.Style{Stroke: "#d500f9", Fill: "none", FillOpacity: 0})
	mustLayer("LAI observations",
		`SELECT ?wkt ?lai ?t WHERE { ?o lai:lai ?lai ; geo:hasGeometry ?g ; time:hasTime ?t .
		   ?g geo:asWKT ?wkt }`,
		"wkt", "lai", "t", sextant.Style{Stroke: "none", Fill: "#004d40", FillOpacity: 0.8, Radius: 1.5})

	out := "paris-greenness.svg"
	if err := os.WriteFile(out, []byte(m.RenderSVG(900)), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 4 map written to %s (%d layers, %d temporal frames)\n",
		out, len(m.Layers), len(m.Times()))
}
