// Command sextant renders the "greenness of Paris" thematic map of the
// paper's Figure 4 as SVG, from the synthetic case-study datasets.
//
// Usage:
//
//	sextant -out paris.svg [-width 900] [-frame 0]
package main

import (
	"flag"
	"log"
	"os"

	"applab/internal/core"
	"applab/internal/rdf"
	"applab/internal/sextant"
	"applab/internal/sparql"
	"applab/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sextant: ")
	var (
		outPath = flag.String("out", "paris.svg", "output SVG path ('-' for stdout)")
		width   = flag.Int("width", 900, "SVG width in pixels")
		frame   = flag.Int("frame", -1, "temporal frame index (-1 = all instants)")
	)
	flag.Parse()

	stack := core.NewMaterializedStack()
	ext := workload.ParisExtent
	stack.LoadFeatures(rdf.NSGADM, rdf.NSGADM+"hasType", workload.GADMAreas(ext, 4, 5))
	stack.LoadFeatures(rdf.NSCLC, rdf.NSCLC+"hasCorineValue",
		workload.CorineLandCover(workload.VectorOptions{Extent: ext, N: 60, Seed: 6}))
	stack.LoadFeatures(rdf.NSUA, rdf.NSUA+"hasClass",
		workload.UrbanAtlas(workload.VectorOptions{Extent: ext, N: 60, Seed: 7}))
	stack.LoadFeatures(rdf.NSOSM, rdf.NSOSM+"poiType",
		workload.OSMParks(workload.VectorOptions{Extent: ext, N: 40, Seed: 5}))
	if err := stack.LoadLAI(workload.LAIGrid(workload.DefaultLAIOptions()), "LAI"); err != nil {
		log.Fatal(err)
	}

	m := sextant.NewMap("The greenness of Paris")
	layer := func(name, q, wktVar, valVar, timeVar string, style sextant.Style) {
		res, err := sparql.Eval(stack.Store, q)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if _, err := m.LayerFromResults(name, style, res, wktVar, valVar, timeVar); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	layer("CORINE green urban areas",
		`SELECT ?wkt WHERE { ?a clc:hasCorineValue clc:greenUrbanAreas .
		  ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`,
		"wkt", "", "", sextant.Style{Stroke: "#2e7d32", Fill: "#66bb6a", FillOpacity: 0.45})
	layer("Urban Atlas",
		`SELECT ?wkt WHERE { ?a ua:hasClass ua:greenUrbanAreas .
		  ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`,
		"wkt", "", "", sextant.Style{Stroke: "#558b2f", Fill: "#9ccc65", FillOpacity: 0.4})
	layer("OSM parks",
		`SELECT ?wkt WHERE { ?a osm:poiType osm:park .
		  ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`,
		"wkt", "", "", sextant.Style{Stroke: "#1b5e20", Fill: "#a5d6a7", FillOpacity: 0.5})
	layer("GADM boundaries",
		`SELECT ?wkt WHERE { ?a gadm:hasType ?ty .
		  ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`,
		"wkt", "", "", sextant.Style{Stroke: "#d500f9", Fill: "none", FillOpacity: 0})
	layer("LAI observations",
		`SELECT ?wkt ?lai ?t WHERE { ?o lai:lai ?lai ; geo:hasGeometry ?g ; time:hasTime ?t .
		  ?g geo:asWKT ?wkt }`,
		"wkt", "lai", "t", sextant.Style{Stroke: "none", Fill: "#004d40", FillOpacity: 0.8, Radius: 1.5})

	var svg string
	if *frame >= 0 {
		times := m.Times()
		if *frame >= len(times) {
			log.Fatalf("frame %d out of range (have %d)", *frame, len(times))
		}
		svg = m.RenderSVGAt(*width, times[*frame])
	} else {
		svg = m.RenderSVG(*width)
	}

	if *outPath == "-" {
		os.Stdout.WriteString(svg)
		return
	}
	if err := os.WriteFile(*outPath, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d layers, %d temporal frames)", *outPath, len(m.Layers), len(m.Times()))
}
