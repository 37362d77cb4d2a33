// Quickstart: load a few triples, run a GeoSPARQL query, print the rows.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"applab/internal/rdf"
	"applab/internal/strabon"
)

const data = `
@prefix geo: <http://www.opengis.net/ont/geosparql#> .
@prefix osm: <http://www.app-lab.eu/osm/> .

osm:boisDeBoulogne a osm:park ;
    osm:hasName "Bois de Boulogne" ;
    geo:hasGeometry osm:geomBdB .
osm:geomBdB geo:asWKT "POLYGON ((2.23 48.85, 2.26 48.85, 2.26 48.88, 2.23 48.88, 2.23 48.85))"^^geo:wktLiteral .

osm:parcMonceau a osm:park ;
    osm:hasName "Parc Monceau" ;
    geo:hasGeometry osm:geomPM .
osm:geomPM geo:asWKT "POLYGON ((2.307 48.878, 2.311 48.878, 2.311 48.881, 2.307 48.881, 2.307 48.878))"^^geo:wktLiteral .

osm:eiffel a osm:landmark ;
    osm:hasName "Tour Eiffel" ;
    geo:hasGeometry osm:geomTE .
osm:geomTE geo:asWKT "POINT (2.2945 48.8584)"^^geo:wktLiteral .
`

func main() {
	log.SetFlags(0)

	// 1. Parse Turtle and load it into the spatiotemporal store.
	triples, _, err := rdf.ParseTurtleString(data)
	if err != nil {
		log.Fatal(err)
	}
	store := strabon.New()
	defer store.Close()
	store.AddAll(triples)
	fmt.Printf("loaded %d triples, %d indexed geometries\n", store.Len(), store.GeometryCount())

	// 2. A GeoSPARQL query: which parks is the Eiffel tower within 0.05
	// degrees of?
	res, err := store.Query(`
SELECT ?name (geof:distance(?parkWKT, "POINT (2.2945 48.8584)"^^geo:wktLiteral) AS ?d)
WHERE {
  ?park a osm:park ; osm:hasName ?name ; geo:hasGeometry ?g .
  ?g geo:asWKT ?parkWKT .
  FILTER(geof:distance(?parkWKT, "POINT (2.2945 48.8584)"^^geo:wktLiteral) < 0.05)
}
ORDER BY ?d`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nparks within 0.05 degrees of the Eiffel tower:")
	for i := range res.Bindings {
		b := res.Binding(i)
		d, _ := b["d"].Float()
		fmt.Printf("  %-20s distance %.4f\n", b["name"].Value, d)
	}

	// 3. A spatial ASK: does the Bois de Boulogne contain point (2.24, 48.86)?
	ask, err := store.Query(`ASK {
  ?park osm:hasName "Bois de Boulogne" ; geo:hasGeometry ?g .
  ?g geo:asWKT ?wkt .
  FILTER(geof:sfContains(?wkt, "POINT (2.24 48.86)"^^geo:wktLiteral))
}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBois de Boulogne contains (2.24, 48.86)? %v\n", ask.Bool)
}
