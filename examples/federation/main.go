// federation demonstrates the paper's §5 open problem solved at prototype
// scale: a GeoSPARQL query answered over a *federation* of SPARQL
// endpoints — one serving GADM administrative areas, one serving
// OpenStreetMap parks — with cross-endpoint spatial joins and learned
// source selection.
//
//	go run ./examples/federation
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"

	"applab/internal/endpoint"
	"applab/internal/federation"
	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/workload"
)

func serveStore(st *strabon.Store) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: endpoint.Handler(st)}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
}

func main() {
	log.SetFlags(0)

	// Endpoint 1: the GADM administrative areas of Paris.
	gadmStore := strabon.New()
	gadmStore.AddAll(workload.FeaturesToRDF(rdf.NSGADM, rdf.NSGADM+"hasType",
		workload.GADMAreas(workload.ParisExtent, 4, 5)))
	gadmURL, closeGadm, err := serveStore(gadmStore)
	if err != nil {
		log.Fatal(err)
	}
	defer closeGadm()

	// Endpoint 2: OpenStreetMap parks.
	osmStore := strabon.New()
	osmStore.AddAll(workload.FeaturesToRDF(rdf.NSOSM, rdf.NSOSM+"poiType",
		workload.OSMParks(workload.VectorOptions{Extent: workload.ParisExtent, N: 25, Seed: 5})))
	osmURL, closeOsm, err := serveStore(osmStore)
	if err != nil {
		log.Fatal(err)
	}
	defer closeOsm()

	fmt.Printf("GADM endpoint: %s/sparql (%d triples)\n", gadmURL, gadmStore.Len())
	fmt.Printf("OSM endpoint:  %s/sparql (%d triples)\n", osmURL, osmStore.Len())

	// Federate the two remote endpoints.
	fed := federation.New(
		federation.Member{Name: "gadm", Source: endpoint.NewRemoteSource(gadmURL)},
		federation.Member{Name: "osm", Source: endpoint.NewRemoteSource(osmURL)},
	)

	// A cross-endpoint GeoSPARQL join: which administrative areas does
	// each park intersect? Neither endpoint alone can answer this.
	res, err := sparql.Eval(fed, `
SELECT ?parkName ?areaName WHERE {
  ?park osm:poiType osm:park ; osm:hasName ?parkName ; geo:hasGeometry ?pg .
  ?pg geo:asWKT ?pw .
  ?area gadm:hasType ?ty ; gadm:hasName ?areaName ; geo:hasGeometry ?ag .
  ?ag geo:asWKT ?aw .
  FILTER(geof:sfIntersects(?pw, ?aw))
} ORDER BY ?parkName`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncross-endpoint spatial join: %d (park, area) pairs\n", len(res.Bindings))
	shown := 0
	for i := range res.Bindings {
		b := res.Binding(i)
		if shown >= 6 {
			fmt.Printf("  ... and %d more\n", len(res.Bindings)-shown)
			break
		}
		fmt.Printf("  %-14s intersects %s\n", b["parkName"].Value, b["areaName"].Value)
		shown++
	}

	// Source selection: the first run of an OSM-only pattern probes both
	// endpoints; the repeat skips the GADM endpoint, which was learned
	// not to contribute.
	fed.ForgetCapabilities()
	before := fed.RequestCount("gadm")
	sparql.Eval(fed, `SELECT (COUNT(*) AS ?n) WHERE { ?s osm:poiType osm:park }`)
	mid := fed.RequestCount("gadm")
	sparql.Eval(fed, `SELECT (COUNT(*) AS ?n) WHERE { ?s osm:poiType osm:park }`)
	after := fed.RequestCount("gadm")
	fmt.Printf("\nsource selection: GADM endpoint requests %d -> %d -> %d "+
		"(probed once, then skipped)\n", before, mid, after)
}
