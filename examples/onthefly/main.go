// onthefly reproduces the paper's §3.2 on-the-fly workflow: a local
// OPeNDAP server publishes a synthetic Copernicus LAI product; the MadIS
// opendap virtual table streams it into SQL; Ontop-spatial mappings
// (the paper's Listing 2) expose it as a virtual RDF graph answered with
// GeoSPARQL (Listing 3) — no triples materialized, with the cache window
// moderating repeated calls.
//
//	go run ./examples/onthefly
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"applab/internal/core"
	"applab/internal/sparql"
	"applab/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. Synthetic LAI product, published over OPeNDAP.
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon = 12, 15
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"

	stack, err := core.NewOnTheFlyStack(core.Listing2Mapping, grid)
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	stack.SetLatency(20 * time.Millisecond) // simulate the WAN link to VITO
	fmt.Printf("OPeNDAP server at %s\n", stack.URL())

	// Metadata discovery the way a mobile developer would do it.
	dds, err := stack.Client.DDS(context.Background(), "lai")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDDS of the published product:\n%s\n", dds)

	// 2. The paper's Listing 3 over the virtual graph: data is fetched
	// from OPeNDAP at query time.
	start := time.Now()
	res, err := sparql.Eval(stack.Graph, core.Listing3Query)
	if err != nil {
		log.Fatal(err)
	}
	cold := time.Since(start)
	fmt.Printf("Listing 3 (cold): %d rows in %v (%d OPeNDAP calls so far)\n",
		len(res.Bindings), cold.Round(time.Millisecond), stack.Adapter.PhysicalCalls())

	// 3. Repeat within the 10-minute cache window of Listing 2: no new
	// OPeNDAP call.
	start = time.Now()
	res, err = sparql.Eval(stack.Graph, core.Listing3Query)
	if err != nil {
		log.Fatal(err)
	}
	warm := time.Since(start)
	fmt.Printf("Listing 3 (warm): %d rows in %v (%d OPeNDAP calls — cache window hit)\n",
		len(res.Bindings), warm.Round(time.Millisecond), stack.Adapter.PhysicalCalls())

	// 4. A spatial filter over the same virtual graph.
	center := workload.ParisExtent.Center()
	q := fmt.Sprintf(`SELECT (COUNT(*) AS ?n) (AVG(?lai) AS ?avg) WHERE {
  ?s lai:lai ?lai ; geo:hasGeometry ?g .
  ?g geo:asWKT ?wkt .
  FILTER(geof:distance(?wkt, "POINT (%g %g)"^^geo:wktLiteral) < 0.05)
}`, center.X, center.Y)
	res, err = sparql.Eval(stack.Graph, q)
	if err != nil {
		log.Fatal(err)
	}
	n, _ := res.Binding(0)["n"].Int()
	avg, _ := res.Binding(0)["avg"].Float()
	fmt.Printf("\ncity-center greenness: %d observations, mean LAI %.2f\n", n, avg)

	// 5. For costly repeated analysis, materialize (the paper's §5
	// advice) into a Strabon store.
	st, err := stack.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	res, err = st.Query(`SELECT (COUNT(*) AS ?n) WHERE { ?o a lai:Observation }`)
	if err != nil {
		log.Fatal(err)
	}
	nObs, _ := res.Binding(0)["n"].Int()
	fmt.Printf("materialized snapshot: %d triples, %d observations\n", st.Len(), nObs)
}
