package federation

// Race stress test: concurrent GeoSPARQL queries over a three-member
// federation while membership and learned source selection churn. Run
// under `go test -race`; the assertions are deliberately coarse — the
// interleavings are the test.

import (
	"sync"
	"testing"

	"applab/internal/rdf"
	"applab/internal/strabon"
	"applab/internal/workload"
)

func TestConcurrentFederatedQueries(t *testing.T) {
	gadm, osm := buildMembers(t)
	clc := strabon.New()
	clc.AddAll(workload.FeaturesToRDF(rdf.NSCLC, rdf.NSCLC+"cover",
		workload.CorineLandCover(workload.VectorOptions{
			Extent: workload.ParisExtent, N: 15, Seed: 9})))
	fed := New(Member{"gadm", gadm}, Member{"osm", osm}, Member{"clc", clc})

	queries := []string{
		`SELECT (COUNT(*) AS ?n) WHERE { ?s geo:hasGeometry ?g }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?s osm:poiType osm:park }`,
		`SELECT ?s WHERE { ?s gadm:hasType ?t }`,
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := queries[(w+i)%len(queries)]
				res, err := fed.Query(q)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if len(res.Bindings) == 0 {
					t.Errorf("worker %d: empty result for %s", w, q)
					return
				}
			}
		}(w)
	}
	// Raw pattern fan-out alongside the full query engine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			fed.Match(rdf.Term{}, rdf.NewIRI(rdf.NSGeo+"hasGeometry"), rdf.Term{})
		}
	}()
	// Membership churn: appending an (empty) member mid-flight must not
	// disturb running fan-outs; learned capabilities reset each time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			fed.AddMember(Member{"extra", strabon.New()})
			fed.Members()
			fed.RequestCount("osm")
			fed.ForgetCapabilities()
		}
	}()
	wg.Wait()

	// Empty extra members contribute nothing: counts are stable.
	res, err := fed.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Binding(0)["n"].Int()
	if int(n) != 12+20+15 {
		t.Fatalf("geometry count after stress = %d, want 47", n)
	}
}
