package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"applab/internal/core"
	"applab/internal/geographica"
	"applab/internal/geom"
	"applab/internal/geotriples"
	"applab/internal/interlink"
	"applab/internal/netcdf"
	"applab/internal/opendap"
	"applab/internal/rdf"
	"applab/internal/sextant"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/workload"
)

// median runs fn `repeats` times and returns the median duration.
func median(repeats int, fn func() error) (time.Duration, error) {
	if repeats < 1 {
		repeats = 1
	}
	durs := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		durs = append(durs, time.Since(start))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2], nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// evalMedian runs eval `repeats` times and returns the median time and
// the last answer.
func evalMedian(repeats int, eval func() (*sparql.Results, error)) (time.Duration, *sparql.Results, error) {
	var res *sparql.Results
	d, err := median(repeats, func() (err error) {
		res, err = eval()
		return err
	})
	return d, res, err
}

// rowsKey renders an answer order-independently, so two columns can be
// checked for identical bindings.
func rowsKey(res *sparql.Results) string {
	rows := make([]string, len(res.Bindings))
	for i := range res.Bindings {
		b := res.Binding(i)
		var sb strings.Builder
		for _, v := range res.Vars {
			fmt.Fprintf(&sb, "%s=%s ", v, b[v])
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// answer is what a table prints for a result: the value of a one-cell
// literal answer (a COUNT or SUM), else the row count.
func answer(res *sparql.Results) string {
	if len(res.Bindings) == 1 && len(res.Vars) == 1 {
		if t := res.Binding(0)[res.Vars[0]]; t.IsLiteral() {
			return t.Value
		}
	}
	return fmt.Sprintf("%d rows", len(res.Bindings))
}

// ---- E1: materialized vs on-the-fly ----

func runE1(cfg scales) error {
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = cfg.e1Grid, cfg.e1Grid, cfg.e1Times
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"

	fly, err := core.NewOnTheFlyStack(core.Listing2Mapping, grid)
	if err != nil {
		return err
	}
	defer fly.Close()
	fly.SetLatency(time.Duration(cfg.latencyMS) * time.Millisecond)

	// Materialized side: same grid, Strabon store, indexes warm.
	mat := core.NewMaterializedStack()
	if err := mat.LoadLAI(grid, "LAI"); err != nil {
		return err
	}
	if err := mat.Store.Freeze(); err != nil {
		return err
	}
	if _, err := sparql.Eval(mat.Store, core.Listing3Query); err != nil { // warm caches
		return err
	}

	matTime, err := median(cfg.repeats, func() error {
		_, err := sparql.Eval(mat.Store, core.Listing3Query)
		return err
	})
	if err != nil {
		return err
	}

	coldTime, err := median(cfg.repeats, func() error {
		fly.Adapter.InvalidateCaches()
		_, err := sparql.Eval(fly.Graph, core.Listing3Query)
		return err
	})
	if err != nil {
		return err
	}

	if _, err := sparql.Eval(fly.Graph, core.Listing3Query); err != nil { // fill cache
		return err
	}
	warmTime, err := median(cfg.repeats, func() error {
		_, err := sparql.Eval(fly.Graph, core.Listing3Query)
		return err
	})
	if err != nil {
		return err
	}

	fmt.Printf("query: Listing 3 over %dx%dx%d LAI grid, %d ms simulated WAN latency\n",
		cfg.e1Times, cfg.e1Grid, cfg.e1Grid, cfg.latencyMS)
	fmt.Printf("%-34s %12s %14s\n", "mode", "median (ms)", "vs materialized")
	fmt.Printf("%-34s %12.2f %14s\n", "Strabon (materialized)", ms(matTime), "1.0x")
	fmt.Printf("%-34s %12.2f %13.1fx\n", "Ontop-spatial on-the-fly (cold)", ms(coldTime),
		float64(coldTime)/float64(matTime))
	fmt.Printf("%-34s %12.2f %13.1fx\n", "Ontop-spatial on-the-fly (warm w)", ms(warmTime),
		float64(warmTime)/float64(matTime))

	// Slowdown as a function of link latency: the paper's deployment
	// downloads whole product slices from the VITO archive, so the factor
	// is dominated by the link.
	fmt.Printf("\ncold-query slowdown vs link latency:\n")
	fmt.Printf("%-16s %14s %10s\n", "latency (ms)", "cold (ms)", "slowdown")
	for _, lat := range []int{10, 50, 150, 400} {
		fly.SetLatency(time.Duration(lat) * time.Millisecond)
		cold, err := median(cfg.repeats, func() error {
			fly.Adapter.InvalidateCaches()
			_, err := sparql.Eval(fly.Graph, core.Listing3Query)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-16d %14.1f %9.0fx\n", lat, ms(cold), float64(cold)/float64(matTime))
	}
	fmt.Printf("paper claim: on-the-fly 'typically takes two orders of magnitude more time'\n")
	return nil
}

// ---- E2: Geographica micro suite ----

func runE2(cfg scales) error {
	w := geographica.NewWorkload(cfg.e2Scale, 17)
	st, err := geographica.LoadStore(w)
	if err != nil {
		return err
	}
	defer st.Close()
	vg, err := geographica.NewView(w)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %d features per dataset (osm/clc/ua/gadm); one SPARQL text per query on both columns\n", cfg.e2Scale)
	fmt.Printf("%-26s %14s %16s %9s %20s\n", "query", "strabon (ms)", "ontop-sp. (ms)", "speedup", "result")
	obWins := 0
	queries := geographica.Suite()
	for _, q := range queries {
		parsed, err := sparql.Parse(q.SPARQL)
		if err != nil {
			return fmt.Errorf("%s: %v", q.ID, err)
		}
		tSt, resSt, err := evalMedian(cfg.repeats, func() (*sparql.Results, error) { return parsed.Eval(st) })
		if err != nil {
			return fmt.Errorf("%s on strabon: %v", q.ID, err)
		}
		// The view revalidates before each evaluation, as its Query does
		// for a client.
		tOb, resOb, err := evalMedian(cfg.repeats, func() (*sparql.Results, error) {
			vg.Invalidate()
			return parsed.Eval(vg)
		})
		if err != nil {
			return fmt.Errorf("%s on obda: %v", q.ID, err)
		}
		if rowsKey(resSt) != rowsKey(resOb) {
			return fmt.Errorf("%s: bindings differ: strabon %s, obda %s", q.ID, answer(resSt), answer(resOb))
		}
		if tOb < tSt {
			obWins++
		}
		fmt.Printf("%-26s %14.2f %16.2f %8.1fx %20s\n", q.ID, ms(tSt), ms(tOb),
			float64(tSt)/float64(tOb), answer(resOb))
	}
	fmt.Printf("Ontop-spatial faster on %d/%d queries (paper: 'faster than Strabon on most queries')\n",
		obWins, len(queries))
	return nil
}

// ---- E3: cache window ----

func runE3(cfg scales) error {
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 12, 12, 4
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"

	interArrival := 2 * time.Minute
	const calls = 10
	fmt.Printf("identical OPeNDAP calls every %s, %d calls, %d ms latency\n",
		interArrival, calls, cfg.latencyMS)
	fmt.Printf("%-12s %15s %10s %18s\n", "window w", "physical calls", "hit ratio", "mean latency (ms)")
	for _, window := range []int{0, 1, 10, 30} {
		fly, err := core.NewOnTheFlyStack(mappingWithWindow(window), grid)
		if err != nil {
			return err
		}
		fly.SetLatency(time.Duration(cfg.latencyMS) * time.Millisecond)
		clock := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
		fly.Adapter.Now = func() time.Time { return clock }
		var total time.Duration
		for i := 0; i < calls; i++ {
			start := time.Now()
			if _, err := sparql.Eval(fly.Graph, core.Listing3Query); err != nil {
				fly.Close()
				return err
			}
			total += time.Since(start)
			clock = clock.Add(interArrival)
		}
		phys := fly.Adapter.PhysicalCalls()
		hits := float64(calls-int(phys)) / float64(calls)
		fmt.Printf("%-12s %15d %9.0f%% %18.2f\n",
			fmt.Sprintf("%d min", window), phys, 100*hits, ms(total/calls))
		fly.Close()
	}
	fmt.Println("paper claim: calls within w reuse cached results, eliminating the server round trip")
	return nil
}

func mappingWithWindow(minutes int) string {
	return fmt.Sprintf(`
mappingId	opendap_mapping
target		lai:{id} rdf:type lai:Observation .
			lai:{id} lai:lai {LAI}^^xsd:float ;
			time:hasTime {ts}^^xsd:dateTime .
			lai:{id} geo:hasGeometry _:g .
			_:g geo:asWKT {loc}^^geo:wktLiteral .
source		SELECT id, LAI , ts, loc
			FROM (ordered opendap url:lai/LAI/, %d)
			WHERE LAI > 0
`, minutes)
}

// ---- E4: GeoTriples scaling ----

const e4Mapping = `
@prefix rr: <http://www.w3.org/ns/r2rml#> .
@prefix osm: <http://www.app-lab.eu/osm/> .
@prefix geo: <http://www.opengis.net/ont/geosparql#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
<#FeatureMap> rr:subjectMap _:sm .
_:sm rr:template "http://www.app-lab.eu/osm/{id}" ; rr:class osm:Feature .
<#FeatureMap> rr:predicateObjectMap _:p1, _:p2 .
_:p1 rr:predicate osm:hasName ; rr:objectMap _:o1 .
_:o1 rr:column "name" .
_:p2 rr:predicate geo:hasGeometry ; rr:objectMap _:o2 .
_:o2 rr:template "http://www.app-lab.eu/osm/{id}/geom" .
<#GeomMap> rr:subjectMap _:sm2 .
_:sm2 rr:template "http://www.app-lab.eu/osm/{id}/geom" .
<#GeomMap> rr:predicateObjectMap _:p3 .
_:p3 rr:predicate geo:asWKT ; rr:objectMap _:o3 .
_:o3 rr:column "geometry" ; rr:datatype geo:wktLiteral .
`

func runE4(cfg scales) error {
	maps, err := geotriples.ParseR2RML(e4Mapping)
	if err != nil {
		return err
	}
	fmt.Printf("host: %d CPU core(s) — parallel speedup is bounded by this\n", runtime.NumCPU())
	fmt.Printf("%-10s %-9s %12s %14s %9s\n", "rows", "workers", "time (ms)", "ktriples/s", "speedup")
	for _, rows := range cfg.e4Rows {
		tbl := syntheticTable(rows)
		var base time.Duration
		for _, workers := range []int{1, 2, 4, 8} {
			var nTriples int
			d, err := median(cfg.repeats, func() error {
				ts, err := geotriples.ProcessParallel(maps, tbl, workers)
				nTriples = len(ts)
				return err
			})
			if err != nil {
				return err
			}
			if workers == 1 {
				base = d
			}
			fmt.Printf("%-10d %-9d %12.2f %14.0f %8.1fx\n", rows, workers, ms(d),
				float64(nTriples)/d.Seconds()/1000, float64(base)/float64(d))
		}
	}
	fmt.Println("paper claim: the (Hadoop-style) parallel mapping processor scales GeoTriples")
	return nil
}

func syntheticTable(rows int) *geotriples.Table {
	tbl := &geotriples.Table{Cols: []string{"id", "name", "geometry"}}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < rows; i++ {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("f%d", i),
			fmt.Sprintf("Feature %d", i),
			fmt.Sprintf("POINT (%.4f %.4f)", rng.Float64()*10, rng.Float64()*10),
		})
	}
	return tbl
}

// ---- E5: Strabon vs a store without a spatial index ----

// e5Query selects the observations of a time range inside a window.
const e5Query = `SELECT ?o ?t WHERE {
  ?o time:hasTime ?t .
  ?o geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
  FILTER(?t >= "2018-03-01T00:00:00Z"^^xsd:dateTime && ?t <= "2018-09-01T00:00:00Z"^^xsd:dateTime)
  FILTER(geof:sfIntersects(?w, "POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))"^^geo:wktLiteral))
}`

func runE5(cfg scales) error {
	q, err := sparql.Parse(e5Query)
	if err != nil {
		return err
	}
	fmt.Printf("one spatio-temporal SPARQL query (time range + geof:sfIntersects with a constant window)\n")
	fmt.Printf("%-10s %16s %15s %9s %8s\n", "obs", "rdf.Graph (ms)", "strabon (ms)", "speedup", "rows")
	for _, n := range cfg.e5Obs {
		if err := runE5Scale(cfg, q, n); err != nil {
			return err
		}
	}
	fmt.Println("paper claim: Strabon is 'the most efficient spatiotemporal RDF store' (indexing wins)")
	return nil
}

func runE5Scale(cfg scales, q *sparql.Query, n int) error {
	triples := observationTriples(n)
	st := strabon.New()
	defer st.Close()
	st.AddAll(triples)
	if err := st.Freeze(); err != nil {
		return err
	}
	g := rdf.NewGraph()
	g.AddAll(triples)

	tG, resG, err := evalMedian(cfg.repeats, func() (*sparql.Results, error) { return q.Eval(g) })
	if err != nil {
		return err
	}
	tSt, resSt, err := evalMedian(cfg.repeats, func() (*sparql.Results, error) { return q.Eval(st) })
	if err != nil {
		return err
	}
	if rowsKey(resG) != rowsKey(resSt) {
		return fmt.Errorf("bindings differ at n=%d: rdf.Graph %d rows, strabon %d rows",
			n, len(resG.Bindings), len(resSt.Bindings))
	}
	fmt.Printf("%-10d %16.2f %15.2f %8.1fx %8d\n", n, ms(tG), ms(tSt),
		float64(tG)/float64(tSt), len(resSt.Bindings))
	return nil
}

func observationTriples(n int) []rdf.Triple {
	var out []rdf.Triple
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		obs := rdf.NewIRI(fmt.Sprintf("%sobs%d", rdf.NSLAI, i))
		gnode := rdf.NewIRI(fmt.Sprintf("%sgeom%d", rdf.NSLAI, i))
		when := base.Add(time.Duration(rng.Intn(365*24)) * time.Hour)
		out = append(out,
			rdf.NewTriple(obs, rdf.NewIRI(rdf.NSLAI+"lai"), rdf.NewDouble(rng.Float64()*10)),
			rdf.NewTriple(obs, rdf.NewIRI(rdf.NSTime+"hasTime"), rdf.NewDateTime(when)),
			rdf.NewTriple(obs, rdf.NewIRI(rdf.NSGeo+"hasGeometry"), gnode),
			rdf.NewTriple(gnode, rdf.NewIRI(rdf.NSGeo+"asWKT"),
				rdf.NewWKT(fmt.Sprintf("POINT (%.4f %.4f)", rng.Float64()*10, rng.Float64()*10))),
		)
	}
	return out
}

// ---- E6: viewport caching ----

func runE6(cfg scales) error {
	// A single-time 2-D grid served over OPeNDAP; a panning viewport trace.
	grid := netcdf.NewDataset("viewport")
	grid.AddDim("lat", cfg.e6Grid)
	grid.AddDim("lon", cfg.e6Grid)
	data := make([]float64, cfg.e6Grid*cfg.e6Grid)
	for i := range data {
		data[i] = float64(i % 97)
	}
	if err := grid.AddVar(&netcdf.Variable{Name: "NDVI", Dims: []string{"lat", "lon"}, Data: data}); err != nil {
		return err
	}

	srv := opendap.NewServer()
	srv.Publish(grid)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	client := opendap.NewClient("http://" + ln.Addr().String())

	viewport := cfg.e6Grid / 5
	trace := viewportTrace(cfg.e6Grid, viewport, cfg.e6Steps)

	ctx := context.Background()
	run := func(f opendap.Fetcher) (int64, error) {
		before := srv.Requests()
		for _, tl := range trace {
			c := opendap.Constraint{Var: "NDVI", Ranges: []netcdf.Range{
				{Start: tl[1], Stride: 1, Stop: tl[1] + viewport - 1},
				{Start: tl[0], Stride: 1, Stop: tl[0] + viewport - 1},
			}}
			if _, err := f.Fetch(ctx, "viewport", c); err != nil {
				return 0, err
			}
		}
		return srv.Requests() - before, nil
	}

	tiles := opendap.NewTileCache(client, viewport/2)
	tiles.SetShape("viewport", "NDVI", []int{cfg.e6Grid, cfg.e6Grid})
	exact := opendap.NewExactCache(client)

	exactReqs, err := run(exact)
	if err != nil {
		return err
	}
	tileReqs, err := run(tiles)
	if err != nil {
		return err
	}
	noneReqs, err := run(client)
	if err != nil {
		return err
	}

	fmt.Printf("grid %dx%d, viewport %dx%d, %d pan steps\n",
		cfg.e6Grid, cfg.e6Grid, viewport, viewport, cfg.e6Steps)
	fmt.Printf("%-30s %15s %10s\n", "cache", "server requests", "hit ratio")
	fmt.Printf("%-30s %15d %9s\n", "none", noneReqs, "-")
	fmt.Printf("%-30s %15d %9.0f%%\n", "exact request key (WCS-style)", exactReqs,
		100*exact.Stats().HitRatio())
	fmt.Printf("%-30s %15d %9.0f%%\n", "index-aligned tiles (OPeNDAP)", tileReqs,
		100*tiles.Stats().HitRatio())
	fmt.Println("paper claim: serialization by array indices 'increases cache-hits for recurrent requests'")
	return nil
}

// viewportTrace is a deterministic random pan walk.
func viewportTrace(gridSize, viewport, steps int) [][2]int {
	rng := rand.New(rand.NewSource(21))
	x, y := gridSize/2, gridSize/2
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v > gridSize-viewport {
			return gridSize - viewport
		}
		return v
	}
	var out [][2]int
	for i := 0; i < steps; i++ {
		x = clamp(x + rng.Intn(viewport/2+1) - viewport/4)
		y = clamp(y + rng.Intn(viewport/2+1) - viewport/4)
		out = append(out, [2]int{x, y})
	}
	return out
}

// ---- E7: interlinking ----

func runE7(cfg scales) error {
	fmt.Printf("host: %d CPU core(s) — multi-core speedup is bounded by this\n", runtime.NumCPU())
	fmt.Printf("%-10s %14s %18s %18s\n", "n x n", "naive (ms)", "blocked 1w (ms)", "blocked 4w (ms)")
	for _, n := range cfg.e7Sizes {
		parks := workload.OSMParks(workload.VectorOptions{Extent: workload.ParisExtent, N: n, Seed: 3})
		clc := workload.CorineLandCover(workload.VectorOptions{Extent: workload.ParisExtent, N: n, Seed: 4})
		var src, dst []interlink.Entity
		for _, f := range parks {
			src = append(src, interlink.Entity{ID: rdf.NewIRI(rdf.NSOSM + f.ID), Geom: f.Geom})
		}
		for _, f := range clc {
			dst = append(dst, interlink.Entity{ID: rdf.NewIRI(rdf.NSCLC + f.ID), Geom: f.Geom})
		}
		var nNaive, nB1, nB4 int
		tNaive, _ := median(1, func() error {
			nNaive = len(interlink.DiscoverNaive(src, dst, geom.Intersects, "p"))
			return nil
		})
		l1 := &interlink.SpatialLinker{Relation: geom.Intersects, Predicate: "p", Workers: 1}
		tB1, _ := median(1, func() error {
			nB1 = len(l1.Discover(src, dst))
			return nil
		})
		l4 := &interlink.SpatialLinker{Relation: geom.Intersects, Predicate: "p", Workers: 4}
		tB4, _ := median(1, func() error {
			nB4 = len(l4.Discover(src, dst))
			return nil
		})
		if nNaive != nB1 || nB1 != nB4 {
			return fmt.Errorf("link count mismatch at n=%d: %d/%d/%d", n, nNaive, nB1, nB4)
		}
		fmt.Printf("%-10d %14.1f %18.1f %18.1f   (%d links)\n", n, ms(tNaive), ms(tB1), ms(tB4), nB1)
	}
	fmt.Println("paper claim: blocking + multi-core make interlinking 'scalable to very large datasets'")
	return nil
}

// ---- F1-F4 ----

// runF1 wires both Figure 1 workflows and reports what flowed through
// each component.
func runF1() error {
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 8, 8, 2
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"

	fly, err := core.NewOnTheFlyStack(core.Listing2Mapping, grid)
	if err != nil {
		return err
	}
	defer fly.Close()
	flyRes, err := sparql.Eval(fly.Graph, core.Listing3Query)
	if err != nil {
		return err
	}
	fmt.Printf("on-the-fly workflow   : OPeNDAP@%s -> MadIS opendap vtable -> Ontop-spatial virtual graph -> %d rows\n",
		fly.URL(), len(flyRes.Bindings))

	mat := core.NewMaterializedStack()
	if err := mat.LoadLAI(grid, "LAI"); err != nil {
		return err
	}
	matRes, err := sparql.Eval(mat.Store, core.Listing3Query)
	if err != nil {
		return err
	}
	fmt.Printf("materialized workflow : converter -> Strabon (%d triples, %d geometries) -> %d rows\n",
		mat.Store.Len(), mat.Store.GeometryCount(), len(matRes.Bindings))
	if len(matRes.Bindings) != len(flyRes.Bindings) {
		return fmt.Errorf("workflow results disagree: %d vs %d",
			len(matRes.Bindings), len(flyRes.Bindings))
	}
	fmt.Println("both workflows agree on the Listing 3 result set")
	return nil
}

func runF2() error {
	return rdf.WriteTurtle(os.Stdout, core.LAIOntology(), rdf.DefaultPrefixes())
}

func runF3() error {
	return rdf.WriteTurtle(os.Stdout, core.GADMOntology(), rdf.DefaultPrefixes())
}

func runF4(outPath string) error {
	stack := core.NewMaterializedStack()
	ext := workload.ParisExtent
	stack.LoadFeatures(rdf.NSGADM, rdf.NSGADM+"hasType", workload.GADMAreas(ext, 4, 5))
	stack.LoadFeatures(rdf.NSCLC, rdf.NSCLC+"hasCorineValue",
		workload.CorineLandCover(workload.VectorOptions{Extent: ext, N: 60, Seed: 6}))
	stack.LoadFeatures(rdf.NSOSM, rdf.NSOSM+"poiType",
		workload.OSMParks(workload.VectorOptions{Extent: ext, N: 40, Seed: 5}))
	if err := stack.LoadLAI(workload.LAIGrid(workload.DefaultLAIOptions()), "LAI"); err != nil {
		return err
	}

	m := sextant.NewMap("The greenness of Paris")
	addLayer := func(name, q, wktVar, valVar, timeVar string, style sextant.Style) error {
		res, err := sparql.Eval(stack.Store, q)
		if err != nil {
			return err
		}
		_, err = m.LayerFromResults(name, style, res, wktVar, valVar, timeVar)
		return err
	}
	if err := addLayer("CORINE green",
		`SELECT ?wkt WHERE { ?a clc:hasCorineValue clc:greenUrbanAreas . ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`,
		"wkt", "", "", sextant.Style{Stroke: "#2e7d32", Fill: "#66bb6a", FillOpacity: 0.45}); err != nil {
		return err
	}
	if err := addLayer("OSM parks",
		`SELECT ?wkt WHERE { ?a osm:poiType osm:park . ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`,
		"wkt", "", "", sextant.Style{Stroke: "#1b5e20", Fill: "#a5d6a7", FillOpacity: 0.5}); err != nil {
		return err
	}
	if err := addLayer("GADM",
		`SELECT ?wkt WHERE { ?a gadm:hasType ?ty . ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt }`,
		"wkt", "", "", sextant.Style{Stroke: "#d500f9", Fill: "none", FillOpacity: 0}); err != nil {
		return err
	}
	if err := addLayer("LAI",
		`SELECT ?wkt ?lai ?t WHERE { ?o lai:lai ?lai ; geo:hasGeometry ?g ; time:hasTime ?t . ?g geo:asWKT ?wkt }`,
		"wkt", "lai", "t", sextant.Style{Stroke: "none", Fill: "#004d40", FillOpacity: 0.8, Radius: 1.5}); err != nil {
		return err
	}
	svg := m.RenderSVG(900)
	if err := os.WriteFile(outPath, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d layers, %d temporal frames, extent %+v\n",
		outPath, len(m.Layers), len(m.Times()), m.Envelope())
	return nil
}
