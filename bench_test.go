// Package applab holds the benchmark harness mirroring EXPERIMENTS.md:
// one testing.B benchmark family per experiment (E1-E7). The printable
// tables come from `applab-bench -exp`; these benches give per-operation
// timings and allocation counts for the same code paths.
package applab

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"testing"
	"time"

	"applab/internal/core"
	"applab/internal/federation"
	"applab/internal/geographica"
	"applab/internal/geom"
	"applab/internal/geom/rtree"
	"applab/internal/geosparql"
	"applab/internal/geotriples"
	"applab/internal/interlink"
	"applab/internal/netcdf"
	"applab/internal/opendap"
	"applab/internal/rdf"
	"applab/internal/strabon"
	"applab/internal/workload"
)

// ---- E1: materialized vs on-the-fly ----

func e1Grid(b *testing.B) *netcdf.Dataset {
	b.Helper()
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 10, 10, 4
	g := workload.LAIGrid(opts)
	g.Name = "lai"
	return g
}

func BenchmarkE1_Materialized(b *testing.B) {
	grid := e1Grid(b)
	mat := core.NewMaterializedStack()
	if err := mat.LoadLAI(grid, "LAI"); err != nil {
		b.Fatal(err)
	}
	mat.Store.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.Query(core.Listing3Query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_OnTheFlyCold(b *testing.B) {
	fly, err := core.NewOnTheFlyStack(core.Listing2Mapping, e1Grid(b))
	if err != nil {
		b.Fatal(err)
	}
	defer fly.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fly.Adapter.InvalidateCaches()
		if _, err := fly.Query(core.Listing3Query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_OnTheFlyWarm(b *testing.B) {
	fly, err := core.NewOnTheFlyStack(core.Listing2Mapping, e1Grid(b))
	if err != nil {
		b.Fatal(err)
	}
	defer fly.Close()
	if _, err := fly.Query(core.Listing3Query); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fly.Query(core.Listing3Query); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E2: Geographica suite on both systems ----

func BenchmarkE2(b *testing.B) {
	w := geographica.NewWorkload(80, 17)
	st, err := geographica.NewStrabonSystem(w)
	if err != nil {
		b.Fatal(err)
	}
	ob, err := geographica.NewOBDASystem(w)
	if err != nil {
		b.Fatal(err)
	}
	systems := []geographica.System{st, ob}
	for _, q := range geographica.Suite() {
		for _, sys := range systems {
			b.Run(q.ID+"/"+sys.Name(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := q.Run(sys); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- E3: cache window ----

func BenchmarkE3_WindowCache(b *testing.B) {
	grid := e1Grid(b)
	srv := opendap.NewServer()
	srv.Publish(grid)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	client := opendap.NewClient("http://" + ln.Addr().String())
	constraint := opendap.Constraint{Var: "LAI"}

	b.Run("window=0", func(b *testing.B) {
		cache := opendap.NewWindowCache(client, 0)
		for i := 0; i < b.N; i++ {
			if _, err := cache.Fetch("lai", constraint); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("window=10m", func(b *testing.B) {
		cache := opendap.NewWindowCache(client, 10*time.Minute)
		for i := 0; i < b.N; i++ {
			if _, err := cache.Fetch("lai", constraint); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E4: GeoTriples mapping processor ----

const benchMapping = `
@prefix rr: <http://www.w3.org/ns/r2rml#> .
@prefix osm: <http://www.app-lab.eu/osm/> .
@prefix geo: <http://www.opengis.net/ont/geosparql#> .
<#M> rr:subjectMap _:sm .
_:sm rr:template "http://www.app-lab.eu/osm/{id}" ; rr:class osm:Feature .
<#M> rr:predicateObjectMap _:p1, _:p2 .
_:p1 rr:predicate osm:hasName ; rr:objectMap _:o1 .
_:o1 rr:column "name" .
_:p2 rr:predicate geo:asWKT ; rr:objectMap _:o2 .
_:o2 rr:column "geometry" ; rr:datatype geo:wktLiteral .
`

func benchTable(n int) *geotriples.Table {
	tbl := &geotriples.Table{Cols: []string{"id", "name", "geometry"}}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("f%d", i),
			fmt.Sprintf("Feature %d", i),
			fmt.Sprintf("POINT (%.4f %.4f)", rng.Float64()*10, rng.Float64()*10),
		})
	}
	return tbl
}

func BenchmarkE4_GeoTriples(b *testing.B) {
	maps, err := geotriples.ParseR2RML(benchMapping)
	if err != nil {
		b.Fatal(err)
	}
	tbl := benchTable(5000)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := geotriples.ProcessParallel(maps, tbl, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E5: indexed vs naive spatio-temporal queries ----

func e5Data(n int) []rdf.Triple {
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

func BenchmarkE5_NaiveScan(b *testing.B) {
	nv := strabon.NewNaive()
	nv.AddAll(e5Data(2000))
	env := geom.Envelope{MinX: 2, MinY: 2, MaxX: 6, MaxY: 6}
	from := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2018, 9, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nv.ObservationsDuring(env, from, to)
	}
}

func BenchmarkE5_StrabonIndexed(b *testing.B) {
	st := strabon.New()
	st.AddAll(e5Data(2000))
	st.Freeze()
	env := geom.Envelope{MinX: 2, MinY: 2, MaxX: 6, MaxY: 6}
	from := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2018, 9, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ObservationsDuring(env, from, to)
	}
}

// ---- E6: viewport caches ----

func benchViewportServer(b *testing.B, n int) (*opendap.Client, func()) {
	b.Helper()
	grid := netcdf.NewDataset("viewport")
	grid.AddDim("lat", n)
	grid.AddDim("lon", n)
	data := make([]float64, n*n)
	for i := range data {
		data[i] = float64(i % 97)
	}
	if err := grid.AddVar(&netcdf.Variable{Name: "NDVI", Dims: []string{"lat", "lon"}, Data: data}); err != nil {
		b.Fatal(err)
	}
	srv := opendap.NewServer()
	srv.Publish(grid)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	return opendap.NewClient("http://" + ln.Addr().String()), func() { hs.Close() }
}

func viewportRequests(gridSize, viewport, steps int) []opendap.Constraint {
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
	var out []opendap.Constraint
	for i := 0; i < steps; i++ {
		x = clamp(x + rng.Intn(viewport/2+1) - viewport/4)
		y = clamp(y + rng.Intn(viewport/2+1) - viewport/4)
		out = append(out, opendap.Constraint{Var: "NDVI", Ranges: []netcdf.Range{
			{Start: y, Stride: 1, Stop: y + viewport - 1},
			{Start: x, Stride: 1, Stop: x + viewport - 1},
		}})
	}
	return out
}

func BenchmarkE6_TileCache(b *testing.B) {
	client, closeFn := benchViewportServer(b, 128)
	defer closeFn()
	reqs := viewportRequests(128, 24, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tiles := opendap.NewTileCache(client, 12)
		tiles.SetShape("viewport", "NDVI", []int{128, 128})
		for _, c := range reqs {
			if _, err := tiles.Fetch("viewport", c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE6_ExactCache(b *testing.B) {
	client, closeFn := benchViewportServer(b, 128)
	defer closeFn()
	reqs := viewportRequests(128, 24, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact := opendap.NewExactCache(client)
		for _, c := range reqs {
			if _, err := exact.Fetch("viewport", c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- E7: interlinking ----

func e7Entities(n int) (src, dst []interlink.Entity) {
	parks := workload.OSMParks(workload.VectorOptions{Extent: workload.ParisExtent, N: n, Seed: 3})
	clc := workload.CorineLandCover(workload.VectorOptions{Extent: workload.ParisExtent, N: n, Seed: 4})
	for _, f := range parks {
		src = append(src, interlink.Entity{ID: rdf.NewIRI(rdf.NSOSM + f.ID), Geom: f.Geom})
	}
	for _, f := range clc {
		dst = append(dst, interlink.Entity{ID: rdf.NewIRI(rdf.NSCLC + f.ID), Geom: f.Geom})
	}
	return src, dst
}

func BenchmarkE7_Naive(b *testing.B) {
	src, dst := e7Entities(400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interlink.DiscoverNaive(src, dst, geom.Intersects, "p")
	}
}

func BenchmarkE7_Blocked(b *testing.B) {
	src, dst := e7Entities(400)
	l := &interlink.SpatialLinker{Relation: geom.Intersects, Predicate: "p", Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Discover(src, dst)
	}
}

func BenchmarkE7_BlockedParallel(b *testing.B) {
	src, dst := e7Entities(400)
	l := &interlink.SpatialLinker{Relation: geom.Intersects, Predicate: "p", Workers: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Discover(src, dst)
	}
}

// ---- Ablations: design choices called out in DESIGN.md ----

// Ablation: R-tree bulk (STR) packing vs incremental insertion — build
// cost and query cost.
func BenchmarkAblation_RTreeBuild(b *testing.B) {
	items := make([]rtree.Item, 5000)
	rng := rand.New(rand.NewSource(5))
	for i := range items {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		items[i] = rtree.Item{Env: geom.Envelope{MinX: x, MinY: y, MaxX: x + 5, MaxY: y + 5}, Data: i}
	}
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rtree.Bulk(items)
		}
	})
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := rtree.New()
			for _, it := range items {
				tr.Insert(it.Env, it.Data)
			}
		}
	})
}

func BenchmarkAblation_RTreeQuery(b *testing.B) {
	items := make([]rtree.Item, 5000)
	rng := rand.New(rand.NewSource(5))
	for i := range items {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		items[i] = rtree.Item{Env: geom.Envelope{MinX: x, MinY: y, MaxX: x + 5, MaxY: y + 5}, Data: i}
	}
	bulk := rtree.Bulk(items)
	ins := rtree.New()
	for _, it := range items {
		ins.Insert(it.Env, it.Data)
	}
	q := geom.Envelope{MinX: 200, MinY: 200, MaxX: 320, MaxY: 320}
	b.Run("bulk-packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bulk.SearchAll(q)
		}
	})
	b.Run("insert-built", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ins.SearchAll(q)
		}
	})
}

// Ablation: geometry-literal memoization — geof filter evaluation with the
// cache warm (normal) vs parsing WKT afresh per probe (what the naive
// store does).
func BenchmarkAblation_WKTParse(b *testing.B) {
	wkt := "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))"
	b.Run("parse-every-time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := geom.ParseWKT(wkt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		term := rdf.NewWKT(wkt)
		for i := 0; i < b.N; i++ {
			if _, err := geosparql.ParseGeometryTerm(term); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: federation source selection on vs off (capability cache
// cleared before every query).
func BenchmarkAblation_FederationSourceSelection(b *testing.B) {
	gadmStore := strabon.New()
	gadmStore.AddAll(workload.FeaturesToRDF(rdf.NSGADM, rdf.NSGADM+"hasType",
		workload.GADMAreas(workload.ParisExtent, 5, 8)))
	osmStore := strabon.New()
	osmStore.AddAll(workload.FeaturesToRDF(rdf.NSOSM, rdf.NSOSM+"poiType",
		workload.OSMParks(workload.VectorOptions{Extent: workload.ParisExtent, N: 40, Seed: 5})))
	fed := federation.New(
		federation.Member{Name: "gadm", Source: gadmStore},
		federation.Member{Name: "osm", Source: osmStore},
	)
	q := `SELECT (COUNT(*) AS ?n) WHERE { ?s osm:poiType osm:park . ?s geo:hasGeometry ?g }`
	b.Run("selection-on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fed.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("selection-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fed.ForgetCapabilities()
			if _, err := fed.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- rdf.Graph and the per-request OBDA snapshot ----

// graphBenchTriples is the materialized form of a 6x6x4 LAI grid: five
// triples per observation, the shape every OBDA snapshot loads.
func graphBenchTriples(b *testing.B) []rdf.Triple {
	b.Helper()
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 6, 6, 4
	ts, err := workload.LAIGridToRDF(workload.LAIGrid(opts), "LAI")
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

// Graph_Add loads the triples into a fresh graph; ns/op is per graph.
func BenchmarkGraph_Add(b *testing.B) {
	ts := graphBenchTriples(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := rdf.NewGraph()
		for _, t := range ts {
			g.Add(t)
		}
	}
}

var graphBenchSink []rdf.Triple

// Graph_MatchBoundSubject is the nested-loop probe: one subject's triples.
func BenchmarkGraph_MatchBoundSubject(b *testing.B) {
	ts := graphBenchTriples(b)
	g := rdf.NewGraph()
	g.AddAll(ts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphBenchSink = g.Match(ts[i%len(ts)].S, rdf.Term{}, rdf.Term{})
	}
}

// Graph_MatchUnknown is the memtable probe of a read whose bound term
// only the runs hold.
func BenchmarkGraph_MatchUnknown(b *testing.B) {
	ts := graphBenchTriples(b)
	g := rdf.NewGraph()
	g.AddAll(ts)
	unknown := rdf.NewIRI(rdf.NSLAI + "obs/none")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphBenchSink = g.Match(unknown, ts[i%len(ts)].P, rdf.Term{})
	}
}

// obdaBenchGrid is a 5x6x3 LAI grid, the per-mapping size of the
// otf-opendap workload.
func obdaBenchGrid(seed int64) *netcdf.Dataset {
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times, opts.Seed = 5, 6, 3, seed
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"
	return grid
}

// obdaBenchStack is the Listing 2 mapping over grid, evaluated once.
func obdaBenchStack(b *testing.B, grid *netcdf.Dataset) *core.OnTheFlyStack {
	fly, err := core.NewOnTheFlyStack(core.Listing2Mapping, grid)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fly.Close() })
	if _, err := fly.Graph.Snapshot(); err != nil {
		b.Fatal(err)
	}
	return fly
}

// OBDA_Revalidate is an evaluation over an unchanged source with the
// OPeNDAP window cache warm: the mapping source is executed, resolves to
// the relation the view was built from, and the view is published again.
func BenchmarkOBDA_Revalidate(b *testing.B) {
	fly := obdaBenchStack(b, obdaBenchGrid(42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fly.Graph.Invalidate()
		if _, err := fly.Graph.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// OBDA_Rebuild is an evaluation after the server re-published the
// product with other values and the window ran out: one fetch over
// loopback, then the relation, the mapping instantiation and the graph
// load.
func BenchmarkOBDA_Rebuild(b *testing.B) {
	grids := [2]*netcdf.Dataset{obdaBenchGrid(43), obdaBenchGrid(42)}
	fly := obdaBenchStack(b, grids[1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fly.Server.Publish(grids[i%2])
		fly.Adapter.InvalidateCaches()
		fly.Graph.Invalidate()
		if _, err := fly.Graph.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
