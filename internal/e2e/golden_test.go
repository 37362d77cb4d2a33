package e2e

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"applab/internal/core"
	"applab/internal/endpoint"
	"applab/internal/faults"
	"applab/internal/federation"
	"applab/internal/geom"
	"applab/internal/geosparql"
	"applab/internal/madis"
	"applab/internal/obda"
	"applab/internal/opendap"
	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
	"applab/internal/workload"
)

// canonical reduces results to a sorted, workflow-independent form: the
// (wkt, lai) observation set. Subject IRIs differ between the converter
// (lai:obs/t/y/x) and the virtual table (lai:obs_lon_lat_ts) by design,
// so equality is over what the paper's Listing 3 actually observes.
func canonical(t *testing.T, res *sparql.Results) []string {
	t.Helper()
	rows := make([]string, 0, len(res.Bindings))
	for i := range res.Bindings {
		b := res.Binding(i)
		lai, ok := b["lai"].Float()
		if !ok {
			t.Fatalf("non-numeric lai binding: %v", b["lai"])
		}
		rows = append(rows, fmt.Sprintf("%s|%g", b["wkt"].Value, lai))
	}
	sort.Strings(rows)
	return rows
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// counterDelta returns after[name] - before[name]; absent series are 0.
func counterDelta(before, after telemetry.Snapshot, series string) int64 {
	return after.Counters[series] - before.Counters[series]
}

// wantCounters asserts a set of exact counter deltas between snapshots.
func wantCounters(t *testing.T, stage string, before, after telemetry.Snapshot, want map[string]int64) {
	t.Helper()
	for series, n := range want {
		if got := counterDelta(before, after, series); got != n {
			t.Errorf("%s: %s delta = %d, want %d", stage, series, got, n)
		}
	}
}

// wantNoScanErrors asserts that no scan in the registry's lifetime read
// an error as an empty answer (sparql_scan_errors_total, any path): a
// healthy workflow drops none.
func wantNoScanErrors(t *testing.T, snap telemetry.Snapshot) {
	t.Helper()
	for series, n := range snap.Counters {
		if strings.HasPrefix(series, "sparql_scan_errors_total") && n != 0 {
			t.Errorf("%s = %d, want 0", series, n)
		}
	}
}

// wantHistogram asserts a histogram's exact observation-count delta and
// that its sum never moved — the fake clock proof.
func wantHistogram(t *testing.T, stage string, before, after telemetry.Snapshot, series string, wantCount int64) {
	t.Helper()
	b, a := before.Histograms[series], after.Histograms[series]
	if got := a.Count - b.Count; got != wantCount {
		t.Errorf("%s: histogram %s count delta = %d, want %d", stage, series, got, wantCount)
	}
	if a.Sum != b.Sum {
		t.Errorf("%s: histogram %s sum moved by %g; fake clock must keep it at zero", stage, series, a.Sum-b.Sum)
	}
}

// TestGoldenWorkflows runs the paper's Listing 3 query through both
// Figure-1 workflows against the same LAI product and asserts that (a)
// the canonicalized answers are identical and (b) the shared telemetry
// registry records exactly the expected counters at every stage: one
// physical OPeNDAP fetch then a cache hit, one fan-out per pattern with
// one request per federation member, and zero-sum latency histograms
// under the fake clock.
func TestGoldenWorkflows(t *testing.T) {
	clk := faults.NewClock(time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC))
	reg := telemetry.NewRegistry()
	reg.Now = clk.Now
	sparql.SetMetrics(reg)
	defer sparql.SetMetrics(nil)

	// The shared product: a small synthetic LAI grid.
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 4, 4, 2
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"

	// Boot the OPeNDAP server (the paper's VITO deployment) on loopback.
	dapSrv := opendap.NewServer()
	dapSrv.Metrics = reg
	dapSrv.Publish(grid)
	dapHTTP := httptest.NewServer(dapSrv)
	defer dapHTTP.Close()

	// On-the-fly stack: client -> MadIS opendap adapter -> virtual graph.
	client := opendap.NewClient(dapHTTP.URL)
	client.Metrics = reg
	client.Now = clk.Now
	adapter := obda.NewOpendapAdapter(client)
	adapter.Metrics = reg
	adapter.Now = clk.Now
	db := madis.NewDB()
	adapter.Register(db)
	mappings, err := obda.ParseMappings(core.Listing2Mapping)
	if err != nil {
		t.Fatal(err)
	}
	vg := obda.NewVirtualGraph(db, mappings)

	// Stage 1: first on-the-fly query — a cache miss and one physical
	// fetch reaching the OPeNDAP server.
	s0 := reg.Snapshot()
	flyRes, err := vg.Query(core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(flyRes.Bindings) == 0 {
		t.Fatal("on-the-fly workflow returned nothing")
	}
	s1 := reg.Snapshot()
	wantCounters(t, "fly cold", s0, s1, map[string]int64{
		"opendap_cache_misses_total":                         1,
		"opendap_cache_hits_total":                           0,
		"opendap_cache_stale_total":                          0,
		"obda_physical_fetches_total":                        1,
		"opendap_server_requests_total":                      1,
		"opendap_retries_total":                              0,
		"opendap_request_errors_total":                       0,
		"sparql_patterns_planned_total":                      3,
		`sparql_join_strategy_total{strategy="cross"}`:       1,
		`sparql_join_strategy_total{strategy="nested_loop"}`: 2,
		`sparql_join_strategy_total{strategy="hash"}`:        0,
	})
	// 4x4x2 grid with the Listing 2 "LAI > 0" cleaning filter: the seed
	// leaves 31 positive observations. Everything downstream is derived
	// from this count, so pin it.
	nobs := int64(len(flyRes.Bindings))
	if nobs != 31 {
		t.Fatalf("observation count = %d, want 31 (seeded grid changed?)", nobs)
	}
	wantHistogram(t, "fly cold", s0, s1, "opendap_fetch_seconds", 1)

	// Stage 2: second query inside the 10-minute Listing 2 window — a
	// cache hit, nothing reaches the server.
	flyRes2, err := vg.Query(core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	s2 := reg.Snapshot()
	wantCounters(t, "fly warm", s1, s2, map[string]int64{
		"opendap_cache_misses_total":                         0,
		"opendap_cache_hits_total":                           1,
		"obda_physical_fetches_total":                        0,
		"opendap_server_requests_total":                      0,
		"sparql_patterns_planned_total":                      3,
		`sparql_join_strategy_total{strategy="cross"}`:       1,
		`sparql_join_strategy_total{strategy="nested_loop"}`: 2,
	})
	wantHistogram(t, "fly warm", s1, s2, "opendap_fetch_seconds", 0)
	if !equalRows(canonical(t, flyRes), canonical(t, flyRes2)) {
		t.Error("cached on-the-fly query answered differently from the cold one")
	}

	// Stage 3: materialized workflow — the same grid through the
	// GeoTriples-style converter into Strabon.
	triples, err := workload.LAIGridToRDF(grid, "LAI")
	if err != nil {
		t.Fatal(err)
	}
	store := strabon.New()
	store.AddAll(triples)
	store.RegisterMetrics(reg)
	matRes, err := store.Query(core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	s3 := reg.Snapshot()
	wantCounters(t, "materialized", s2, s3, map[string]int64{
		"sparql_patterns_planned_total":                      3,
		`sparql_join_strategy_total{strategy="cross"}`:       1,
		`sparql_join_strategy_total{strategy="nested_loop"}`: 2,
	})
	if got := s3.Gauges["strabon_triples"]; got != float64(len(triples)) {
		t.Errorf("strabon_triples = %g, want %d", got, len(triples))
	}
	if !equalRows(canonical(t, flyRes), canonical(t, matRes)) {
		t.Errorf("workflows disagree:\n  on-the-fly  %v\n  materialized %v",
			canonical(t, flyRes), canonical(t, matRes))
	}

	// Stage 4: federated query — the materialized store as the local
	// member plus a live SPARQL endpoint over the same data as the
	// remote member (the paper's §5 shape). Every pattern fan-out issues
	// exactly one request per member; dedup keeps the answer identical.
	// A remote-backed federation evaluates sequentially with per-row
	// rebinding, so the 3-pattern Listing 3 becomes 1 fan-out for the
	// first pattern plus one per observation for each of the other two:
	// 2*nobs+1 fan-outs in total.
	epHTTP := httptest.NewServer(endpoint.NewHandler(store, reg))
	defer epHTTP.Close()
	fed := federation.New(federation.Member{Name: "local", Source: store})
	fed.Metrics = reg
	fed.Now = clk.Now
	fed.AddMember(federation.Member{Name: "remote1", Source: endpoint.NewRemoteSource(epHTTP.URL)})

	fedRes, report, err := fed.QueryPartial(core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	if report.Partial {
		t.Fatalf("federated query reported partial results: %+v", report)
	}
	fanouts := 2*nobs + 1
	if int64(report.Patterns) != fanouts {
		t.Errorf("federated query patterns = %d, want %d", report.Patterns, fanouts)
	}
	s4 := reg.Snapshot()
	wantCounters(t, "federated", s3, s4, map[string]int64{
		"federation_fanouts_total":                           fanouts,
		"federation_partial_total":                           0,
		`federation_member_requests_total{member="local"}`:   fanouts,
		`federation_member_requests_total{member="remote1"}`: fanouts,
		`federation_member_failures_total{member="local"}`:   0,
		`federation_member_failures_total{member="remote1"}`: 0,
		`federation_member_skips_total{member="remote1"}`:    0,
		`federation_demotions_total{member="remote1"}`:       0,
		// The remote member's endpoint served one request per fan-out.
		"endpoint_requests_total": fanouts,
		"endpoint_errors_total":   0,
		// 3 patterns planned for the federated Listing 3 itself + 1 for
		// each single-pattern SELECT the endpoint evaluated remotely.
		"sparql_patterns_planned_total": 3 + fanouts,
		// Each remote single-pattern SELECT joins once against the unit
		// row ("cross"), as does the federated query's first pattern;
		// its other two patterns run the sequential nested loop.
		`sparql_join_strategy_total{strategy="cross"}`:       fanouts + 1,
		`sparql_join_strategy_total{strategy="nested_loop"}`: 2,
	})
	wantHistogram(t, "federated", s3, s4, `federation_member_seconds{member="local"}`, fanouts)
	wantHistogram(t, "federated", s3, s4, `federation_member_seconds{member="remote1"}`, fanouts)
	wantHistogram(t, "federated", s3, s4, `endpoint_stage_seconds{stage="parse"}`, fanouts)
	wantHistogram(t, "federated", s3, s4, `endpoint_stage_seconds{stage="eval"}`, fanouts)
	wantHistogram(t, "federated", s3, s4, `endpoint_stage_seconds{stage="encode"}`, fanouts)
	if !equalRows(canonical(t, fedRes), canonical(t, matRes)) {
		t.Error("federated query answered differently from the local store")
	}

	// The endpoint traced every remote pattern query: parse/eval/encode
	// spans, all zero seconds under the fake clock. The ring keeps the
	// 16 most recent traces of the 2*nobs+1 recorded.
	traces := reg.RecentTraces()
	if len(traces) != 16 {
		t.Errorf("recent traces = %d, want the full ring of 16", len(traces))
	}
	for _, tr := range traces {
		if tr.Name != "sparql_query" {
			t.Errorf("unexpected trace %q in the ring", tr.Name)
			continue
		}
		if len(tr.Spans) != 3 {
			t.Errorf("trace has %d spans, want 3 (parse/eval/encode): %+v", len(tr.Spans), tr)
			continue
		}
		for _, sp := range tr.Spans {
			if sp.Seconds != 0 {
				t.Errorf("span %s took %g s; fake clock must make it 0", sp.Name, sp.Seconds)
			}
		}
	}

	// The full registry renders: the join-strategy counters recorded by
	// the compiled engine across all stages are visible in the
	// Prometheus text, and every histogram carries a zero sum.
	text := reg.RenderText()
	for _, series := range []string{
		"opendap_fetch_seconds_count 1",
		"opendap_cache_hits_total 1",
		"opendap_cache_misses_total 1",
		"strabon_triples",
		"sparql_join_strategy_total{strategy=",
		`federation_member_seconds_sum{member="remote1"} 0`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("rendered metrics missing %q", series)
		}
	}
	wantNoScanErrors(t, s4)
	t.Logf("final snapshot counters: %v", s4.Counters)
}

// TestGoldenSpatialJoin pins the spatial-join operator's telemetry the
// way TestGoldenWorkflows pins the engine's: a tiny deterministic store
// where the strategy the planner picks for each query shape, the counter
// deltas and the probe count are exact, and every answer is the seed
// evaluator's.
func TestGoldenSpatialJoin(t *testing.T) {
	reg := telemetry.NewRegistry()
	sparql.SetMetrics(reg)
	geosparql.SetMetrics(reg)
	t.Cleanup(func() {
		sparql.SetMetrics(nil)
		geosparql.SetMetrics(nil)
	})

	// 3 unit-square regions along the x axis; 3 places inside them plus
	// one far away. Every IRI and coordinate is pinned, so the join
	// produces exactly 3 pairs and the probe side is exactly the 4 places.
	placeKind := rdf.NewIRI("http://ex.org/placeKind")
	regionKind := rdf.NewIRI("http://ex.org/regionKind")
	hasGeom := rdf.NewIRI(geosparql.HasGeometry)
	asWKT := rdf.NewIRI(geosparql.AsWKT)
	var triples []rdf.Triple
	for i, p := range []geom.Point{{X: 0.5, Y: 0.5}, {X: 2.5, Y: 0.5}, {X: 4.5, Y: 0.5}, {X: 9, Y: 9}} {
		f := rdf.NewIRI(fmt.Sprintf("http://ex.org/place%d", i))
		gn := rdf.NewIRI(fmt.Sprintf("http://ex.org/place%d/geom", i))
		triples = append(triples,
			rdf.NewTriple(f, placeKind, rdf.NewLiteral("poi")),
			rdf.NewTriple(f, hasGeom, gn),
			rdf.NewTriple(gn, asWKT, rdf.NewWKT(geom.NewPoint(p.X, p.Y).WKT())))
	}
	for i := 0; i < 3; i++ {
		x := float64(2 * i)
		f := rdf.NewIRI(fmt.Sprintf("http://ex.org/region%d", i))
		gn := rdf.NewIRI(fmt.Sprintf("http://ex.org/region%d/geom", i))
		triples = append(triples,
			rdf.NewTriple(f, regionKind, rdf.NewLiteral("zone")),
			rdf.NewTriple(f, hasGeom, gn),
			rdf.NewTriple(gn, asWKT, rdf.NewWKT(geom.NewRect(x, 0, x+1, 1).WKT())))
	}
	store := strabon.New()
	store.AddAll(triples)
	defer store.Close()

	genericQ := `SELECT ?a ?b WHERE {
  ?a <http://ex.org/placeKind> ?ka .
  ?a geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?b <http://ex.org/regionKind> ?kb .
  ?b geo:hasGeometry ?gb .
  ?gb geo:asWKT ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb))
}`
	// The bare geo:asWKT build side is the store-pushdown shape the
	// planner routes to the store's own R-tree.
	storeQ := `SELECT ?a ?gb WHERE {
  ?a <http://ex.org/placeKind> ?ka .
  ?a geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?gb geo:asWKT ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb))
}`
	pairs := func(t *testing.T, res *sparql.Results, va, vb string) []string {
		t.Helper()
		rows := make([]string, 0, len(res.Bindings))
		for i := range res.Bindings {
			b := res.Binding(i)
			rows = append(rows, b[va].Value+"|"+b[vb].Value)
		}
		sort.Strings(rows)
		return rows
	}

	// Baseline: the seed evaluator runs no spatial join and must not touch
	// the join counters.
	s0 := reg.Snapshot()
	seed := func(query string) *sparql.Results {
		t.Helper()
		q, err := sparql.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.EvalSeed(store)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	baseGeneric, baseStore := seed(genericQ), seed(storeQ)
	if len(baseGeneric.Bindings) != 3 {
		t.Fatalf("seed generic join = %d rows, want 3", len(baseGeneric.Bindings))
	}
	s1 := reg.Snapshot()
	wantCounters(t, "seed", s0, s1, map[string]int64{
		`spatial_join_total{strategy="inl"}`:   0,
		`spatial_join_total{strategy="store"}`: 0,
		"spatial_index_probes_total":           0,
	})

	// The planner takes the R-tree for the generic query (3 build rows)
	// and the store's own index for the bare geo:asWKT build side. Each
	// drives exactly the 4 place geometries through a candidate index.
	inlRes, err := store.Query(genericQ)
	if err != nil {
		t.Fatal(err)
	}
	storeRes, err := store.Query(storeQ)
	if err != nil {
		t.Fatal(err)
	}
	s2 := reg.Snapshot()
	wantCounters(t, "spatial joins", s1, s2, map[string]int64{
		`spatial_join_total{strategy="inl"}`:   1,
		`spatial_join_total{strategy="store"}`: 1,
		"spatial_index_probes_total":           8,
	})
	if got := s2.Gauges["spatial_arena_bytes"]; got <= 0 {
		t.Errorf("spatial_arena_bytes = %g, want > 0", got)
	}

	if !equalRows(pairs(t, baseGeneric, "a", "b"), pairs(t, inlRes, "a", "b")) {
		t.Error("inl strategy diverged from the seed evaluator")
	}
	if !equalRows(pairs(t, baseStore, "a", "gb"), pairs(t, storeRes, "a", "gb")) {
		t.Error("store pushdown diverged from the seed evaluator")
	}
	wantNoScanErrors(t, reg.Snapshot())
}
