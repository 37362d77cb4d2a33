package e2e

// Result-cache golden suite: the three Figure-1 workflows (on-the-fly
// OBDA, materialized Strabon, federated) each run a repeated workload
// through the plan-keyed result cache with exact rescache_* counter
// deltas — one miss then N hits with zero upstream work at steady
// state — plus the invalidation-after-ingest cycle (hit → ingest →
// miss → hit). The federated stage proves the ROADMAP steady-state
// target: the repeated workload collapses from 2·nobs+1 upstream
// endpoint calls to exactly 0, and independently-cached sub-plan
// answers keep serving after the federated wrapper's own entry is
// dropped. A final stage drives the adaptive-materialization promoter
// end to end against the live OPeNDAP server. All timing runs on a
// fake clock; the background promotion is awaited with Quiesce.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"applab/internal/core"
	"applab/internal/endpoint"
	"applab/internal/faults"
	"applab/internal/federation"
	"applab/internal/madis"
	"applab/internal/obda"
	"applab/internal/opendap"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
	"applab/internal/workload"
)

// cacheGet runs the Listing 3 query against an endpoint and returns
// the X-Applab-Cache header plus the canonicalized (wkt, lai) rows.
func cacheGet(t *testing.T, base string) (string, []string) {
	t.Helper()
	resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(core.Listing3Query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	rows, err := listing3Rows(body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Header.Get("X-Applab-Cache"), rows
}

func TestGoldenResultCache(t *testing.T) {
	clk := faults.NewClock(time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC))
	reg := telemetry.NewRegistry()
	reg.Now = clk.Now
	sparql.SetMetrics(reg)
	defer sparql.SetMetrics(nil)

	// The shared LAI product; publishShift republishes it with every
	// positive cell moved by delta, simulating upstream ingest.
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 4, 4, 2
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"
	dapSrv := opendap.NewServer()
	dapSrv.Metrics = reg
	dapSrv.Publish(grid)
	dapHTTP := httptest.NewServer(dapSrv)
	defer dapHTTP.Close()
	publishShift := func(delta float64) {
		g := workload.LAIGrid(opts)
		g.Name = "lai"
		v, ok := g.Var("LAI")
		if !ok {
			t.Fatal("grid lacks LAI")
		}
		for i := range v.Data {
			if v.Data[i] > 0 {
				v.Data[i] += delta
			}
		}
		dapSrv.Publish(g)
	}

	// ---- Stage 1: on-the-fly workflow behind a cached endpoint. The
	// cache runs with TTL = the Listing 2 window, preserving the window
	// cache's freshness contract: the OPeNDAP generation counter only
	// moves when the virtual path actually refetches, so upstream
	// changes inside the window are (by design) invisible to both.
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
	vg.EpochFn = adapter.Generation
	flyCache := rescache.New(64, 10*time.Minute)
	flyCache.Now = clk.Now
	flyCache.Metrics = reg
	flySrv := httptest.NewServer(endpoint.NewHandlerOpts(vg, reg, endpoint.Options{Cache: flyCache}))
	defer flySrv.Close()

	s0 := reg.Snapshot()
	hdr, flyRows := cacheGet(t, flySrv.URL)
	if hdr != "miss" {
		t.Fatalf("fly cold header = %q, want miss", hdr)
	}
	nobs := int64(len(flyRows))
	if nobs != 31 {
		t.Fatalf("observation count = %d, want 31 (seeded grid changed?)", nobs)
	}
	s1 := reg.Snapshot()
	wantCounters(t, "fly cold", s0, s1, map[string]int64{
		"endpoint_requests_total":       1,
		"rescache_misses_total":         1,
		"rescache_fills_total":          1,
		"rescache_hits_total":           0,
		"obda_physical_fetches_total":   1,
		"opendap_server_requests_total": 1,
		"sparql_patterns_planned_total": 3,
	})

	// Steady state: N repeats are pure cache hits — no evaluation, no
	// planner, nothing on the wire to the OPeNDAP server.
	for i := 0; i < 5; i++ {
		hdr, rows := cacheGet(t, flySrv.URL)
		if hdr != "hit" {
			t.Fatalf("fly repeat %d header = %q, want hit", i, hdr)
		}
		if !equalRows(rows, flyRows) {
			t.Fatalf("fly repeat %d answered differently", i)
		}
	}
	s2 := reg.Snapshot()
	wantCounters(t, "fly steady", s1, s2, map[string]int64{
		"endpoint_requests_total":       5,
		"rescache_hits_total":           5,
		"rescache_misses_total":         0,
		"rescache_stale_total":          0,
		"rescache_fills_total":          0,
		"obda_physical_fetches_total":   0,
		"opendap_server_requests_total": 0,
		"sparql_patterns_planned_total": 0,
	})
	wantHistogram(t, "fly steady", s1, s2, `endpoint_stage_seconds{stage="eval"}`, 0)
	wantHistogram(t, "fly steady", s1, s2, `endpoint_stage_seconds{stage="encode"}`, 5)

	// Upstream ingest + window expiry: the entry goes stale, the next
	// query refetches and serves the new content, and the refreshed
	// entry hits again.
	publishShift(1)
	clk.Advance(11 * time.Minute)
	hdr, shiftedRows := cacheGet(t, flySrv.URL)
	if hdr != "miss" {
		t.Fatalf("fly post-ingest header = %q, want miss", hdr)
	}
	if equalRows(shiftedRows, flyRows) {
		t.Fatal("fly post-ingest answer did not pick up the upstream change")
	}
	s3 := reg.Snapshot()
	wantCounters(t, "fly post-ingest", s2, s3, map[string]int64{
		"rescache_stale_total":        1,
		"rescache_fills_total":        1,
		"obda_physical_fetches_total": 1,
	})
	hdr, rows := cacheGet(t, flySrv.URL)
	if hdr != "hit" || !equalRows(rows, shiftedRows) {
		t.Fatalf("fly refreshed entry did not hit: header=%q", hdr)
	}

	// ---- Stage 2: materialized workflow behind a cached endpoint,
	// epoch-validated (no TTL needed: the store reports every ingest).
	triples, err := workload.LAIGridToRDF(grid, "LAI")
	if err != nil {
		t.Fatal(err)
	}
	store := strabon.New()
	store.AddAll(triples)
	matCache := rescache.New(64, 0)
	matCache.Metrics = reg
	matSrv := httptest.NewServer(endpoint.NewHandlerOpts(store, reg, endpoint.Options{Cache: matCache}))
	defer matSrv.Close()

	s4 := reg.Snapshot()
	hdr, matRows := cacheGet(t, matSrv.URL)
	if hdr != "miss" {
		t.Fatalf("mat cold header = %q, want miss", hdr)
	}
	if !equalRows(matRows, flyRows) {
		t.Errorf("materialized workflow disagrees with the cold on-the-fly answer:\n  fly %v\n  mat %v", flyRows, matRows)
	}
	for i := 0; i < 5; i++ {
		if hdr, _ := cacheGet(t, matSrv.URL); hdr != "hit" {
			t.Fatalf("mat repeat %d header = %q, want hit", i, hdr)
		}
	}
	s5 := reg.Snapshot()
	wantCounters(t, "mat cold+steady", s4, s5, map[string]int64{
		"rescache_misses_total":         1,
		"rescache_hits_total":           5,
		"rescache_fills_total":          1,
		"sparql_patterns_planned_total": 3, // the cold evaluation only
	})

	// Invalidation-after-ingest: even a triple irrelevant to the query
	// moves the store epoch (epoch validation is conservative), so the
	// cycle is hit → ingest → miss → hit with an unchanged answer.
	store.Add(rdf.NewTriple(rdf.NewIRI("http://ex.org/x"),
		rdf.NewIRI("http://ex.org/p"), rdf.NewIRI("http://ex.org/y")))
	hdr, rows = cacheGet(t, matSrv.URL)
	if hdr != "miss" || !equalRows(rows, matRows) {
		t.Fatalf("mat post-ingest: header=%q, want miss with the same answer", hdr)
	}
	if hdr, _ = cacheGet(t, matSrv.URL); hdr != "hit" {
		t.Fatalf("mat refreshed header = %q, want hit", hdr)
	}
	s6 := reg.Snapshot()
	wantCounters(t, "mat invalidate", s5, s6, map[string]int64{
		"rescache_stale_total": 1,
		"rescache_fills_total": 1,
		"rescache_hits_total":  1,
	})

	// ---- Stage 3: federated workflow. The remote member's endpoint
	// carries its own sub-plan cache on a separate registry, so the two
	// cache populations are separately countable.
	epCacheReg := telemetry.NewRegistry()
	epCache := rescache.New(128, 0)
	epCache.Metrics = epCacheReg
	epHTTP := httptest.NewServer(endpoint.NewHandlerOpts(store, reg, endpoint.Options{Cache: epCache}))
	defer epHTTP.Close()
	fedCache := rescache.New(8, 0)
	fedCache.Metrics = reg
	fed := federation.New(federation.Member{Name: "local", Source: store})
	fed.Metrics = reg
	fed.Now = clk.Now
	fed.AddMember(federation.Member{Name: "remote1", Source: endpoint.NewRemoteSource(epHTTP.URL)})
	fed.Cache = fedCache

	fanouts := 2*nobs + 1
	s7 := reg.Snapshot()
	fedRes, report, err := fed.QueryPartial(core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	if report.Partial || report.Cached {
		t.Fatalf("cold federated report: %+v", report)
	}
	if int64(report.Patterns) != fanouts {
		t.Errorf("cold federated patterns = %d, want %d", report.Patterns, fanouts)
	}
	if !equalRows(canonical(t, fedRes), matRows) {
		t.Error("federated answer differs from the materialized one")
	}
	s8 := reg.Snapshot()
	wantCounters(t, "fed cold", s7, s8, map[string]int64{
		"federation_fanouts_total": fanouts,
		"endpoint_requests_total":  fanouts,
		"rescache_misses_total":    1, // the federation's own cache
		"rescache_fills_total":     1,
		// The outer query plans 3 patterns; each remote sub-query plans 1.
		"sparql_patterns_planned_total": 3 + fanouts,
	})
	epCold := epCacheReg.Snapshot()
	if got := epCold.Counters["rescache_misses_total"]; got != fanouts {
		t.Errorf("sub-plan cache misses = %d, want %d", got, fanouts)
	}

	// Steady state: the ROADMAP collapse. 2·nobs+1 upstream calls cold,
	// exactly zero on repeat — the whole-query entry answers.
	for i := 0; i < 3; i++ {
		res, rep, err := fed.QueryPartial(core.Listing3Query)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Cached || rep.Patterns != 0 {
			t.Fatalf("fed repeat %d: Cached=%v Patterns=%d, want cached with zero fan-outs", i, rep.Cached, rep.Patterns)
		}
		if !equalRows(canonical(t, res), matRows) {
			t.Fatalf("fed repeat %d answered differently", i)
		}
	}
	s9 := reg.Snapshot()
	wantCounters(t, "fed steady", s8, s9, map[string]int64{
		"federation_fanouts_total":      0,
		"endpoint_requests_total":       0,
		"rescache_hits_total":           3,
		"rescache_misses_total":         0,
		"sparql_patterns_planned_total": 0,
	})

	// Sub-plan independence: drop the federated wrapper's entry; the
	// re-evaluation fans out again, but every member sub-query is served
	// from the endpoint's own cache — requests arrive, evaluations don't.
	fedCache.Purge()
	res, rep, err := fed.QueryPartial(core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached || int64(rep.Patterns) != fanouts {
		t.Fatalf("post-purge report: %+v", rep)
	}
	if !equalRows(canonical(t, res), matRows) {
		t.Error("post-purge federated answer differs")
	}
	s10 := reg.Snapshot()
	wantCounters(t, "fed sub-plan", s9, s10, map[string]int64{
		"endpoint_requests_total":       fanouts,
		"rescache_misses_total":         1, // only the purged wrapper entry
		"rescache_fills_total":          1,
		"sparql_patterns_planned_total": 3, // sub-queries skip the planner
	})
	wantHistogram(t, "fed sub-plan", s9, s10, `endpoint_stage_seconds{stage="eval"}`, 0)
	wantHistogram(t, "fed sub-plan", s9, s10, `endpoint_stage_seconds{stage="parse"}`, fanouts)
	epWarm := epCacheReg.Snapshot()
	if got := epWarm.Counters["rescache_hits_total"] - epCold.Counters["rescache_hits_total"]; got != fanouts {
		t.Errorf("sub-plan cache hits = %d, want %d", got, fanouts)
	}
	if got := epWarm.Counters["rescache_misses_total"] - epCold.Counters["rescache_misses_total"]; got != 0 {
		t.Errorf("sub-plan cache misses moved by %d on the warm fan-out", got)
	}

	// ---- Stage 4: adaptive materialization against the live OPeNDAP
	// server: promote after 2 uses, serve locally with zero upstream
	// calls past the window, demote on upstream drift.
	client2 := opendap.NewClient(dapHTTP.URL)
	client2.Metrics = reg
	client2.Now = clk.Now
	adapter2 := obda.NewOpendapAdapter(client2)
	adapter2.Metrics = reg
	adapter2.Now = clk.Now
	db2 := madis.NewDB()
	adapter2.Register(db2)
	mappings2, err := obda.ParseMappings(core.Listing2Mapping)
	if err != nil {
		t.Fatal(err)
	}
	vg2 := obda.NewVirtualGraph(db2, mappings2)
	vg2.EpochFn = adapter2.Generation
	ag := obda.NewAdaptiveGraph(vg2, adapter2, 2, 30*time.Minute)
	ag.SetClock(clk.Now)
	ag.SetMetrics(reg)

	s11 := reg.Snapshot()
	agRes, err := ag.Query(core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	agRows := canonical(t, agRes)
	if len(agRows) != int(nobs) {
		t.Fatalf("adaptive cold rows = %d, want %d", len(agRows), nobs)
	}
	// Second use arrives outside a query (deterministic promotion: no
	// evaluation races the background snapshot).
	ag.Promoter().Note("lai/LAI?w=10")
	ag.Quiesce()
	if !ag.Promoted() {
		t.Fatal("not promoted after threshold")
	}
	s12 := reg.Snapshot()
	wantCounters(t, "adaptive promote", s11, s12, map[string]int64{
		"promotion_started_total":   1,
		"promotion_completed_total": 1,
		"promotion_failed_total":    0,
		// The cold query's single fetch; the promotion snapshot runs
		// inside the 10-minute window and is served by the window cache.
		// The promotion's baseline stamp is a raw (uncounted) server
		// request, hence 2 server requests for 1 physical fetch.
		"obda_physical_fetches_total":   1,
		"opendap_server_requests_total": 2,
	})
	if got := s12.Gauges["promotion_promoted_regions"]; got != 1 {
		t.Errorf("promotion_promoted_regions = %g, want 1", got)
	}

	// Steady state well past the window: local serving, zero upstream.
	clk.Advance(31 * time.Minute)
	for i := 0; i < 5; i++ {
		res, err := ag.Query(core.Listing3Query)
		if err != nil {
			t.Fatal(err)
		}
		if !equalRows(canonical(t, res), agRows) {
			t.Fatalf("promoted repeat %d answered differently", i)
		}
	}
	s13 := reg.Snapshot()
	wantCounters(t, "adaptive steady", s12, s13, map[string]int64{
		"obda_physical_fetches_total":   0,
		"promotion_revalidations_total": 1, // the due, unchanged check
		"promotion_demotions_total":     0,
		// The revalidation stamp is the only thing on the wire: one
		// lightweight server request, zero data fetches, for 5 queries.
		"opendap_server_requests_total": 1,
	})

	// Upstream drift: the next due revalidation demotes, the next query
	// goes back to the virtual path and refetches the new content.
	publishShift(2)
	clk.Advance(31 * time.Minute)
	if ag.Promoted() {
		t.Fatal("still promoted after upstream drift")
	}
	postRes, err := ag.Query(core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	if equalRows(canonical(t, postRes), agRows) {
		t.Fatal("post-demotion answer is stale")
	}
	s14 := reg.Snapshot()
	wantCounters(t, "adaptive demote", s13, s14, map[string]int64{
		"promotion_demotions_total":     1,
		"promotion_revalidations_total": 1,
		"obda_physical_fetches_total":   1,
	})
	if got := s14.Gauges["promotion_promoted_regions"]; got != 0 {
		t.Errorf("promotion_promoted_regions = %g, want 0", got)
	}
}
