package e2e

// The compiled engine scans a virtual graph's view by reference: each
// pipeline step appends refs into the view's term table to a buffer it
// reuses, and pooled pipeline state keeps those buffers between
// evaluations. These tests pin the two things that must not change with
// it: a pooled buffer never keeps an old view alive, and an upstream
// outage still reads as an empty answer, counted and marked partial.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"weak"

	"applab/internal/core"
	"applab/internal/endpoint"
	"applab/internal/faults"
	"applab/internal/madis"
	"applab/internal/obda"
	"applab/internal/opendap"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
	"applab/internal/workload"
)

// viewTermHandle is a weak handle on the term table of vg's current
// view, made where no strong reference outlives the call.
//
//go:noinline
func viewTermHandle(t *testing.T, vg *obda.VirtualGraph) weak.Pointer[rdf.Term] {
	t.Helper()
	refs, err := vg.AppendRefs(context.Background(), nil, rdf.Term{}, rdf.Term{}, rdf.Term{})
	if err != nil || len(refs) == 0 {
		t.Fatalf("view scan: %d refs, %v", len(refs), err)
	}
	return weak.Make(refs[0].S)
}

// thingsQuery joins the contract data's two patterns.
const thingsQuery = `SELECT ?s ?n WHERE { ?s a <` + contractNS + `Thing> . ?s <` + contractNS + `name> ?n }`

// evalThings runs a two-pattern join over the view, whose steps fill
// their ref buffers from it, and drops the answer.
//
//go:noinline
func evalThings(t *testing.T, vg *obda.VirtualGraph) {
	t.Helper()
	res, err := sparql.Eval(vg, thingsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 10 {
		t.Fatalf("%d rows, want 10", len(res.Bindings))
	}
}

// TestPooledChunksPinNoView: once a rebuild replaced the view an
// evaluation scanned, one GC frees the old view's term table. sync.Pool
// keeps pooled chunks through the first GC (in its victim cache) and
// drops them at the second, so a chunk whose ref buffers still pointed
// into the old table would keep it alive past the first.
func TestPooledChunksPinNoView(t *testing.T) {
	db, table, mappings := thingsDB(t)
	vg := obda.NewVirtualGraph(db, mappings)
	old := viewTermHandle(t, vg)
	evalThings(t, vg)

	epoch := vg.DataEpoch()
	bumpThings(db, table)
	vg.Invalidate()
	if _, err := vg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if vg.DataEpoch() != epoch+1 {
		t.Fatalf("data epoch %d after the upstream change, want %d: the view was not rebuilt", vg.DataEpoch(), epoch+1)
	}
	for gc := 1; gc <= 2; gc++ {
		runtime.GC()
		if old.Value() != nil {
			t.Fatalf("the replaced view's term table survived GC %d: pooled engine state still points into it", gc)
		}
	}
}

// TestOnTheFlyOutageCountsScanError: with the OPeNDAP server down, an
// on-the-fly query still answers empty and partial, the scan that read
// the failure as empty is counted, and a caller that builds the view
// itself gets the error.
func TestOnTheFlyOutageCountsScanError(t *testing.T) {
	reg := telemetry.NewRegistry()
	sparql.SetMetrics(reg)
	defer sparql.SetMetrics(nil)

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	client := opendap.NewClient(dead.URL)
	client.MaxRetries = 0
	db := madis.NewDB()
	obda.NewOpendapAdapter(client).Register(db)
	mappings, err := obda.ParseMappings(core.Listing2Mapping)
	if err != nil {
		t.Fatal(err)
	}
	vg := obda.NewVirtualGraph(db, mappings)

	before := reg.Snapshot()
	res, err := sparql.Eval(vg, core.Listing3Query)
	if err != nil {
		t.Fatalf("an outage must read as an empty answer, got %v", err)
	}
	if len(res.Bindings) != 0 || !res.Partial {
		t.Fatalf("%d rows, partial %v with the server down; want 0, partial", len(res.Bindings), res.Partial)
	}
	if _, err := vg.SnapshotContext(context.Background()); err == nil {
		t.Error("a caller building the view itself gets no error during the outage")
	}
	wantCounters(t, "outage", before, reg.Snapshot(), map[string]int64{
		`sparql_scan_errors_total{path="ref"}`:      1,
		`sparql_scan_errors_total{path="context"}`:  0,
		`sparql_scan_errors_total{path="exchange"}`: 0,
	})
}

// TestOnTheFlyOutageAnswerNotCached: behind a caching endpoint with a
// window of 0, an OPeNDAP fetch whose every attempt fails answers 200,
// empty and marked partial, and is not cached: once the upstream is
// back, the next request misses and gets the full answer instead of a
// cached empty one.
func TestOnTheFlyOutageAnswerNotCached(t *testing.T) {
	reg := telemetry.NewRegistry()
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 4, 4, 2
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"
	dapSrv := opendap.NewServer()
	dapSrv.Publish(grid)
	dapHTTP := httptest.NewServer(dapSrv)
	defer dapHTTP.Close()

	stack := func(client *opendap.Client) *obda.VirtualGraph {
		db := madis.NewDB()
		obda.NewOpendapAdapter(client).Register(db)
		mappings, err := obda.ParseMappings(strings.Replace(core.Listing2Mapping, "lai/LAI/, 10", "lai/LAI/, 0", 1))
		if err != nil {
			t.Fatal(err)
		}
		return obda.NewVirtualGraph(db, mappings)
	}
	want, err := sparql.Eval(stack(opendap.NewClient(dapHTTP.URL)), core.Listing3Query)
	if err != nil || len(want.Bindings) == 0 || want.Partial {
		t.Fatalf("healthy oracle: %d rows, partial %v, err %v", len(want.Bindings), want != nil && want.Partial, err)
	}

	// The commands' resilience makes 4 attempts per fetch: all 4 fail.
	d := core.Defaults()
	client := opendap.NewClient(dapHTTP.URL)
	client.Timeout, client.MaxRetries = d.Timeout, d.Retries
	client.Breaker = opendap.NewBreaker(d.BreakerFailures, d.BreakerCooldown)
	client.HTTP = &http.Client{Transport: faults.NewRoundTripper(faults.FailN(4, faults.Step{Kind: faults.ConnError}), nil)}
	client.Sleep = func(time.Duration) {}
	cache := rescache.New(16, 0)
	cache.Metrics = reg
	srv := httptest.NewServer(endpoint.NewHandlerOpts(stack(client), reg, endpoint.Options{Cache: cache}))
	defer srv.Close()
	get := func() (*http.Response, []string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(core.Listing3Query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := listing3Rows(body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, rows
	}

	s0 := reg.Snapshot()
	resp, rows := get()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Applab-Partial") != "true" || len(rows) != 0 {
		t.Fatalf("outage: status %d, partial %q, %d rows; want 200, true, 0", resp.StatusCode, resp.Header.Get("X-Applab-Partial"), len(rows))
	}
	s1 := reg.Snapshot()
	wantCounters(t, "outage", s0, s1, map[string]int64{
		"endpoint_partial_total": 1,
		"rescache_misses_total":  1,
		"rescache_fills_total":   0,
	})
	resp, rows = get()
	if got := resp.Header.Get("X-Applab-Cache"); got != "miss" || resp.Header.Get("X-Applab-Partial") != "" {
		t.Fatalf("after the outage: cache %q, partial %q; want miss, not partial", got, resp.Header.Get("X-Applab-Partial"))
	}
	if !equalRows(rows, canonical(t, want)) {
		t.Fatalf("after the outage: %d rows, want the full answer of %d", len(rows), len(want.Bindings))
	}
	wantCounters(t, "recovered", s1, reg.Snapshot(), map[string]int64{
		"endpoint_partial_total": 0,
		"rescache_fills_total":   1,
	})
}

// firstTermHandle is a weak handle on the term a scan of rs meets
// first, made where no strong reference outlives the call.
//
//go:noinline
func firstTermHandle(t *testing.T, rs sparql.RefSource) weak.Pointer[rdf.Term] {
	t.Helper()
	return weak.Make(allRefs(t, rs)[0].S)
}

// cacheThings answers thingsQuery over src on a miss and fills the
// cache with it, as the endpoint does.
//
//go:noinline
func cacheThings(t *testing.T, c *rescache.Cache, src sparql.Source) {
	t.Helper()
	q, err := sparql.Parse(thingsQuery)
	if err != nil {
		t.Fatal(err)
	}
	_, fill, st := c.Lookup(q, src)
	if st != rescache.Miss {
		t.Fatalf("first lookup: %v, want miss", st)
	}
	res, err := q.Eval(src)
	if err != nil || len(res.Bindings) != 10 {
		t.Fatalf("%d rows, %v; want 10", len(res.Bindings), err)
	}
	fill.Store(res)
}

// TestCachedAnswerPinsNoSource: the rows the engine returns point at
// the terms where it found them, and the result cache detaches an
// answer before keeping it. So while the entry stays resident, one GC
// frees a view its source replaced and the run dictionaries a
// compaction retired, and the entry still reads the answer it stored.
func TestCachedAnswerPinsNoSource(t *testing.T) {
	t.Run("replaced view", func(t *testing.T) {
		db, table, mappings := thingsDB(t)
		vg := obda.NewVirtualGraph(db, mappings)
		old := firstTermHandle(t, vg)
		c := rescache.New(8, 0)
		cacheThings(t, c, vg)
		bumpThings(db, table)
		vg.Invalidate()
		if _, err := vg.Snapshot(); err != nil {
			t.Fatal(err)
		}
		checkCachedThings(t, c, vg, old)
	})
	t.Run("compacted runs", func(t *testing.T) {
		st, err := strabon.Open(t.TempDir(), segment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		data := contractTriples()
		st.AddAll(data)
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		old := firstTermHandle(t, st)
		c := rescache.New(8, 0)
		cacheThings(t, c, st)
		for i := range data {
			data[i].O = rdf.NewLiteral("rewritten")
		}
		st.AddAll(data)
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := st.Engine().Compact(); err != nil {
			t.Fatal(err)
		}
		checkCachedThings(t, c, st, old)
	})
}

// checkCachedThings collects garbage once and checks that old is gone
// while c still serves thingsQuery's first answer.
func checkCachedThings(t *testing.T, c *rescache.Cache, src sparql.Source, old weak.Pointer[rdf.Term]) {
	t.Helper()
	runtime.GC()
	if old.Value() != nil {
		t.Fatal("a replaced term table survived a GC: the cached answer still points into it")
	}
	res, ok := c.LookupStale(thingsQuery, src)
	if !ok || len(res.Bindings) != 10 {
		t.Fatalf("the cache lost the entry (%v)", ok)
	}
	var names []string
	for i := range res.Bindings {
		names = append(names, res.Binding(i)["n"].Value)
	}
	slices.Sort(names)
	if want := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9"}; !slices.Equal(names, want) {
		t.Fatalf("the cached answer reads %v, stored %v", names, want)
	}
}
