package obda

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"applab/internal/faults"
	"applab/internal/madis"
	"applab/internal/netcdf"
	"applab/internal/opendap"
	"applab/internal/rdf"
	"applab/internal/telemetry"
)

// viewCounts reads the rebuild and reuse counters of a virtual graph.
func viewCounts(vg *VirtualGraph) (rebuilds, reuses int64) {
	c := vg.Metrics.Snapshot().Counters
	return c["obda_view_rebuilds_total"], c["obda_view_reuses_total"]
}

// wantView runs one evaluation (Invalidate + Snapshot) and checks what
// the revalidation came to.
func wantView(t *testing.T, vg *VirtualGraph, step string, wantRebuilds, wantReuses int64) *rdf.Graph {
	t.Helper()
	vg.Invalidate()
	g, err := vg.Snapshot()
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if rebuilds, reuses := viewCounts(vg); rebuilds != wantRebuilds || reuses != wantReuses {
		t.Fatalf("%s: %d rebuilds, %d reuses; want %d, %d", step, rebuilds, reuses, wantRebuilds, wantReuses)
	}
	return g
}

// laiGraph is a virtual graph of Listing 2 over laiServer's fixture, on a
// fake clock the caller steps. The graph and the adapter share a registry.
func laiGraph(t *testing.T) (*VirtualGraph, *OpendapAdapter, *opendap.Server, *time.Time) {
	t.Helper()
	db, adapter, srv, closeFn := laiServer(t, 0)
	t.Cleanup(closeFn)
	clock := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	adapter.Now = func() time.Time { return clock }
	ms, err := ParseMappings(listing2)
	if err != nil {
		t.Fatal(err)
	}
	vg := NewVirtualGraph(db, ms)
	vg.Metrics = telemetry.NewRegistry()
	adapter.Metrics = vg.Metrics
	return vg, adapter, srv, &clock
}

// A product re-published with the same values on a shifted time axis is
// another grid: the region derives another table and the view is
// rebuilt with the new timestamps. Re-published unchanged, it is not.
func TestShiftedTimeAxisIsAnotherGrid(t *testing.T) {
	vg, adapter, srv, clock := laiGraph(t)
	args := []string{"lai/LAI/", "10"}
	table := func() *madis.Table {
		t.Helper()
		tb, err := adapter.Table(context.Background(), args)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}

	g1 := wantView(t, vg, "cold", 1, 0)
	t1 := table()

	// Same content, fetched again after the window: a new dataset
	// pointer, the same grid.
	srv.Publish(laiFixture(t))
	*clock = clock.Add(11 * time.Minute)
	if g := wantView(t, vg, "republished unchanged", 1, 1); g != g1 {
		t.Fatal("an unchanged grid must re-publish the same view")
	}
	if table() != t1 {
		t.Fatal("an unchanged grid derived another table")
	}

	for name, edit := range map[string]func(*netcdf.Dataset){
		"time axis":  func(d *netcdf.Dataset) { v, _ := d.Var("time"); v.Data[1] = 20 },
		"time units": func(d *netcdf.Dataset) { v, _ := d.Var("time"); v.Attrs["units"] = "days since 2018-07-01" },
		"lat axis":   func(d *netcdf.Dataset) { v, _ := d.Var("lat"); v.Data[0] = 48.84 },
		"lon axis":   func(d *netcdf.Dataset) { v, _ := d.Var("lon"); v.Data[2] = 2.28 },
	} {
		d := laiFixture(t)
		edit(d)
		srv.Publish(d)
		*clock = clock.Add(11 * time.Minute)
		before, _ := viewCounts(vg)
		g := wantView(t, vg, name, before+1, 1)
		if g == g1 {
			t.Fatalf("%s: the old view was served", name)
		}
		if table() == t1 {
			t.Errorf("%s: a changed grid kept the region's table", name)
		}
	}
	// The shifted time axis reached the triples.
	d := laiFixture(t)
	tv, _ := d.Var("time")
	tv.Data[1] = 20
	srv.Publish(d)
	*clock = clock.Add(11 * time.Minute)
	vg.Invalidate()
	hasTime := rdf.NewIRI(rdf.NSTime + "hasTime")
	shifted := rdf.NewTypedLiteral("2018-06-21T00:00:00Z", rdf.NSXSD+"dateTime")
	if got := vg.Match(rdf.Term{}, hasTime, shifted); len(got) == 0 {
		t.Fatal("no observation carries the shifted timestamp")
	}
}

// Good view, then the upstream goes down: every entry point reports the
// outage and none serves a triple of the previous view. When it comes
// back with the same content the view is published again, not rebuilt.
func TestOutageServesNothingThenRevalidates(t *testing.T) {
	vg, adapter, _, clock := laiGraph(t)
	g1 := wantView(t, vg, "cold", 1, 0)

	*clock = clock.Add(11 * time.Minute) // window expired: the fetch is physical
	script := faults.FailN(3, faults.Step{Kind: faults.ConnError})
	adapter.client.HTTP = &http.Client{Transport: faults.NewRoundTripper(script, nil)}
	vg.Invalidate()
	if _, err := vg.MatchErr(rdf.Term{}, laiPred, rdf.Term{}); err == nil || !strings.Contains(err.Error(), "obda: mapping opendap_mapping") {
		t.Fatalf("MatchErr during the outage: %v", err)
	}
	if _, err := vg.MatchContext(context.Background(), rdf.Term{}, laiPred, rdf.Term{}); err == nil {
		t.Fatal("MatchContext served during the outage")
	}
	if got := vg.Match(rdf.Term{}, laiPred, rdf.Term{}); got != nil {
		t.Fatalf("Match served %d triples of the previous view", len(got))
	}
	if vg.Cardinality(rdf.Term{}, laiPred, rdf.Term{}) != -1 {
		t.Fatal("a failed revalidation published a view")
	}
	if script.Remaining() != 0 {
		t.Fatalf("%d scripted failures unused", script.Remaining())
	}

	// Upstream back, content unchanged. No Invalidate: a failed
	// revalidation leaves the view stale.
	got, err := vg.MatchErr(rdf.Term{}, laiPred, rdf.Term{})
	if err != nil || len(got) != 13 {
		t.Fatalf("recovered MatchErr = %d triples, %v", len(got), err)
	}
	if g, _ := vg.Snapshot(); g != g1 {
		t.Fatal("recovery over unchanged content must re-publish the same view")
	}
	if rebuilds, reuses := viewCounts(vg); rebuilds != 1 || reuses != 1 {
		t.Fatalf("%d rebuilds, %d reuses; want 1, 1", rebuilds, reuses)
	}
}

// In ServeStale mode a failed fetch of an expired window serves the
// region's table, so the view is reused.
func TestServeStaleReusesSlot(t *testing.T) {
	vg, adapter, _, clock := laiGraph(t)
	adapter.ServeStale = true

	g1 := wantView(t, vg, "cold", 1, 0)
	t1, err := adapter.Table(context.Background(), []string{"lai/LAI/", "10"})
	if err != nil {
		t.Fatal(err)
	}
	*clock = clock.Add(11 * time.Minute)
	adapter.client.HTTP = &http.Client{Transport: faults.NewRoundTripper(
		faults.FailN(2, faults.Step{Kind: faults.ConnError}), nil)}
	if g := wantView(t, vg, "stale", 1, 1); g != g1 {
		t.Fatal("the stale copy must re-publish the same view")
	}
	if t2, err := adapter.Table(context.Background(), []string{"lai/LAI/", "10"}); err != nil || t2 != t1 {
		t.Fatalf("the stale serve is not the region's table (%v)", err)
	}
	if stale := vg.Metrics.Snapshot().Counters["opendap_cache_stale_total"]; stale != 2 {
		t.Fatalf("stale serves = %d, want 2", stale)
	}
}

// An evaluation aborted between two mapping sources is not a source
// failure: nothing is recorded, nothing is published, and the next
// evaluation starts over at the first mapping.
func TestAbortBetweenSourcesPublishesNothing(t *testing.T) {
	db := madis.NewDB()
	calls := map[string]int{}
	var cancel context.CancelFunc
	db.RegisterVirtualTable("counter", func(_ context.Context, args []string) (*madis.Table, error) {
		calls[args[0]]++
		if args[0] == "a" && cancel != nil {
			cancel()
		}
		return &madis.Table{Name: "counter", Cols: []string{"id"}, Rows: []madis.Row{{args[0]}}}, nil
	})
	ms, err := ParseMappings(`
mappingId	a
target		osm:{id} a osm:Thing .
source		SELECT id FROM (counter a)

mappingId	b
target		osm:{id} a osm:Thing .
source		SELECT id FROM (counter b)
`)
	if err != nil {
		t.Fatal(err)
	}
	vg := NewVirtualGraph(db, ms)
	vg.Metrics = telemetry.NewRegistry()
	if g := wantView(t, vg, "cold", 1, 0); g.Len() != 2 {
		t.Fatalf("view = %d triples", g.Len())
	}

	var ctx context.Context
	ctx, cancel = context.WithCancel(context.Background())
	vg.Invalidate()
	if _, err := vg.MatchContext(ctx, rdf.Term{}, rdf.Term{}, rdf.Term{}); err != context.Canceled {
		t.Fatalf("aborted evaluation: err = %v", err)
	}
	if calls["a"] != 2 || calls["b"] != 1 {
		t.Fatalf("abort must stop before the second source: %v", calls)
	}
	if vg.Cardinality(rdf.Term{}, rdf.Term{}, rdf.Term{}) != -1 {
		t.Fatal("an aborted revalidation published a view")
	}
	cancel = nil
	// The virtual tables returned fresh relations, so this one rebuilds.
	wantView(t, vg, "after abort", 2, 0)
	if calls["a"] != 3 || calls["b"] != 2 {
		t.Fatalf("the next evaluation must revalidate from the first mapping: %v", calls)
	}
}

// Stored-table mappings: the registered pointer is the identity, so an
// untouched table reuses the view and CreateTable replacing one rebuilds.
func TestStoredTableReplacementRebuilds(t *testing.T) {
	db := madis.NewDB()
	db.CreateTable(&madis.Table{Name: "things", Cols: []string{"id"}, Rows: []madis.Row{{"x"}}})
	db.CreateTable(&madis.Table{Name: "others", Cols: []string{"id"}, Rows: []madis.Row{{"o"}}})
	ms, err := ParseMappings(`
mappingId	things
target		osm:{id} a osm:Thing .
source		SELECT id FROM things

mappingId	others
target		osm:{id} a osm:Other .
source		SELECT id FROM others
`)
	if err != nil {
		t.Fatal(err)
	}
	vg := NewVirtualGraph(db, ms)
	vg.Metrics = telemetry.NewRegistry()
	g1 := wantView(t, vg, "cold", 1, 0)
	if g := wantView(t, vg, "untouched", 1, 1); g != g1 {
		t.Fatal("untouched tables must re-publish the same view")
	}
	db.CreateTable(&madis.Table{Name: "things", Cols: []string{"id"}, Rows: []madis.Row{{"x"}, {"y"}}})
	g2 := wantView(t, vg, "replaced", 2, 1)
	if g2 == g1 || g2.Len() != 3 {
		t.Fatalf("replaced table: same view = %v, %d triples", g2 == g1, g2.Len())
	}
	if g := wantView(t, vg, "untouched again", 2, 2); g != g2 {
		t.Fatal("the rebuilt view must be the one re-published")
	}
}

// TestRevalidateAllocations pins what an evaluation over unchanged
// sources costs (ci.sh runs it): three Listing-2 mappings inside their
// windows re-publish the same view from the same relations — no
// rdf.Triple, no madis.Row — in under 1 KiB.
func TestRevalidateAllocations(t *testing.T) {
	db, adapter, srv, closeFn := laiServer(t, 0)
	defer closeFn()
	var doc strings.Builder
	for _, name := range []string{"lai", "ndvi", "ba300"} {
		d := laiFixture(t)
		d.Name = name
		srv.Publish(d)
		doc.WriteString(strings.NewReplacer("opendap_mapping", name, "url:lai/", "url:"+name+"/").Replace(listing2))
	}
	ms, err := ParseMappings(doc.String())
	if err != nil || len(ms) != 3 {
		t.Fatalf("%d mappings, %v", len(ms), err)
	}
	vg := NewVirtualGraph(db, ms)
	g1, err := vg.Snapshot()
	if err != nil || g1.Len() == 0 {
		t.Fatalf("cold view: %v", err)
	}
	bases := append([]*madis.Table(nil), vg.bases...)

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		vg.Invalidate()
		if g, err := vg.Snapshot(); err != nil || g != g1 {
			t.Fatalf("revalidation %d: same view = %v, %v", i, g == g1, err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B, %d mallocs per revalidation", per, (after.Mallocs-before.Mallocs)/runs)
	if per >= 1<<10 {
		t.Errorf("revalidation allocates %d B, ceiling 1024", per)
	}
	for i, b := range vg.bases {
		if b != bases[i] {
			t.Errorf("mapping %d: source relation was derived again", i)
		}
	}
	if adapter.PhysicalCalls() != 3 {
		t.Errorf("physical fetches = %d, want 3 (inside the windows)", adapter.PhysicalCalls())
	}
}

// An expired window revalidates with the region's validator: the 304
// keeps the region's dataset and table and restarts the window, and is
// still a fetch that reached the server. After InvalidateCaches the
// fetch is unconditional, and a server that sends no validator gets
// unconditional fetches whose equal grids keep the table too.
func TestNotModifiedKeepsTable(t *testing.T) {
	_, adapter, srv, closeFn := laiServer(t, 0)
	defer closeFn()
	reg := telemetry.NewRegistry()
	adapter.Metrics, adapter.client.Metrics = reg, reg
	clock := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	adapter.Now = func() time.Time { return clock }
	args := []string{"lai/LAI/", "10"}
	table := func(step string) *madis.Table {
		t.Helper()
		tb, err := adapter.Table(context.Background(), args)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return tb
	}
	counts := func() (notModified, misses, hits int64) {
		c := reg.Snapshot().Counters
		return c["opendap_not_modified_total"], c["opendap_cache_misses_total"], c["opendap_cache_hits_total"]
	}
	want := func(step string, calls, notModified, misses, hits int64) {
		t.Helper()
		if got := adapter.PhysicalCalls(); got != calls {
			t.Fatalf("%s: %d physical calls, want %d", step, got, calls)
		}
		if n, m, h := counts(); n != notModified || m != misses || h != hits {
			t.Fatalf("%s: %d not modified, %d misses, %d hits; want %d, %d, %d", step, n, m, h, notModified, misses, hits)
		}
	}

	t1 := table("cold")
	want("cold", 1, 0, 1, 0)
	ds1 := adapter.regions["lai/LAI?w=10"].ds

	clock = clock.Add(11 * time.Minute)
	srv.Publish(laiFixture(t)) // identical content, another pointer
	if table("expired") != t1 {
		t.Fatal("a 304 derived another table")
	}
	want("expired", 2, 1, 2, 0)
	if r := adapter.regions["lai/LAI?w=10"]; r.ds != ds1 || !r.fetched.Equal(clock) {
		t.Fatal("a 304 must keep the region's dataset and restart its window")
	}
	clock = clock.Add(9 * time.Minute)
	if table("inside the restarted window") != t1 {
		t.Fatal("the window hit served another table")
	}
	want("inside the restarted window", 2, 1, 2, 1)

	adapter.InvalidateCaches()
	if table("after InvalidateCaches") != t1 {
		t.Fatal("an equal grid derived another table")
	}
	want("after InvalidateCaches", 3, 1, 3, 1)
	if adapter.regions["lai/LAI?w=10"].ds == ds1 {
		t.Fatal("the fetch after InvalidateCaches was not a full one")
	}

	// A server without validators: every expired window is a full
	// fetch, and Grid.Equal keeps the table.
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("If-None-Match")
		srv.ServeHTTP(stripETag{w}, r)
	}))
	defer plain.Close()
	adapter.client.Base = plain.URL
	for i := int64(1); i <= 2; i++ {
		clock = clock.Add(11 * time.Minute)
		if table("no validator") != t1 {
			t.Fatal("an equal grid from a server without validators derived another table")
		}
		want("no validator", 3+i, 1, 3+i, 1)
	}
}

// stripETag drops the ETag a handler sets, as a server that sends no
// validators would.
type stripETag struct{ http.ResponseWriter }

func (w stripETag) WriteHeader(code int) {
	w.Header().Del("ETag")
	w.ResponseWriter.WriteHeader(code)
}

func (w stripETag) Write(b []byte) (int, error) {
	w.Header().Del("ETag")
	return w.ResponseWriter.Write(b)
}

// TestNotModifiedAllocations pins what revalidating an expired region
// over loopback costs when the server answers 304 (ci.sh runs it): the
// request and response of one HTTP round trip on both ends, with no
// dataset encoded or decoded and no grid read: about 7 KB and 84
// allocations, where a full fetch of the same 18-value grid costs
// about 19 KB and 272.
func TestNotModifiedAllocations(t *testing.T) {
	_, adapter, _, closeFn := laiServer(t, 0)
	defer closeFn()
	reg := telemetry.NewRegistry()
	adapter.client.Metrics = reg
	clock := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	adapter.Now = func() time.Time { return clock }
	args := []string{"lai/LAI/", "10"}
	t1, err := adapter.Table(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		clock = clock.Add(11 * time.Minute)
		if tb, err := adapter.Table(context.Background(), args); err != nil || tb != t1 {
			t.Fatalf("revalidation %d: same table = %v, %v", i, tb == t1, err)
		}
	}
	runtime.ReadMemStats(&after)
	per, mallocs := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
	t.Logf("%d B, %d mallocs per revalidation", per, mallocs)
	if n := reg.Snapshot().Counters["opendap_not_modified_total"]; n != runs {
		t.Fatalf("%d of %d revalidations were 304s", n, runs)
	}
	if per > 9<<10 || mallocs > 110 {
		t.Errorf("a 304 revalidation allocates %d B in %d mallocs, ceiling 9 KiB and 110", per, mallocs)
	}
}
