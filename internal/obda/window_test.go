package obda

// The adapter's regions are the paper's §3.2 cache: one entry per
// opendap(url, w) call site, reused inside its window w. These tests pin
// what each call counts — a window hit, a fetch (a window miss when the
// region is windowed) or a stale serve — and what it hands back.

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"applab/internal/faults"
	"applab/internal/madis"
	"applab/internal/opendap"
	"applab/internal/telemetry"
)

// windowAdapter is laiServer's adapter on a fake clock the caller steps,
// counting into its own registry.
func windowAdapter(t *testing.T) (*OpendapAdapter, *opendap.Server, *time.Time) {
	t.Helper()
	_, adapter, srv, closeFn := laiServer(t, 0)
	t.Cleanup(closeFn)
	clock := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	adapter.Now = func() time.Time { return clock }
	adapter.Metrics = telemetry.NewRegistry()
	return adapter, srv, &clock
}

// wantCalls checks the adapter's window hits, window misses, stale
// serves and physical fetches so far.
func wantCalls(t *testing.T, a *OpendapAdapter, step string, hits, misses, stale, fetches int64) {
	t.Helper()
	c := a.Metrics.Snapshot().Counters
	got := [4]int64{c["opendap_cache_hits_total"], c["opendap_cache_misses_total"],
		c["opendap_cache_stale_total"], c["obda_physical_fetches_total"]}
	if want := [4]int64{hits, misses, stale, fetches}; got != want {
		t.Fatalf("%s: hits, misses, stale, fetches = %v, want %v", step, got, want)
	}
	if a.PhysicalCalls() != fetches {
		t.Fatalf("%s: PhysicalCalls = %d, want %d", step, a.PhysicalCalls(), fetches)
	}
}

// mustTable calls the virtual table with args.
func mustTable(t *testing.T, a *OpendapAdapter, args ...string) *madis.Table {
	t.Helper()
	tb, err := a.Table(args)
	if err != nil {
		t.Fatalf("opendap %v: %v", args, err)
	}
	return tb
}

// goDown makes the next n requests to the OPeNDAP server fail.
func goDown(a *OpendapAdapter, n int) {
	a.client.HTTP = &http.Client{Transport: faults.NewRoundTripper(
		faults.FailN(n, faults.Step{Kind: faults.ConnError}), nil)}
}

func TestWindowCache(t *testing.T) {
	a, srv, clock := windowAdapter(t)
	before := srv.Requests()
	t1 := mustTable(t, a, "lai/LAI/", "10")
	if len(t1.Rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(t1.Rows))
	}
	wantCalls(t, a, "cold", 0, 1, 0, 1)
	if t2 := mustTable(t, a, "lai/LAI/", "10"); t2 != t1 {
		t.Fatal("a window hit must hand back the region's table")
	}
	wantCalls(t, a, "inside the window", 1, 1, 0, 1)
	if srv.Requests() != before+1 {
		t.Errorf("server saw %d requests, want 1", srv.Requests()-before)
	}

	// Past the window the same call fetches; the grid is unchanged, so
	// the relation is not derived again.
	*clock = clock.Add(11 * time.Minute)
	if t3 := mustTable(t, a, "lai/LAI/", "10"); t3 != t1 {
		t.Fatal("an unchanged grid must keep the region's table")
	}
	wantCalls(t, a, "expired", 1, 2, 0, 2)

	// Window 0 fetches on every call and is neither a hit nor a miss.
	mustTable(t, a, "lai/LAI/", "0")
	mustTable(t, a, "lai/LAI/")
	wantCalls(t, a, "window 0", 1, 2, 0, 4)
	if srv.Requests() != before+4 {
		t.Errorf("server saw %d requests, want 4", srv.Requests()-before)
	}
}

// Two windows over one variable are two regions; the URL prefix is not
// part of a region.
func TestWindowsKeptApart(t *testing.T) {
	a, _, clock := windowAdapter(t)
	t10 := mustTable(t, a, "lai/LAI/", "10")
	t30 := mustTable(t, a, "lai/LAI/", "30")
	if t10 == t30 {
		t.Fatal("two windows share a table")
	}
	wantCalls(t, a, "cold", 0, 2, 0, 2)
	if mustTable(t, a, "https://analytics.ramani.ujuizi.com/thredds/dodsC/lai/LAI/", "10") != t10 {
		t.Fatal("a full URL must name the same region")
	}
	wantCalls(t, a, "full URL", 1, 2, 0, 2)

	*clock = clock.Add(11 * time.Minute)
	mustTable(t, a, "lai/LAI/", "10")
	mustTable(t, a, "lai/LAI/", "30")
	wantCalls(t, a, "w=10 expired, w=30 not", 2, 3, 0, 3)
}

// InvalidateCaches forces the next call of every region to fetch, and
// an invalidated window is never served stale.
func TestWindowCacheInvalidate(t *testing.T) {
	a, _, _ := windowAdapter(t)
	a.ServeStale = true
	t1 := mustTable(t, a, "lai/LAI/", "60")
	a.InvalidateCaches()
	if mustTable(t, a, "lai/LAI/", "60") != t1 {
		t.Fatal("an unchanged grid must keep the region's table after InvalidateCaches")
	}
	wantCalls(t, a, "refetched", 0, 2, 0, 2)

	a.InvalidateCaches()
	goDown(a, 1)
	if _, err := a.Table([]string{"lai/LAI/", "60"}); err == nil {
		t.Fatal("an invalidated window was served stale")
	}
	wantCalls(t, a, "outage", 0, 2, 0, 3)
}

// ServeStale serves an expired windowed region while the upstream is
// down; an un-windowed or never-fetched region fails.
func TestStaleWhileError(t *testing.T) {
	a, _, clock := windowAdapter(t)
	a.ServeStale = true
	t1 := mustTable(t, a, "lai/LAI/", "10")
	mustTable(t, a, "lai/LAI/", "0")
	wantCalls(t, a, "healthy", 0, 1, 0, 2)

	*clock = clock.Add(20 * time.Minute)
	goDown(a, 3)
	if tb, err := a.Table([]string{"lai/LAI/", "10"}); err != nil || tb != t1 {
		t.Fatalf("stale-while-error must serve the region's table (%v)", err)
	}
	if _, err := a.Table([]string{"lai/LAI/", "0"}); err == nil {
		t.Fatal("an un-windowed region was served stale")
	}
	if _, err := a.Table([]string{"lai/LAI/", "5"}); err == nil {
		t.Fatal("a region never fetched was served")
	}
	wantCalls(t, a, "outage", 0, 1, 1, 5)

	// The upstream is back: the expired window fetches again.
	if mustTable(t, a, "lai/LAI/", "10") != t1 {
		t.Fatal("an unchanged grid must keep the region's table")
	}
	wantCalls(t, a, "recovered", 0, 2, 1, 6)

	// Without ServeStale an outage fails the expired window.
	a.ServeStale = false
	*clock = clock.Add(20 * time.Minute)
	goDown(a, 1)
	if _, err := a.Table([]string{"lai/LAI/", "10"}); err == nil {
		t.Fatal("served stale without ServeStale")
	}
	wantCalls(t, a, "no ServeStale", 0, 2, 1, 7)
}

// Concurrent calls over several regions while the clock steps past the
// windows and InvalidateCaches runs: every call is a hit or a fetch and
// returns the whole relation. Run under -race.
func TestWindowCacheConcurrency(t *testing.T) {
	_, a, _, closeFn := laiServer(t, 0)
	defer closeFn()
	a.Metrics = telemetry.NewRegistry()
	a.ServeStale = true
	var tick atomic.Int64
	a.Now = func() time.Time { return time.Unix(0, tick.Load()) }

	calls := [][]string{{"lai/LAI/", "1"}, {"lai/LAI/", "10"}, {"lai/LAI/", "0"}, {"x/lai/LAI/", "1"}}
	const workers, perWorker = 6, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tb, err := a.Table(calls[(w+i)%len(calls)])
				if err != nil || len(tb.Rows) != 18 {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				switch {
				case i%7 == 0:
					tick.Add(int64(2 * time.Minute))
				case i%11 == 0:
					a.InvalidateCaches()
				}
			}
		}(w)
	}
	wg.Wait()

	c := a.Metrics.Snapshot().Counters
	hits, misses := c["opendap_cache_hits_total"], c["opendap_cache_misses_total"]
	if hits == 0 || misses == 0 {
		t.Errorf("hits = %d, misses = %d: want both", hits, misses)
	}
	if got := hits + a.PhysicalCalls(); got != workers*perWorker {
		t.Errorf("hits + fetches = %d, want one per call (%d)", got, workers*perWorker)
	}
}
