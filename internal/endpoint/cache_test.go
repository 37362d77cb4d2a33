package endpoint

// Result-cache wiring tests: the X-Applab-Cache response header over a
// miss/hit/invalidate sequence, stale serving of an invalidated entry
// on the shed path (reusing the X-Applab-Degraded machinery without a
// Degraded source), and bypass for sources without a cache identity.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"applab/internal/admission"
	"applab/internal/faults"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// get runs one query and returns status, the X-Applab-* headers, and
// the body.
func get(t *testing.T, base, query string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// TestHandlerCacheMissHitInvalidate: first request misses and fills,
// the repeat hits with a byte-identical body, an ingest invalidates
// (miss with the new row), and the refreshed entry hits again.
func TestHandlerCacheMissHitInvalidate(t *testing.T) {
	triples, _, err := rdf.ParseTurtleString(`
@prefix ex: <http://ex.org/> .
ex:a ex:name "Alpha" .
ex:b ex:name "Beta" .
`)
	if err != nil {
		t.Fatal(err)
	}
	st := strabon.New()
	st.AddAll(triples)
	reg := telemetry.NewRegistry()
	cache := rescache.New(8, 0)
	cache.Metrics = reg
	srv := httptest.NewServer(NewHandlerOpts(st, reg, Options{Cache: cache}))
	defer srv.Close()
	q := `PREFIX ex: <http://ex.org/> SELECT ?n WHERE { ?s ex:name ?n }`

	status, hdr, body1 := get(t, srv.URL, q)
	if status != http.StatusOK || hdr.Get("X-Applab-Cache") != "miss" {
		t.Fatalf("first request: status=%d cache=%q, want 200/miss", status, hdr.Get("X-Applab-Cache"))
	}
	status, hdr, body2 := get(t, srv.URL, q)
	if status != http.StatusOK || hdr.Get("X-Applab-Cache") != "hit" {
		t.Fatalf("repeat request: status=%d cache=%q, want 200/hit", status, hdr.Get("X-Applab-Cache"))
	}
	if body1 != body2 {
		t.Fatalf("cached body differs from fresh body:\n%s\nvs\n%s", body2, body1)
	}

	// The same query with renamed variables is another text: it misses
	// and is answered under its own column name.
	status, hdr, renamed := get(t, srv.URL,
		`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?y ex:name ?x }`)
	if status != http.StatusOK || hdr.Get("X-Applab-Cache") != "miss" {
		t.Fatalf("renamed query: status=%d cache=%q, want 200/miss", status, hdr.Get("X-Applab-Cache"))
	}
	if want := strings.ReplaceAll(body1, `"n"`, `"x"`); renamed != want {
		t.Fatalf("renamed answer:\n%s\nwant\n%s", renamed, want)
	}

	st.Add(rdf.NewTriple(rdf.NewIRI("http://ex.org/c"),
		rdf.NewIRI("http://ex.org/name"), rdf.NewLiteral("Gamma")))
	status, hdr, body3 := get(t, srv.URL, q)
	if status != http.StatusOK || hdr.Get("X-Applab-Cache") != "miss" {
		t.Fatalf("post-ingest request: status=%d cache=%q, want 200/miss", status, hdr.Get("X-Applab-Cache"))
	}
	if body3 == body1 {
		t.Fatal("post-ingest answer did not pick up the new triple")
	}
	_, hdr, body4 := get(t, srv.URL, q)
	if hdr.Get("X-Applab-Cache") != "hit" || body4 != body3 {
		t.Fatalf("refreshed entry did not hit: cache=%q", hdr.Get("X-Applab-Cache"))
	}

	if hits := reg.Counter("rescache_hits_total").Value(); hits != 2 {
		t.Errorf("rescache_hits_total = %d, want 2", hits)
	}
	if misses := reg.Counter("rescache_misses_total").Value(); misses != 2 {
		t.Errorf("rescache_misses_total = %d, want 2", misses)
	}
	if stale := reg.Counter("rescache_stale_total").Value(); stale != 1 {
		t.Errorf("rescache_stale_total = %d, want 1 (the invalidated entry)", stale)
	}
	if fills := reg.Counter("rescache_fills_total").Value(); fills != 3 {
		t.Errorf("rescache_fills_total = %d, want 3", fills)
	}
}

// epochGateSource is a fingerprinted source whose epoch the test bumps
// to invalidate cache entries and whose Match can be gated to hold an
// evaluation slot open.
type epochGateSource struct {
	g     *rdf.Graph
	fp    string
	epoch atomic.Uint64

	mu   sync.Mutex
	gate chan struct{} // when non-nil, Match blocks until it closes
}

func (s *epochGateSource) Match(sub, p, o rdf.Term) []rdf.Triple {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return s.g.Match(sub, p, o)
}

func (s *epochGateSource) DataEpoch() uint64   { return s.epoch.Load() }
func (s *epochGateSource) Fingerprint() string { return s.fp }

func (s *epochGateSource) setGate(gate chan struct{}) {
	s.mu.Lock()
	s.gate = gate
	s.mu.Unlock()
}

// TestHandlerCacheStaleShed: a shed request whose query has an
// invalidated cache entry gets 200 + X-Applab-Degraded: stale +
// X-Applab-Cache: stale from LookupStale — with no Degraded source
// configured, so the answer can only have come from the cache.
func TestHandlerCacheStaleShed(t *testing.T) {
	clk := faults.NewClock(time.Unix(0, 0))
	reg := telemetry.NewRegistry()
	ctrl := &admission.Controller{
		MaxInflight:  1,
		MaxQueue:     0,
		QueueTimeout: 5 * time.Second,
		Now:          clk.Now,
		After:        clk.After,
		Metrics:      reg,
	}
	cache := rescache.New(8, 0)
	cache.Metrics = reg
	src := &epochGateSource{g: smallGraph(t, 2), fp: rescache.NextFingerprint("gated")}
	srv := httptest.NewServer(NewHandlerOpts(src, reg, Options{Admission: ctrl, Cache: cache}))
	defer srv.Close()

	// Fill the cache, then invalidate the entry with an epoch bump.
	status, hdr, body1 := get(t, srv.URL, anyQuery)
	if status != http.StatusOK || hdr.Get("X-Applab-Cache") != "miss" {
		t.Fatalf("fill request: status=%d cache=%q", status, hdr.Get("X-Applab-Cache"))
	}
	src.epoch.Add(1)

	// Occupy the only evaluation slot with a gated miss.
	gate := make(chan struct{})
	src.setGate(gate)
	first := make(chan string, 1)
	go func() {
		_, h, _ := get(t, srv.URL, anyQuery)
		first <- h.Get("X-Applab-Cache")
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if in, _ := ctrl.Stats(); in == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gated request never occupied the slot")
		}
	}

	// The shed request is answered from the invalidated entry.
	status, hdr, body2 := get(t, srv.URL, anyQuery)
	if status != http.StatusOK {
		t.Fatalf("shed status = %d, want 200", status)
	}
	if hdr.Get("X-Applab-Degraded") != "stale" || hdr.Get("X-Applab-Cache") != "stale" {
		t.Fatalf("shed headers: degraded=%q cache=%q, want stale/stale",
			hdr.Get("X-Applab-Degraded"), hdr.Get("X-Applab-Cache"))
	}
	if body2 != body1 {
		t.Fatalf("stale body differs from the filled entry:\n%s\nvs\n%s", body2, body1)
	}
	if got := reg.Counter("endpoint_degraded_total").Value(); got != 1 {
		t.Errorf("endpoint_degraded_total = %d, want 1", got)
	}
	if got := reg.Counter("rescache_stale_served_total").Value(); got != 1 {
		t.Errorf("rescache_stale_served_total = %d, want 1", got)
	}

	close(gate)
	if h := <-first; h != "miss" {
		t.Fatalf("gated request header = %q, want miss (epoch moved)", h)
	}
}

// TestHandlerCacheBypass: a source without a cache identity never
// produces the header and never populates the cache.
func TestHandlerCacheBypass(t *testing.T) {
	reg := telemetry.NewRegistry()
	cache := rescache.New(8, 0)
	cache.Metrics = reg
	srv := httptest.NewServer(NewHandlerOpts(smallGraph(t, 1), reg, Options{Cache: cache}))
	defer srv.Close()

	for i := 0; i < 2; i++ {
		status, hdr, _ := get(t, srv.URL, anyQuery)
		if status != http.StatusOK {
			t.Fatalf("status = %d", status)
		}
		if h := hdr.Get("X-Applab-Cache"); h != "" {
			t.Fatalf("bypass produced X-Applab-Cache = %q", h)
		}
	}
	if cache.Len() != 0 {
		t.Fatalf("bypass populated the cache: %d entries", cache.Len())
	}
	if got := reg.Counter("rescache_bypass_total").Value(); got != 2 {
		t.Errorf("rescache_bypass_total = %d, want 2", got)
	}
}

// TestHandlerBadQueryNotCached: a text that does not parse misses the
// cache (nothing that did not parse is ever stored), is answered 400
// every time, and carries no X-Applab-Cache header.
func TestHandlerBadQueryNotCached(t *testing.T) {
	reg := telemetry.NewRegistry()
	cache := rescache.New(8, 0)
	cache.Metrics = reg
	src := &epochGateSource{g: smallGraph(t, 2), fp: rescache.NextFingerprint("bad")}
	srv := httptest.NewServer(NewHandlerOpts(src, reg, Options{Cache: cache}))
	defer srv.Close()
	for i := 0; i < 2; i++ {
		status, hdr, _ := get(t, srv.URL, `SELECT ?s WHERE { ?s ?p`)
		if status != http.StatusBadRequest {
			t.Fatalf("request %d: status %d, want 400", i, status)
		}
		if h := hdr.Get("X-Applab-Cache"); h != "" {
			t.Fatalf("request %d: a bad query carries X-Applab-Cache = %q", i, h)
		}
	}
	if cache.Len() != 0 {
		t.Fatalf("a bad query left %d cache entries", cache.Len())
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestHandlerHitAllocations pins what a served cache hit costs on a
// Listing-3-shaped query: the handler looks the text up before it
// parses, so a hit records no parse span and allocates for the request,
// its trace and the encoded body only (1,128 B and 10 allocations
// measured). Parsing the text first costs ~2.8 KB and 45 allocations
// more, so a hit that parses trips the ceiling.
func TestHandlerHitAllocations(t *testing.T) {
	const text = `PREFIX lai: <http://ex/lai#>
SELECT DISTINCT ?s ?wkt ?lai WHERE {
  ?s <http://www.w3.org/2006/time#hasTime> "2018-06-01T00:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime> .
  ?s lai:lai ?lai .
  ?s geo:hasGeometry ?g .
  ?g geo:asWKT ?wkt .
  FILTER(geof:sfWithin(?wkt, "POLYGON ((7.6 45.0, 7.7 45.0, 7.7 45.1, 7.6 45.1, 7.6 45.0))"^^geo:wktLiteral))
}`
	reg := telemetry.NewRegistry()
	cache := rescache.New(8, 0)
	cache.Metrics = reg
	src := &epochGateSource{g: smallGraph(t, 2), fp: rescache.NextFingerprint("hits")}
	h := NewHandlerOpts(src, reg, Options{Cache: cache})
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(text), nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // the miss that fills the entry
	parse := func() int64 {
		return reg.Snapshot().Histograms[`endpoint_stage_seconds{stage="parse"}`].Count
	}
	parsed := parse()
	if parsed != 1 {
		t.Fatalf("the miss parsed %d times, want 1", parsed)
	}

	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		h.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&after)
	if got := w.h.Get("X-Applab-Cache"); got != "hit" {
		t.Fatalf("X-Applab-Cache = %q, want hit", got)
	}
	if hits := reg.Counter("rescache_hits_total").Value(); hits != runs {
		t.Fatalf("rescache_hits_total = %d, want %d", hits, runs)
	}
	if got := parse(); got != parsed {
		t.Fatalf("%d hits recorded %d parse stages", runs, got-parsed)
	}
	traces := reg.RecentTraces()
	for _, sp := range traces[len(traces)-1].Spans {
		if sp.Name == "parse" {
			t.Fatal("a hit's trace has a parse span")
		}
	}
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("%d B, %d allocs per served hit", bytes, allocs)
	if bytes > 1_500 || allocs > 16 {
		t.Fatalf("a served hit costs %d B and %d allocs; ceiling is 1,500 B and 16 allocs", bytes, allocs)
	}
}
