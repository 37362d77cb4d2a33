package endpoint

// Partial-answer wiring tests: an answer that says it is partial (a
// federation missing a member here; a cluster missing a replica group
// in production) carries X-Applab-Partial and is never written into the
// result cache, and a full answer from the same source fills the cache
// normally.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"applab/internal/admission"
	"applab/internal/federation"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/scatter"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// switchable is a federation member whose reads fail while down is set.
type switchable struct {
	st   *strabon.Store
	down atomic.Bool
}

func (m *switchable) Match(s, p, o rdf.Term) []rdf.Triple {
	ts, _ := m.MatchErr(s, p, o)
	return ts
}

func (m *switchable) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	if m.down.Load() {
		return nil, errors.New("member down")
	}
	return m.st.Match(s, p, o), nil
}

func TestHandlerPartialHeaderAndCacheSkip(t *testing.T) {
	triples, _, err := rdf.ParseTurtleString(`
@prefix ex: <http://ex.org/> .
ex:a ex:name "Alpha" .
ex:b ex:name "Beta" .
`)
	if err != nil {
		t.Fatal(err)
	}
	local, remote := strabon.New(), strabon.New()
	local.Add(triples[0])
	remote.Add(triples[1])
	member := &switchable{st: remote}
	member.down.Store(true)
	fed := federation.New(federation.Member{Name: "local", Source: local}, federation.Member{Name: "remote", Source: member})
	reg := telemetry.NewRegistry()
	cache := rescache.New(8, 0)
	srv := httptest.NewServer(NewHandlerOpts(fed, reg, Options{Cache: cache}))
	defer srv.Close()
	q := `PREFIX ex: <http://ex.org/> SELECT ?n WHERE { ?s ex:name ?n }`

	// Degraded phase: every response is partial-flagged, evaluated, and
	// never cached.
	for i := 1; i <= 2; i++ {
		code, hdr, body := get(t, srv.URL, q)
		if code != 200 {
			t.Fatalf("partial request %d: status %d", i, code)
		}
		if !strings.Contains(body, "Alpha") || strings.Contains(body, "Beta") {
			t.Fatalf("partial request %d: body %s, want the local member's row only", i, body)
		}
		if hdr.Get("X-Applab-Partial") != "true" {
			t.Fatalf("partial request %d: X-Applab-Partial = %q", i, hdr.Get("X-Applab-Partial"))
		}
		if hdr.Get("X-Applab-Cache") != "miss" {
			t.Fatalf("partial answer was cached: X-Applab-Cache = %q", hdr.Get("X-Applab-Cache"))
		}
	}
	if fed.RequestCount("local") != 2 {
		t.Fatalf("evals = %d, want 2 (partial answers must not be served from cache)", fed.RequestCount("local"))
	}
	if got := reg.Snapshot().Counters["endpoint_partial_total"]; got != 2 {
		t.Fatalf("endpoint_partial_total = %d, want 2", got)
	}

	// Healthy phase: the same source recovers; the full answer has no
	// partial header and fills the cache, so the repeat is a hit.
	member.down.Store(false)
	if _, hdr, _ := get(t, srv.URL, q); hdr.Get("X-Applab-Partial") != "" || hdr.Get("X-Applab-Cache") != "miss" {
		t.Fatalf("healthy miss: partial=%q cache=%q", hdr.Get("X-Applab-Partial"), hdr.Get("X-Applab-Cache"))
	}
	if _, hdr, _ := get(t, srv.URL, q); hdr.Get("X-Applab-Cache") != "hit" {
		t.Fatalf("healthy repeat: cache=%q, want hit", hdr.Get("X-Applab-Cache"))
	}
	if fed.RequestCount("local") != 3 {
		t.Fatalf("evals = %d, want 3 (healthy answer should be cached)", fed.RequestCount("local"))
	}
}

// TestHandlerDegradedPartial: a shed request answered by the Degraded
// source carries X-Applab-Partial when that answer is partial too.
func TestHandlerDegradedPartial(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctrl := &admission.Controller{MaxInflight: 1}
	release, err := ctrl.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	down := &switchable{}
	down.down.Store(true)
	stale := federation.New(federation.Member{Name: "local", Source: smallGraph(t, 2)}, federation.Member{Name: "down", Source: down})
	srv := httptest.NewServer(NewHandlerOpts(smallGraph(t, 1), reg, Options{Admission: ctrl, Degraded: stale}))
	defer srv.Close()

	code, hdr, _ := get(t, srv.URL, anyQuery)
	if code != http.StatusOK || hdr.Get("X-Applab-Degraded") != "stale" || hdr.Get("X-Applab-Partial") != "true" {
		t.Fatalf("shed request: status %d, degraded %q, partial %q; want 200, stale, true",
			code, hdr.Get("X-Applab-Degraded"), hdr.Get("X-Applab-Partial"))
	}
	if got := reg.Counter("endpoint_partial_total").Value(); got != 1 {
		t.Fatalf("endpoint_partial_total = %d, want 1", got)
	}
}

// TestRemoteSourceReadsPartialHeaders: a member answer its endpoint
// marks partial or degraded marks the caller's Tally partial, with a
// cause naming the member and the header; a plain answer does not.
func TestRemoteSourceReadsPartialHeaders(t *testing.T) {
	for _, header := range []string{"", "X-Applab-Partial", "X-Applab-Degraded"} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if header != "" {
				w.Header().Set(header, "true")
			}
			w.Write([]byte(`{"results":{"bindings":[]}}`))
		}))
		ctx, tally := scatter.WithTally(context.Background())
		_, err := NewRemoteSource(srv.URL).MatchContext(ctx, rdf.Term{}, rdf.Term{}, rdf.Term{})
		srv.Close()
		if err != nil {
			t.Fatalf("%q: %v", header, err)
		}
		if tally.Partial() != (header != "") {
			t.Fatalf("header %q: tally partial %v", header, tally.Partial())
		}
		if cause := tally.Cause(); header != "" && (cause == nil ||
			!strings.Contains(cause.Error(), srv.URL) || !strings.Contains(cause.Error(), header)) {
			t.Fatalf("header %q: cause %v names neither the member nor the header", header, cause)
		}
	}
}
