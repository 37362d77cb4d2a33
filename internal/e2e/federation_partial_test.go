package e2e

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"applab/internal/endpoint"
	"applab/internal/federation"
	"applab/internal/rescache"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

var _ endpoint.PartialEvaluator = (*federation.Federation)(nil)

// TestFederatedEndpointMarksPartialAnswers serves a federation (a local
// store plus a member whose endpoint is down) behind a caching SPARQL
// endpoint — `strabon -federate U -serve … -result-cache N`. The union
// the local member alone produces is a partial answer: every response
// must say so, and none may be written into the result cache, or the
// degraded answer would be served as a hit until the TTL expired.
func TestFederatedEndpointMarksPartialAnswers(t *testing.T) {
	store := strabon.New()
	store.AddAll(contractTriples())
	down := httptest.NewServer(http.NotFoundHandler())
	downURL := down.URL
	down.Close()

	fed := federation.New(federation.Member{Name: "local", Source: store})
	fed.AddMember(federation.Member{Name: "remote1", Source: endpoint.NewRemoteSource(downURL)})
	reg := telemetry.NewRegistry()
	cache := rescache.New(16, 0)
	cache.Metrics = reg
	srv := httptest.NewServer(endpoint.NewHandlerOpts(fed, reg, endpoint.Options{Cache: cache}))
	defer srv.Close()

	q := url.QueryEscape(`SELECT ?s ?n WHERE { ?s <` + contractNS + `name> ?n }`)
	before := reg.Snapshot()
	for i := 1; i <= 2; i++ {
		resp, err := http.Get(srv.URL + "/sparql?query=" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Applab-Cache"); got != "miss" {
			t.Errorf("request %d: X-Applab-Cache = %q, want miss", i, got)
		}
		if got := resp.Header.Get("X-Applab-Partial"); got != "true" {
			t.Errorf("request %d: X-Applab-Partial = %q, want true", i, got)
		}
	}
	wantCounters(t, "federated partial", before, reg.Snapshot(), map[string]int64{
		"endpoint_requests_total": 2,
		"endpoint_partial_total":  2,
		"rescache_misses_total":   2,
		"rescache_fills_total":    0,
		"rescache_hits_total":     0,
	})
}
