package e2e

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"applab/internal/core"
	"applab/internal/opendap"
	"applab/internal/telemetry"
	"applab/internal/workload"
)

// TestQueryDeadlineReachesOPeNDAP: cmd/obda's stack, served with
// -query-deadline 100ms over an OPeNDAP server that takes 2 s to answer,
// answers Listing 3 with the budget error within 500 ms. The query's
// context reaches the fetch behind the virtual graph, so the request
// does not ride out the client's 30 s deadline and its retries.
func TestQueryDeadlineReachesOPeNDAP(t *testing.T) {
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 4, 4, 2
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"
	dapSrv := opendap.NewServer()
	dapSrv.Latency = 2 * time.Second
	dapSrv.Publish(grid)
	dapHTTP := httptest.NewServer(dapSrv)
	defer dapHTTP.Close()

	o := core.Defaults()
	o.Addr = "127.0.0.1:0"
	o.Limits.Deadline = 100 * time.Millisecond
	reg := telemetry.NewRegistry()
	fly, err := core.NewOnTheFly(dapHTTP.URL, core.Listing2Mapping, o, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- core.Serve(ctx, reg, o, fly.Graph, func(_, addr string) { addrc <- addr })
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	addr := <-addrc

	start := time.Now()
	resp, err := http.Get("http://" + addr + "/sparql?query=" + url.QueryEscape(core.Listing3Query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"kind":"deadline"`) {
		t.Fatalf("status %d: %s; want the deadline budget error", resp.StatusCode, body)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("the budget error came after %v; the fetch ignored the query's deadline", elapsed)
	}
	if n := fly.Client.Breaker.ConsecutiveFailures(); n != 0 {
		t.Errorf("breaker recorded %d failures for the query's own deadline", n)
	}
}
