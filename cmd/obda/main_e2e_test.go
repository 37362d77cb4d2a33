package main

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"applab/internal/core"
	"applab/internal/opendap"
	"applab/internal/workload"
)

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestRunServeEndToEnd boots the on-the-fly endpoint over an in-process
// OPeNDAP server and the paper's Listing 2 mapping, answers Listing 3
// through it, reads the fetch counter off the metrics listener, and
// shuts both listeners down through context cancellation.
func TestRunServeEndToEnd(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 4, 4, 2
	dap := opendap.NewServer()
	dap.Publish(workload.LAIGrid(opts))
	dapHTTP := httptest.NewServer(dap)
	defer dapHTTP.Close()
	mapping := filepath.Join(t.TempDir(), "listing2.obda")
	if err := os.WriteFile(mapping, []byte(core.Listing2Mapping), 0o644); err != nil {
		t.Fatal(err)
	}

	type bound struct{ name, addr string }
	readyCh := make(chan bound, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	result := make(chan error, 1)
	go func() {
		result <- run(ctx, []string{
			"-mapping", mapping, "-opendap", dapHTTP.URL, "-retries", "0",
			"-serve", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		}, func(name, addr string) { readyCh <- bound{name, addr} })
	}()
	addrs := map[string]string{}
	for len(addrs) < 2 {
		select {
		case b := <-readyCh:
			addrs[b.name] = b.addr
		case err := <-result:
			t.Fatalf("run exited before its listeners were ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for listeners")
		}
	}

	code, body := httpGet(t, "http://"+addrs["sparql"]+"/sparql?query="+url.QueryEscape(core.Listing3Query))
	if code != http.StatusOK {
		t.Fatalf("Listing 3: status %d: %s", code, body)
	}
	var doc struct {
		Head    struct{ Vars []string }
		Results struct{ Bindings []map[string]any }
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("Listing 3 answer: %v", err)
	}
	if got := strings.Join(doc.Head.Vars, ","); got != "s,wkt,lai" {
		t.Errorf("Listing 3 vars = %s, want s,wkt,lai", got)
	}
	if n := len(doc.Results.Bindings); n != 31 {
		t.Errorf("Listing 3 rows = %d, want 31 (one per positive LAI cell)", n)
	}

	code, metrics := httpGet(t, "http://"+addrs["metrics"]+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	if !strings.Contains(string(metrics), "obda_physical_fetches_total 1") {
		t.Errorf("metrics missing obda_physical_fetches_total 1:\n%s", metrics)
	}

	cancel()
	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("run = %v, want nil after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
}
