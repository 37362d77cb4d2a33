package e2e

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"applab/internal/core"
	"applab/internal/endpoint"
	"applab/internal/federation"
	"applab/internal/madis"
	"applab/internal/obda"
	"applab/internal/opendap"
	"applab/internal/sparql"
	"applab/internal/telemetry"
	"applab/internal/workload"
)

// liveGraph is a virtual graph over a window-0 Listing 2 mapping, so
// every evaluation reads the OPeNDAP server, which the test may close.
func liveGraph(t *testing.T) (*obda.VirtualGraph, *httptest.Server) {
	t.Helper()
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 4, 4, 2
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"
	dapSrv := opendap.NewServer()
	dapSrv.Publish(grid)
	dapHTTP := httptest.NewServer(dapSrv)
	t.Cleanup(dapHTTP.Close)

	client := opendap.NewClient(dapHTTP.URL)
	db := madis.NewDB()
	obda.NewOpendapAdapter(client).Register(db)
	mappings, err := obda.ParseMappings(strings.Replace(core.Listing2Mapping, "lai/LAI/, 10", "lai/LAI/, 0", 1))
	if err != nil {
		t.Fatal(err)
	}
	return obda.NewVirtualGraph(db, mappings), dapHTTP
}

// TestOneShotReadsLiveViewLikeEndpoint: one virtual graph whose mapping
// has window 0, evaluated one-shot through sparql.Eval and served by the
// endpoint. The engine refreshes the view at the start of every
// evaluation, so both entry points read the upstream the same way: with
// OPeNDAP up they give the same rows, and once it refuses connections
// both answer empty and partial. Neither serves the view an earlier
// evaluation built.
func TestOneShotReadsLiveViewLikeEndpoint(t *testing.T) {
	vg, dapHTTP := liveGraph(t)
	srv := httptest.NewServer(endpoint.NewHandlerOpts(vg, telemetry.NewRegistry(), endpoint.Options{}))
	defer srv.Close()

	served := func() ([]string, bool) {
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
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("served: status %d: %s", resp.StatusCode, body)
		}
		rows, err := listing3Rows(body)
		if err != nil {
			t.Fatal(err)
		}
		return rows, resp.Header.Get("X-Applab-Partial") == "true"
	}
	oneShot := func() ([]string, bool) {
		t.Helper()
		res, err := sparql.Eval(vg, core.Listing3Query)
		if err != nil {
			t.Fatalf("one-shot: %v", err)
		}
		return canonical(t, res), res.Partial
	}

	up, upPartial := oneShot()
	if len(up) == 0 || upPartial {
		t.Fatalf("one-shot with OPeNDAP up: %d rows, partial %v", len(up), upPartial)
	}
	if rows, partial := served(); partial || !equalRows(rows, up) {
		t.Fatalf("served with OPeNDAP up: %d rows, partial %v; the one-shot answer has %d", len(rows), partial, len(up))
	}

	dapHTTP.Close() // connections are now refused
	if rows, partial := oneShot(); len(rows) != 0 || !partial {
		t.Fatalf("one-shot with OPeNDAP down: %d rows, partial %v; want 0, partial", len(rows), partial)
	}
	if rows, partial := served(); len(rows) != 0 || !partial {
		t.Fatalf("served with OPeNDAP down: %d rows, partial %v; want 0, partial", len(rows), partial)
	}
}

// TestFederationRefreshesLiveMember: a federation whose one member is a
// live virtual graph refreshes that member with every evaluation, so
// once OPeNDAP is down the answer is empty and partial, not the view an
// earlier evaluation pinned.
func TestFederationRefreshesLiveMember(t *testing.T) {
	vg, dapHTTP := liveGraph(t)
	fed := federation.New(federation.Member{Name: "otf", Source: vg})

	res, err := sparql.Eval(fed, core.Listing3Query)
	if err != nil || len(res.Bindings) != 31 || res.Partial {
		t.Fatalf("OPeNDAP up: %v; want 31 rows, complete", describe(res, err))
	}
	dapHTTP.Close()
	res, err = sparql.Eval(fed, core.Listing3Query)
	if err != nil || len(res.Bindings) != 0 || !res.Partial {
		t.Fatalf("OPeNDAP down: %v; want 0 rows, partial", describe(res, err))
	}
}

// describe summarizes an evaluation's outcome for a failure message.
func describe(res *sparql.Results, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%d rows, partial %v", len(res.Bindings), res.Partial)
}
