package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"applab/internal/core"
	"applab/internal/endpoint"
	"applab/internal/madis"
	"applab/internal/obda"
	"applab/internal/opendap"
	"applab/internal/rescache"
	"applab/internal/sparql"
	"applab/internal/telemetry"
	"applab/internal/workload"
)

// otfMappings is Listing 2 twice: the lai product behind its 10-minute
// window, and a second product fetched on every evaluation (window 0), so
// an unchanged upstream arrives as a new dataset each time.
var otfMappings = core.Listing2Mapping + strings.NewReplacer(
	"opendap_mapping", "live_mapping", "lai/LAI/, 10", "live/LAI/, 0").Replace(core.Listing2Mapping)

// otfStack is one virtual graph over the OPeNDAP server at base, and
// the adapter under it.
func otfStack(t *testing.T, base string) (*obda.VirtualGraph, *obda.OpendapAdapter) {
	t.Helper()
	adapter := obda.NewOpendapAdapter(opendap.NewClient(base))
	db := madis.NewDB()
	adapter.Register(db)
	mappings, err := obda.ParseMappings(otfMappings)
	if err != nil {
		t.Fatal(err)
	}
	return obda.NewVirtualGraph(db, mappings), adapter
}

// listing3Rows canonicalizes a SPARQL-JSON answer to Listing 3 the way
// canonical does a Results value.
func listing3Rows(body []byte) ([]string, error) {
	var doc struct {
		Results struct {
			Bindings []map[string]map[string]any `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	rows := make([]string, 0, len(doc.Results.Bindings))
	for _, b := range doc.Results.Bindings {
		lai, err := strconv.ParseFloat(fmt.Sprint(b["lai"]["value"]), 64)
		if err != nil {
			return nil, err
		}
		rows = append(rows, fmt.Sprintf("%s|%g", b["wkt"]["value"], lai))
	}
	sort.Strings(rows)
	return rows, nil
}

// TestConcurrentEvaluationsShareOneView drives one VirtualGraph behind
// the endpoint handler from several clients at once; every request
// invalidates the view, so the Invalidates interleave with the other
// clients' evaluations. While the upstream is static every answer is the
// single-client answer byte for byte and the view is built once. With
// the upstream bumped between rounds every answer of a round is the
// seed evaluator's over that round's generation, and each generation
// costs one rebuild. (A bump during an evaluation can still show that
// evaluation two generations; the ROADMAP item "Dictionary ids through
// the engine" closes it.)
func TestConcurrentEvaluationsShareOneView(t *testing.T) {
	const clients, perClient, generations = 4, 12, 3

	dapSrv := opendap.NewServer()
	publish := func(name string, seed int64, start time.Time) {
		opts := workload.DefaultLAIOptions()
		opts.NLat, opts.NLon, opts.Times = 4, 4, 2
		opts.Seed, opts.Start = seed, start
		g := workload.LAIGrid(opts)
		g.Name = name
		dapSrv.Publish(g)
	}
	publish("lai", 42, time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	publish("live", 1, time.Date(2018, 9, 1, 0, 0, 0, 0, time.UTC))
	dapHTTP := httptest.NewServer(dapSrv)
	defer dapHTTP.Close()

	vg, _ := otfStack(t, dapHTTP.URL)
	reg := telemetry.NewRegistry()
	vg.Metrics = reg
	ep := httptest.NewServer(endpoint.NewHandler(vg, nil))
	defer ep.Close()
	target := ep.URL + "/sparql?query=" + url.QueryEscape(core.Listing3Query)

	get := func() ([]byte, error) {
		resp, err := http.Get(target)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		return body, err
	}
	// round runs the clients and hands every answer to check on the test
	// goroutine.
	round := func(name string, check func(body []byte) error) {
		t.Helper()
		answers := make([][]byte, clients*perClient)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient && errs[c] == nil; i++ {
					answers[c*perClient+i], errs[c] = get()
				}
			}(c)
		}
		wg.Wait()
		for c, err := range errs {
			if err != nil {
				t.Fatalf("%s: client %d: %v", name, c, err)
			}
		}
		for i, body := range answers {
			if err := check(body); err != nil {
				t.Fatalf("%s: answer %d: %v", name, i, err)
			}
		}
	}
	wantBuilds := func(name string, rebuilds, reuses int64) {
		t.Helper()
		c := reg.Snapshot().Counters
		if c["obda_view_rebuilds_total"] != rebuilds || c["obda_view_reuses_total"] != reuses {
			t.Fatalf("%s: %d rebuilds, %d reuses; want %d, %d", name,
				c["obda_view_rebuilds_total"], c["obda_view_reuses_total"], rebuilds, reuses)
		}
	}

	single, err := get()
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := listing3Rows(single); err != nil || len(rows) == 0 {
		t.Fatalf("single-client answer: %d rows, %v", len(rows), err)
	}
	wantBuilds("single client", 1, 0)
	round("static upstream", func(body []byte) error {
		if !bytes.Equal(body, single) {
			return fmt.Errorf("differs from the single-client answer")
		}
		return nil
	})
	// How many revalidations the requests came to depends on the
	// interleaving: a request revalidates again when a neighbour
	// invalidated the view under it, and not at all when a neighbour
	// revalidated after its own Invalidate. None of them rebuilt.
	wantBuilds("static upstream", 1, reg.Snapshot().Counters["obda_view_reuses_total"])

	for gen := int64(1); gen <= generations; gen++ {
		publish("live", 1+gen, time.Date(2018, 9, 1, 0, 0, 0, 0, time.UTC))
		// The oracle is a second stack of its own over the same upstream.
		oracleVG, _ := otfStack(t, dapHTTP.URL)
		oracle, err := oracleVG.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sparql.EvalSeed(oracle, core.Listing3Query)
		if err != nil {
			t.Fatal(err)
		}
		want := canonical(t, res)
		name := fmt.Sprintf("generation %d", gen)
		round(name, func(body []byte) error {
			got, err := listing3Rows(body)
			if err != nil {
				return err
			}
			if !equalRows(got, want) {
				return fmt.Errorf("%d rows differ from the seed evaluator's %d over this generation", len(got), len(want))
			}
			return nil
		})
		wantBuilds(name, 1+gen, reg.Snapshot().Counters["obda_view_reuses_total"])
	}
}

// TestResultCacheFollowsViewContent: a result cache over the virtual
// graph, or over an adaptive graph that has not promoted, validates with
// nothing wired. The "live" mapping has no window, so every evaluation
// refetches; over a static upstream that revalidation re-publishes the
// view and the epoch stays put, so an entry filled before another
// query's evaluation still hits after it. Once the upstream publishes a
// changed grid, the next miss rebuilds the view, the old entry reads
// stale and its query is answered from the new content.
func TestResultCacheFollowsViewContent(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		resultCacheFollowsViewContent(t, func(vg *obda.VirtualGraph, _ *obda.OpendapAdapter) sparql.Source { return vg })
	})
	t.Run("adaptive", func(t *testing.T) {
		resultCacheFollowsViewContent(t, func(vg *obda.VirtualGraph, a *obda.OpendapAdapter) sparql.Source {
			return obda.NewAdaptiveGraph(vg, a, 1000, 0)
		})
	})
}

func resultCacheFollowsViewContent(t *testing.T, serve func(*obda.VirtualGraph, *obda.OpendapAdapter) sparql.Source) {
	dapSrv := opendap.NewServer()
	publish := func(name string, seed int64) {
		opts := workload.DefaultLAIOptions()
		opts.NLat, opts.NLon, opts.Times = 4, 4, 2
		opts.Seed = seed
		g := workload.LAIGrid(opts)
		g.Name = name
		dapSrv.Publish(g)
	}
	publish("lai", 42)
	publish("live", 1)
	dapHTTP := httptest.NewServer(dapSrv)
	defer dapHTTP.Close()

	reg := telemetry.NewRegistry()
	vg, adapter := otfStack(t, dapHTTP.URL)
	vg.Metrics = reg
	cache := rescache.New(64, 0)
	cache.Metrics = reg
	ep := httptest.NewServer(endpoint.NewHandlerOpts(serve(vg, adapter), reg, endpoint.Options{Cache: cache}))
	defer ep.Close()

	const q2 = `SELECT ?s ?lai WHERE { ?s lai:lai ?lai }`
	const q3 = `SELECT ?lai WHERE { ?s lai:lai ?lai }`
	header := func(q string) string {
		t.Helper()
		resp, err := http.Get(ep.URL + "/sparql?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Applab-Cache")
	}

	s0 := reg.Snapshot()
	hdr, before := cacheGet(t, ep.URL)
	if hdr != "miss" {
		t.Fatalf("Q1 cold header = %q, want miss", hdr)
	}
	if hdr := header(q2); hdr != "miss" {
		t.Fatalf("Q2 cold header = %q, want miss", hdr)
	}
	hdr, rows := cacheGet(t, ep.URL)
	if hdr != "hit" || !equalRows(rows, before) {
		t.Fatalf("Q1 after Q2's revalidation: header %q, want a hit with the same answer", hdr)
	}
	s1 := reg.Snapshot()
	wantCounters(t, "static upstream", s0, s1, map[string]int64{
		"obda_view_rebuilds_total": 1,
		"obda_view_reuses_total":   1,
		"rescache_hits_total":      1,
		"rescache_stale_total":     0,
	})

	publish("live", 2)
	if hdr := header(q3); hdr != "miss" {
		t.Fatalf("Q3 cold header = %q, want miss", hdr)
	}
	hdr, after := cacheGet(t, ep.URL)
	if hdr != "miss" || equalRows(after, before) {
		t.Fatalf("Q1 after the upstream change: header %q, want a miss with a new answer", hdr)
	}
	if hdr, rows := cacheGet(t, ep.URL); hdr != "hit" || !equalRows(rows, after) {
		t.Fatalf("Q1 refilled: header %q, want a hit with the new answer", hdr)
	}
	wantCounters(t, "changed upstream", s1, reg.Snapshot(), map[string]int64{
		"obda_view_rebuilds_total": 1,
		"obda_view_reuses_total":   1,
		"rescache_stale_total":     1,
		"rescache_hits_total":      1,
	})
}
