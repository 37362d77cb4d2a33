package e2e

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"applab/internal/admission"
	"applab/internal/endpoint"
	"applab/internal/faults"
	"applab/internal/rdf"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// gatedStore wraps a live Strabon store so every Match parks until the
// gate closes: a request burst piles up on the admission controller
// exactly the way slow evaluations would, while the concurrency
// high-water mark proves the inflight cap end to end.
type gatedStore struct {
	gate    chan struct{}
	store   *strabon.Store
	active  atomic.Int32
	maxSeen atomic.Int32
}

func (s *gatedStore) Match(sub, p, o rdf.Term) []rdf.Triple {
	n := s.active.Add(1)
	for {
		m := s.maxSeen.Load()
		if n <= m || s.maxSeen.CompareAndSwap(m, n) {
			break
		}
	}
	<-s.gate
	s.active.Add(-1)
	return s.store.Match(sub, p, o)
}

// overloadStore builds a small live store for the overload tests.
func overloadStore(nTriples int) *strabon.Store {
	store := strabon.New()
	p := rdf.NewIRI("http://ex.org/p")
	for i := 0; i < nTriples; i++ {
		store.Add(rdf.NewTriple(rdf.NewIRI("http://ex.org/s"), p, rdf.NewLiteral(string(rune('a'+i)))))
	}
	return store
}

// TestOverloadBurstEndToEnd drives the PR's acceptance property through
// the whole serving path: a live loopback SPARQL endpoint over a real
// Strabon store, behind an admission controller with MaxInflight=4 and
// MaxQueue=8 on a fake clock. A 100-request burst must resolve into
// exactly 4 concurrent evaluations, 8 queued, and 88 immediately shed
// with 503 + Retry-After — and the admission counters must account for
// every one of the 100 requests.
func TestOverloadBurstEndToEnd(t *testing.T) {
	clk := faults.NewClock(time.Unix(0, 0))
	reg := telemetry.NewRegistry()
	ctrl := &admission.Controller{
		MaxInflight:  4,
		MaxQueue:     8,
		QueueTimeout: 30 * time.Second,
		Now:          clk.Now,
		After:        clk.After,
		Metrics:      reg,
	}
	src := &gatedStore{gate: make(chan struct{}), store: overloadStore(1)}
	srv := httptest.NewServer(endpoint.NewHandlerOpts(src, reg, endpoint.Options{Admission: ctrl}))
	defer srv.Close()
	before := reg.Snapshot()

	const burst = 100
	query := url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`)
	type outcome struct {
		status     int
		retryAfter string
	}
	results := make(chan outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/sparql?query=" + query)
			if err != nil {
				t.Errorf("GET: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
	}

	// The burst settles when 4 requests are evaluating, 8 are queued,
	// and the other 88 were shed at the door.
	deadline := time.Now().Add(10 * time.Second)
	for {
		in, q := ctrl.Stats()
		shed := reg.Counter("admission_shed_total").Value()
		if in == 4 && q == 8 && shed == burst-12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst never settled: inflight=%d queued=%d shed=%d", in, q, shed)
		}
		time.Sleep(time.Millisecond)
	}
	close(src.gate)
	wg.Wait()
	close(results)

	var ok200, rej503 int
	for r := range results {
		switch r.status {
		case http.StatusOK:
			ok200++
		case http.StatusServiceUnavailable:
			rej503++
			if r.retryAfter != "30" {
				t.Errorf("Retry-After = %q, want %q", r.retryAfter, "30")
			}
		default:
			t.Errorf("unexpected status %d", r.status)
		}
	}
	if ok200 != 12 || rej503 != 88 {
		t.Errorf("outcomes = %d ok / %d rejected, want 12 / 88", ok200, rej503)
	}
	if got := src.maxSeen.Load(); got != 4 {
		t.Errorf("max concurrent evaluations = %d, want 4", got)
	}

	after := reg.Snapshot()
	wantCounters(t, "overload burst", before, after, map[string]int64{
		"endpoint_requests_total":  100,
		"admission_admitted_total": 12,
		"admission_queued_total":   8,
		"admission_shed_total":     88,
		"admission_evicted_total":  0,
	})
	// 8 queue waits were observed, and the fake clock never advanced,
	// so the wait histogram counts 8 and sums to zero.
	wantHistogram(t, "overload burst", before, after, "admission_queue_wait_seconds", 8)
}

// TestBudgetErrorEndToEnd runs an over-budget query against the live
// endpoint and asserts the structured degradation: HTTP 503 with the
// budget_exceeded JSON error instead of a hang or a truncated answer.
func TestBudgetErrorEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	store := overloadStore(5)
	opts := endpoint.Options{Limits: admission.Limits{MaxRows: 2}}
	srv := httptest.NewServer(endpoint.NewHandlerOpts(store, reg, opts))
	defer srv.Close()
	before := reg.Snapshot()

	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var body struct {
		Error struct {
			Code  string `json:"code"`
			Kind  string `json:"kind"`
			Limit int64  `json:"limit"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != "budget_exceeded" || body.Error.Kind != "rows" || body.Error.Limit != 2 {
		t.Errorf("error = %+v, want budget_exceeded/rows/2", body.Error)
	}

	// An under-budget query over the same server still answers in full.
	resp2, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s <http://ex.org/p> "a" }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("under-budget status = %d, want 200", resp2.StatusCode)
	}
	var sr struct {
		Results struct {
			Bindings []map[string]any `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results.Bindings) != 1 {
		t.Errorf("under-budget bindings = %d, want 1", len(sr.Results.Bindings))
	}

	after := reg.Snapshot()
	wantCounters(t, "budget error", before, after, map[string]int64{
		`admission_budget_exceeded_total{kind="rows"}`: 1,
		"endpoint_requests_total":                      2,
	})
}
