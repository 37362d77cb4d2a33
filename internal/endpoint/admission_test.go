package endpoint

import (
	"context"
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
	"applab/internal/faults"
	"applab/internal/rdf"
	"applab/internal/telemetry"
)

// gatedSource blocks every Match until the gate closes, simulating
// slow evaluations so a request burst piles up on the controller. It
// counts concurrently-running evaluations to prove the inflight cap.
type gatedSource struct {
	gate    chan struct{}
	g       *rdf.Graph
	active  atomic.Int32
	maxSeen atomic.Int32
}

func (s *gatedSource) Match(sub, p, o rdf.Term) []rdf.Triple {
	n := s.active.Add(1)
	for {
		m := s.maxSeen.Load()
		if n <= m || s.maxSeen.CompareAndSwap(m, n) {
			break
		}
	}
	<-s.gate
	s.active.Add(-1)
	return s.g.Match(sub, p, o)
}

func smallGraph(t *testing.T, nTriples int) *rdf.Graph {
	t.Helper()
	g := rdf.NewGraph()
	p := rdf.NewIRI("http://ex.org/p")
	for i := 0; i < nTriples; i++ {
		g.Add(rdf.NewTriple(rdf.NewIRI("http://ex.org/s"), p, rdf.NewLiteral(string(rune('a'+i)))))
	}
	return g
}

const anyQuery = `SELECT ?s WHERE { ?s ?p ?o }`

// TestHandlerOverloadBurst is the acceptance property at the HTTP
// layer: MaxInflight=4, MaxQueue=8, a 100-request burst → exactly 4
// concurrent evaluations, 8 queued, 88 shed with 503 + Retry-After,
// and the admission counters account for all 100.
func TestHandlerOverloadBurst(t *testing.T) {
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
	src := &gatedSource{gate: make(chan struct{}), g: smallGraph(t, 1)}
	srv := httptest.NewServer(NewHandlerOpts(src, reg, Options{Admission: ctrl}))
	defer srv.Close()

	const burst = 100
	type outcome struct {
		status     int
		retryAfter string
		code       string
	}
	results := make(chan outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(anyQuery))
			if err != nil {
				t.Errorf("GET: %v", err)
				return
			}
			var body struct {
				Error struct {
					Code       string `json:"code"`
					RetryAfter int    `json:"retry_after"`
				} `json:"error"`
			}
			if resp.StatusCode == http.StatusServiceUnavailable {
				json.NewDecoder(resp.Body).Decode(&body)
			} else {
				io.Copy(io.Discard, resp.Body)
			}
			resp.Body.Close()
			results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After"), body.Error.Code}
		}()
	}

	// Wait for the burst to settle: 4 evaluating, 8 queued, 88 rejected.
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
	}
	close(src.gate)
	wg.Wait()
	close(results)

	var ok200, shed503 int
	for r := range results {
		switch r.status {
		case http.StatusOK:
			ok200++
		case http.StatusServiceUnavailable:
			shed503++
			if r.retryAfter != "30" {
				t.Errorf("Retry-After = %q, want \"30\"", r.retryAfter)
			}
			if r.code != "overloaded" {
				t.Errorf("error code = %q, want \"overloaded\"", r.code)
			}
		default:
			t.Errorf("unexpected status %d", r.status)
		}
	}
	if ok200 != 12 || shed503 != 88 {
		t.Fatalf("outcomes: %d OK + %d shed, want 12 + 88", ok200, shed503)
	}
	if got := src.maxSeen.Load(); got != 4 {
		t.Errorf("max concurrent evaluations = %d, want exactly 4", got)
	}
	adm := reg.Counter("admission_admitted_total").Value()
	qd := reg.Counter("admission_queued_total").Value()
	sh := reg.Counter("admission_shed_total").Value()
	ev := reg.Counter("admission_evicted_total").Value()
	if direct := adm - (qd - ev); direct+qd+sh != burst {
		t.Errorf("counters do not sum to %d: admitted=%d queued=%d shed=%d evicted=%d", burst, adm, qd, sh, ev)
	}
	if requests := reg.Counter("endpoint_requests_total").Value(); requests != burst {
		t.Errorf("endpoint_requests_total = %d, want %d", requests, burst)
	}
}

// TestHandlerDegradedServe: with a Degraded source configured, a shed
// request that the stale view can answer gets 200 + the degraded
// header instead of 503.
func TestHandlerDegradedServe(t *testing.T) {
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
	live := &gatedSource{gate: make(chan struct{}), g: smallGraph(t, 1)}
	stale := smallGraph(t, 2) // the snapshot the cache kept
	srv := httptest.NewServer(NewHandlerOpts(live, reg, Options{Admission: ctrl, Degraded: stale}))
	defer srv.Close()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(anyQuery))
		if err != nil {
			first <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if in, _ := ctrl.Stats(); in == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the slot")
		}
	}

	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(anyQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Applab-Degraded"); got != "stale" {
		t.Fatalf("X-Applab-Degraded = %q, want \"stale\"", got)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]map[string]any `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results.Bindings) != 2 {
		t.Fatalf("degraded rows = %d, want 2 (from the stale view)", len(doc.Results.Bindings))
	}
	if got := reg.Counter("endpoint_degraded_total").Value(); got != 1 {
		t.Fatalf("endpoint_degraded_total = %d, want 1", got)
	}

	close(live.gate)
	if status := <-first; status != http.StatusOK {
		t.Fatalf("first request status = %d, want 200", status)
	}
}

// TestHandlerBudgetErrorJSON: a query over MaxRows returns the
// structured budget_exceeded JSON, not a hang or a plain 400.
func TestHandlerBudgetErrorJSON(t *testing.T) {
	reg := telemetry.NewRegistry()
	src := smallGraph(t, 5)
	srv := httptest.NewServer(NewHandlerOpts(src, reg, Options{Limits: admission.Limits{MaxRows: 2}}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(anyQuery))
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
		t.Fatalf("body = %+v, want budget_exceeded/rows/2", body.Error)
	}
	if got := reg.Counter("admission_budget_exceeded_total", "kind", "rows").Value(); got != 1 {
		t.Fatalf("budget_exceeded{kind=rows} = %d, want 1", got)
	}
}

// TestHandlerDeadlineStructured: an armed deadline whose After channel
// has already fired turns a would-be-hung evaluation into a structured
// deadline error within one check interval.
func TestHandlerDeadlineStructured(t *testing.T) {
	reg := telemetry.NewRegistry()
	fired := make(chan time.Time, 1)
	fired <- time.Time{}
	srv := httptest.NewServer(NewHandlerOpts(blockOnCtx{}, reg, Options{
		Limits: admission.Limits{Deadline: 2 * time.Second},
		After:  func(time.Duration) <-chan time.Time { return fired },
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(anyQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var body struct {
		Error struct {
			Code string `json:"code"`
			Kind string `json:"kind"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != "budget_exceeded" || body.Error.Kind != "deadline" {
		t.Fatalf("body = %+v, want budget_exceeded/deadline", body.Error)
	}
}

// blockOnCtx parks scans until the request context dies, standing in
// for an upstream that never answers.
type blockOnCtx struct{}

func (b blockOnCtx) Match(s, p, o rdf.Term) []rdf.Triple { return nil }

func (b blockOnCtx) MatchContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, error) {
	<-ctx.Done()
	return nil, admission.Check(ctx)
}

// TestNewServerTimeouts pins the slow-loris hardening on every daemon
// server.
func TestNewServerTimeouts(t *testing.T) {
	srv := NewServer(http.NewServeMux())
	if srv.ReadHeaderTimeout != DefaultReadHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %s, want %s", srv.ReadHeaderTimeout, DefaultReadHeaderTimeout)
	}
	if srv.WriteTimeout != DefaultWriteTimeout {
		t.Errorf("WriteTimeout = %s, want %s", srv.WriteTimeout, DefaultWriteTimeout)
	}
	if srv.IdleTimeout != DefaultIdleTimeout {
		t.Errorf("IdleTimeout = %s, want %s", srv.IdleTimeout, DefaultIdleTimeout)
	}
}
