package faults

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"applab/internal/rdf"
)

func TestScriptSequencing(t *testing.T) {
	s := Seq(Step{Kind: ConnError}, Step{Kind: Status, Code: 503})
	if got := s.Next(); got.Kind != ConnError {
		t.Fatalf("step 1 = %v", got.Kind)
	}
	if got := s.Next(); got.Kind != Status || got.Code != 503 {
		t.Fatalf("step 2 = %+v", got)
	}
	for i := 0; i < 3; i++ {
		if got := s.Next(); got.Kind != OK {
			t.Fatalf("exhausted script must yield OK, got %v", got.Kind)
		}
	}
	if s.Calls() != 5 {
		t.Errorf("calls = %d, want 5", s.Calls())
	}
}

func TestFailNThenSuccess(t *testing.T) {
	s := FailN(2, Step{Kind: ConnError})
	if s.Next().Kind != ConnError || s.Next().Kind != ConnError {
		t.Fatal("first two steps must fail")
	}
	if s.Next().Kind != OK {
		t.Fatal("third step must succeed")
	}
}

func TestFromSeedDeterministic(t *testing.T) {
	a := FromSeed(42, 50, 0.5)
	b := FromSeed(42, 50, 0.5)
	if !reflect.DeepEqual(a.steps, b.steps) {
		t.Fatal("same seed must produce identical scripts")
	}
	fails := 0
	for _, st := range a.steps {
		if st.Kind != OK {
			fails++
		}
	}
	if fails == 0 || fails == 50 {
		t.Errorf("rate 0.5 over 50 steps produced %d failures", fails)
	}
}

func TestRoundTripperModes(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("hello world"))
	}))
	defer ts.Close()

	rt := NewRoundTripper(Seq(
		Step{Kind: ConnError},
		Step{Kind: Status, Code: 502},
		Step{Kind: Truncate, KeepBytes: 5},
	), nil)
	client := &http.Client{Transport: rt}

	if _, err := client.Get(ts.URL); err == nil {
		t.Fatal("ConnError step must fail the request")
	}
	resp, err := client.Get(ts.URL)
	if err != nil || resp.StatusCode != 502 {
		t.Fatalf("Status step: resp=%v err=%v", resp, err)
	}
	resp.Body.Close()
	resp, err = client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello" {
		t.Fatalf("Truncate kept %q, want \"hello\"", body)
	}
	// Exhausted script passes through.
	resp, err = client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello world" {
		t.Fatalf("OK step body = %q", body)
	}
}

func TestRoundTripperHangHonoursContext(t *testing.T) {
	rt := NewRoundTripper(Seq(Step{Kind: Hang}), nil)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://unused.invalid/", nil)
	errCh := make(chan error, 1)
	go func() {
		_, err := rt.RoundTrip(req)
		errCh <- err
	}()
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("hung request must fail when its context is cancelled")
	}
}

func TestRoundTripperHangRelease(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("back"))
	}))
	defer ts.Close()
	rt := NewRoundTripper(Seq(Step{Kind: Hang}), nil)
	client := &http.Client{Transport: rt}
	resCh := make(chan string, 1)
	go func() {
		resp, err := client.Get(ts.URL)
		if err != nil {
			resCh <- "error: " + err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resCh <- string(body)
	}()
	rt.Release()
	if got := <-resCh; got != "back" {
		t.Fatalf("released hang = %q", got)
	}
}

type fixedSource struct{ triples []rdf.Triple }

func (f fixedSource) Match(s, p, o rdf.Term) []rdf.Triple { return f.triples }

func TestSourceInjection(t *testing.T) {
	inner := fixedSource{triples: []rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("a"), rdf.NewIRI("b"), rdf.NewIRI("c")),
		rdf.NewTriple(rdf.NewIRI("d"), rdf.NewIRI("e"), rdf.NewIRI("f")),
	}}
	src := NewSource(inner, Seq(
		Step{Kind: ConnError},
		Step{Kind: Truncate, KeepBytes: 1},
	))
	if _, err := src.MatchErr(rdf.Term{}, rdf.Term{}, rdf.Term{}); err == nil {
		t.Fatal("ConnError step must surface an error")
	}
	triples, err := src.MatchErr(rdf.Term{}, rdf.Term{}, rdf.Term{})
	if err != nil || len(triples) != 1 {
		t.Fatalf("Truncate step: %d triples, err=%v", len(triples), err)
	}
	if got := src.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}); len(got) != 2 {
		t.Fatalf("exhausted script Match = %d triples", len(got))
	}
}

// TestSourcePassThroughKeepsInnerErrors: a pass-through step, and a
// Truncate step, over a failing source return the inner source's error
// rather than an empty answer.
func TestSourcePassThroughKeepsInnerErrors(t *testing.T) {
	for _, outer := range []*Script{Seq(), Seq(Step{Kind: Truncate, KeepBytes: 1})} {
		inner := NewSource(fixedSource{}, Seq(Step{Kind: ConnError}))
		triples, err := NewSource(inner, outer).MatchErr(rdf.Term{}, rdf.Term{}, rdf.Term{})
		var injected *InjectedError
		if !errors.As(err, &injected) || len(triples) != 0 {
			t.Fatalf("pass-through over a ConnError source: %d triples, err=%v", len(triples), err)
		}
	}
}

func TestSourceHangRelease(t *testing.T) {
	src := NewSource(fixedSource{}, Seq(Step{Kind: Hang}))
	done := make(chan struct{})
	go func() {
		src.Match(rdf.Term{}, rdf.Term{}, rdf.Term{})
		close(done)
	}()
	src.Release()
	<-done
}

func TestClock(t *testing.T) {
	start := time.Date(2019, 3, 26, 0, 0, 0, 0, time.UTC) // EDBT 2019
	clk := NewClock(start)
	if !clk.Now().Equal(start) {
		t.Fatal("clock must start frozen at start")
	}
	ch := clk.After(10 * time.Minute)
	select {
	case <-ch:
		t.Fatal("timer fired before Advance")
	default:
	}
	clk.Advance(9 * time.Minute)
	select {
	case <-ch:
		t.Fatal("timer fired early")
	default:
	}
	clk.Advance(time.Minute)
	select {
	case at := <-ch:
		if !at.Equal(start.Add(10 * time.Minute)) {
			t.Fatalf("timer fired at %v", at)
		}
	default:
		t.Fatal("timer must fire once due")
	}
	// d <= 0 fires immediately; AwaitTimers sees both registrations.
	<-clk.After(0)
	clk.AwaitTimers(2)
	if clk.Timers() != 2 {
		t.Fatalf("timers = %d", clk.Timers())
	}
}

func TestTruncationsDeterministic(t *testing.T) {
	data := []byte("ANC1 some encoded dataset bytes")
	a := Truncations(data, 7, 10)
	b := Truncations(data, 7, 10)
	if len(a) != 10 || !reflect.DeepEqual(a, b) {
		t.Fatal("Truncations must be deterministic per seed")
	}
	for i, v := range a {
		if len(v) > len(data) {
			t.Errorf("variant %d grew: %d > %d", i, len(v), len(data))
		}
	}
}
