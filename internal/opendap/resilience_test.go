package opendap

// Resilience matrix for the remote OPeNDAP path, driven entirely by the
// internal/faults harness: retries with backoff, circuit breaking,
// per-request deadlines and stale-while-error caching — all with fake
// clocks and recorded sleeps, so the whole file runs under -race with
// zero real-time waits.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"applab/internal/faults"
	"applab/internal/netcdf"
	"applab/internal/telemetry"
)

// newFaultyClient wires a test server, a fault script and a client with
// retries enabled and instant recorded sleeps.
func newFaultyClient(t *testing.T, script *faults.Script) (*Client, *[]time.Duration, func()) {
	t.Helper()
	srv := NewServer()
	srv.Publish(testDataset(t))
	ts := httptest.NewServer(srv)
	var slept []time.Duration
	c := NewClient(ts.URL)
	c.HTTP = &http.Client{Transport: faults.NewRoundTripper(script, nil)}
	c.MaxRetries = 3
	c.Sleep = func(d time.Duration) { slept = append(slept, d) }
	c.Jitter = func(d time.Duration) time.Duration { return d } // deterministic backoff
	return c, &slept, ts.Close
}

var laiConstraint = Constraint{Var: "LAI", Ranges: []netcdf.Range{
	{Start: 0, Stride: 1, Stop: 1}, {Start: 0, Stride: 1, Stop: 1}, {Start: 0, Stride: 1, Stop: 1}}}

func TestRetryMatrix(t *testing.T) {
	cases := []struct {
		name    string
		script  *faults.Script
		retries int
		wantErr bool
		// wantSleeps is how many backoff sleeps must have been recorded.
		wantSleeps int
	}{
		{"no faults", faults.Seq(), 3, false, 0},
		{"conn error then success", faults.FailN(1, faults.Step{Kind: faults.ConnError}), 3, false, 1},
		{"500s then success", faults.FailN(2, faults.Step{Kind: faults.Status, Code: 500}), 3, false, 2},
		{"truncated body then success", faults.FailN(1, faults.Step{Kind: faults.Truncate, KeepBytes: 7}), 3, false, 1},
		{"retries exhausted", faults.FailN(10, faults.Step{Kind: faults.ConnError}), 3, true, 3},
		{"mixed faults then success", faults.Seq(
			faults.Step{Kind: faults.ConnError},
			faults.Step{Kind: faults.Status, Code: 503},
			faults.Step{Kind: faults.Truncate, KeepBytes: 2},
		), 3, false, 3},
		{"4xx is final, no retry", faults.FailN(5, faults.Step{Kind: faults.Status, Code: 404}), 3, true, 0},
		{"retries disabled", faults.FailN(1, faults.Step{Kind: faults.ConnError}), 0, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, slept, closeFn := newFaultyClient(t, tc.script)
			defer closeFn()
			c.MaxRetries = tc.retries
			ds, err := c.Fetch(ctx, "lai", laiConstraint)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if v, ok := ds.Var("LAI"); !ok || len(v.Data) != 8 {
					t.Fatalf("fetched %+v", ds)
				}
			}
			if len(*slept) != tc.wantSleeps {
				t.Errorf("slept %d times (%v), want %d", len(*slept), *slept, tc.wantSleeps)
			}
		})
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	c := &Client{Jitter: func(d time.Duration) time.Duration { return d }}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		3200 * time.Millisecond, 5 * time.Second, 5 * time.Second}
	for i, w := range want {
		if got := c.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Default jitter stays within [d/2, d].
	c.Jitter = nil
	for i := 0; i < 50; i++ {
		d := c.backoff(2)
		if d < 100*time.Millisecond || d > 200*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [100ms, 200ms]", d)
		}
	}
}

// TestBackoffJitterDeterministicPerClient: the default jitter is drawn
// from a per-client PRNG seeded by the base URL, so two clients for the
// same upstream produce identical retry schedules (reproducible fault
// investigations) while clients for different upstreams decorrelate.
func TestBackoffJitterDeterministicPerClient(t *testing.T) {
	schedule := func(base string) []time.Duration {
		c := &Client{Base: base}
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = c.backoff(i + 1)
		}
		return out
	}
	a, b := schedule("http://dap.example/a"), schedule("http://dap.example/a")
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if !same {
		t.Fatalf("same-base clients diverged:\n%v\n%v", a, b)
	}
	other := schedule("http://dap.example/b")
	diff := false
	for i := range a {
		if a[i] != other[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different-base clients share a jitter stream")
	}
}

func TestBreakerOpensAndFailsFast(t *testing.T) {
	clock := faults.NewClock(time.Date(2019, 3, 26, 9, 0, 0, 0, time.UTC))
	script := faults.FailN(100, faults.Step{Kind: faults.ConnError})
	c, _, closeFn := newFaultyClient(t, script)
	defer closeFn()
	c.MaxRetries = 0
	c.Breaker = NewBreaker(3, 10*time.Second)
	c.Breaker.Now = clock.Now

	for i := 0; i < 3; i++ {
		if _, err := c.Fetch(ctx, "lai", laiConstraint); err == nil {
			t.Fatal("faulted fetch must fail")
		}
	}
	if st := c.Breaker.State(); st != BreakerOpen {
		t.Fatalf("after 3 consecutive failures state = %v", st)
	}
	calls := script.Calls()
	// Open circuit: fail fast without touching the transport.
	if _, err := c.Fetch(ctx, "lai", laiConstraint); err == nil || !strings.Contains(err.Error(), "circuit breaker open") {
		t.Fatalf("open breaker error = %v", err)
	}
	if script.Calls() != calls {
		t.Error("open breaker must not reach the transport")
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	clock := faults.NewClock(time.Date(2019, 3, 26, 9, 0, 0, 0, time.UTC))
	// 3 failures open the circuit; the probe after cooldown succeeds.
	script := faults.FailN(3, faults.Step{Kind: faults.ConnError})
	c, _, closeFn := newFaultyClient(t, script)
	defer closeFn()
	c.MaxRetries = 0
	c.Breaker = NewBreaker(3, 10*time.Second)
	c.Breaker.Now = clock.Now

	for i := 0; i < 3; i++ {
		c.Fetch(ctx, "lai", laiConstraint)
	}
	if c.Breaker.State() != BreakerOpen {
		t.Fatal("breaker must open")
	}
	// Cooldown not elapsed: still failing fast.
	clock.Advance(9 * time.Second)
	if _, err := c.Fetch(ctx, "lai", laiConstraint); err == nil || !strings.Contains(err.Error(), "circuit breaker open") {
		t.Fatalf("pre-cooldown error = %v", err)
	}
	// Cooldown elapsed: the half-open probe goes through and succeeds.
	clock.Advance(time.Second)
	if _, err := c.Fetch(ctx, "lai", laiConstraint); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if st := c.Breaker.State(); st != BreakerClosed {
		t.Fatalf("after successful probe state = %v", st)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clock := faults.NewClock(time.Date(2019, 3, 26, 9, 0, 0, 0, time.UTC))
	b := NewBreaker(2, 10*time.Second)
	b.Now = clock.Now
	b.Record(assertAllowed(t, b, nil))
	b.Record(assertAllowed(t, b, errFake))
	b.Record(assertAllowed(t, b, errFake))
	if b.State() != BreakerOpen {
		t.Fatal("breaker must open after 2 consecutive failures")
	}
	clock.Advance(10 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open must allow one probe: %v", err)
	}
	// A second concurrent request during the probe fails fast.
	if err := b.Allow(); err == nil {
		t.Fatal("only one probe may fly at a time")
	}
	b.Record(errFake)
	if b.State() != BreakerOpen {
		t.Fatal("failed probe must reopen the circuit")
	}
	// Next window: successful probe closes and resets the counter.
	clock.Advance(10 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(nil)
	if b.State() != BreakerClosed || b.ConsecutiveFailures() != 0 {
		t.Fatalf("state=%v consec=%d", b.State(), b.ConsecutiveFailures())
	}
}

// A cancellation is the caller's abort, not an upstream fault: the
// attempt it cuts short is not recorded on the breaker, retried, slept
// on or counted as a request error, and a half-open probe it abandons
// frees the circuit for the next one.
func TestCancellationIsNotAnUpstreamFault(t *testing.T) {
	clock := faults.NewClock(time.Date(2019, 3, 26, 9, 0, 0, 0, time.UTC))
	script := faults.Seq(faults.Step{Kind: faults.Hang}, faults.Step{Kind: faults.ConnError},
		faults.Step{Kind: faults.Hang})
	c, slept, closeFn := newFaultyClient(t, script)
	defer closeFn()
	rt := c.HTTP.Transport.(*faults.RoundTripper)
	defer rt.Release()
	reg := telemetry.NewRegistry()
	c.Metrics = reg
	c.Breaker = NewBreaker(1, 10*time.Second)
	c.Breaker.Now = clock.Now
	abandon := func(step string) {
		t.Helper()
		failures := c.Breaker.ConsecutiveFailures()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := c.Fetch(ctx, "lai", laiConstraint); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want the deadline", step, err)
		}
		counters := reg.Snapshot().Counters
		if n := c.Breaker.ConsecutiveFailures(); n != failures || len(*slept) != 0 ||
			counters["opendap_retries_total"] != 0 || counters["opendap_request_errors_total"] != 0 {
			t.Fatalf("%s: breaker failures %d, sleeps %v, counters %v; the abort was taken for a fault",
				step, n, *slept, counters)
		}
	}
	abandon("closed circuit")

	c.MaxRetries = 0
	if _, err := c.Fetch(ctx, "lai", laiConstraint); err == nil || c.Breaker.State() != BreakerOpen {
		t.Fatalf("a connection error must open the circuit: %v, %v", err, c.Breaker.State())
	}
	reg = telemetry.NewRegistry()
	c.Metrics = reg
	clock.Advance(10 * time.Second)
	abandon("half-open probe")
	if _, err := c.Fetch(ctx, "lai", laiConstraint); err != nil || c.Breaker.State() != BreakerClosed {
		t.Fatalf("the probe after an abandoned one: %v, %v", err, c.Breaker.State())
	}
}

var errFake = &faults.InjectedError{Op: "test failure"}

// assertAllowed asserts Allow passes and returns outcome unchanged, so
// breaker state-machine tests read as Allow/Record pairs.
func assertAllowed(t *testing.T, b *Breaker, outcome error) error {
	t.Helper()
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow: %v", err)
	}
	return outcome
}

func TestDeadlineCancelsHungUpstream(t *testing.T) {
	// The upstream hangs; the per-request deadline (driven by a fake
	// clock) cancels the attempt. No retries: the error surfaces.
	clock := faults.NewClock(time.Date(2019, 3, 26, 9, 0, 0, 0, time.UTC))
	rt := faults.NewRoundTripper(faults.Seq(faults.Step{Kind: faults.Hang}), nil)
	defer rt.Release()
	c := NewClient("http://unused.invalid")
	c.HTTP = &http.Client{Transport: rt}
	c.Timeout = 30 * time.Second
	c.After = clock.After

	errCh := make(chan error, 1)
	go func() {
		_, err := c.Fetch(ctx, "lai", laiConstraint)
		errCh <- err
	}()
	clock.AwaitTimers(1) // the attempt has registered its deadline
	clock.Advance(30 * time.Second)
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "deadline 30s exceeded") {
		t.Fatalf("hung upstream error = %v", err)
	}
}

func TestDeadlineThenRetrySucceeds(t *testing.T) {
	// First attempt hangs and is cancelled by the fake-clock deadline;
	// the retry finds a healthy upstream and the fetch succeeds — the
	// "kill one OPeNDAP upstream mid-run" acceptance path.
	clock := faults.NewClock(time.Date(2019, 3, 26, 9, 0, 0, 0, time.UTC))
	srv := NewServer()
	srv.Publish(testDataset(t))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	rt := faults.NewRoundTripper(faults.Seq(faults.Step{Kind: faults.Hang}), nil)
	defer rt.Release()
	c := NewClient(ts.URL)
	c.HTTP = &http.Client{Transport: rt}
	c.Timeout = 30 * time.Second
	c.MaxRetries = 1
	c.After = clock.After
	c.Sleep = func(time.Duration) {}

	type fetchResult struct {
		ds  *netcdf.Dataset
		err error
	}
	resCh := make(chan fetchResult, 1)
	go func() {
		ds, err := c.Fetch(ctx, "lai", laiConstraint)
		resCh <- fetchResult{ds, err}
	}()
	clock.AwaitTimers(1)
	clock.Advance(30 * time.Second)
	got := <-resCh
	if got.err != nil {
		t.Fatalf("retry after deadline failed: %v", got.err)
	}
	if v, ok := got.ds.Var("LAI"); !ok || len(v.Data) != 8 {
		t.Fatalf("fetched %+v", got.ds)
	}
}

func TestFetchURLConstruction(t *testing.T) {
	// The raw query must round-trip through the server's token stripping
	// and unescaping for every combination of token and constraint.
	var seen []string
	srv := NewServer()
	srv.Publish(testDataset(t))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, r.URL.RawQuery)
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cases := []struct {
		name  string
		token string
		base  string
	}{
		{"no token", "", ts.URL},
		{"with token", "s3cr3t&odd=chars", ts.URL},
		{"trailing slash base", "", ts.URL + "/"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClient(tc.base)
			c.Token = tc.token
			if tc.token != "" {
				ac := NewAccessControl()
				ac.Register(tc.token, "tester")
				srv.Auth = ac
				defer func() { srv.Auth = nil }()
			}
			ds, err := c.Fetch(ctx, "lai", laiConstraint)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := ds.Var("LAI"); !ok || len(v.Data) != 8 {
				t.Fatalf("fetched %+v", ds)
			}
			raw := seen[len(seen)-1]
			// Every query part must be parseable and correctly escaped;
			// the DAP constraint is the non key=value part.
			for _, part := range strings.Split(raw, "&") {
				if strings.HasPrefix(part, "token=") {
					tok, err := url.QueryUnescape(strings.TrimPrefix(part, "token="))
					if err != nil || tok != tc.token {
						t.Fatalf("token part %q round-tripped to %q (%v)", part, tok, err)
					}
					continue
				}
				ce, err := url.QueryUnescape(part)
				if err != nil {
					t.Fatalf("constraint part %q: %v", part, err)
				}
				if _, err := ParseConstraint(ce); err != nil {
					t.Fatalf("constraint %q does not parse: %v", ce, err)
				}
			}
			if strings.HasSuffix(raw, "&") || strings.HasPrefix(raw, "&") {
				t.Fatalf("malformed query %q", raw)
			}
		})
	}
}
