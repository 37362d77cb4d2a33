package obda

// The evaluation's context is the one context on the on-the-fly read
// path: a query's deadline reaches the OPeNDAP request behind the
// virtual graph, and a cancelled fetch is the caller's abort, not an
// upstream fault.

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"applab/internal/faults"
	"applab/internal/opendap"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// A query whose deadline expires while the OPeNDAP server is still
// answering returns the deadline error at once, instead of riding out
// the client's own 10 s deadline and retries, and the abandoned attempt
// leaves the breaker, the retry counter and the backoff hook alone.
func TestDeadlineReachesTheFetch(t *testing.T) {
	db, adapter, _, closeFn := laiServer(t, 2*time.Second)
	defer closeFn()
	reg := telemetry.NewRegistry()
	c := adapter.client
	c.Timeout, c.MaxRetries, c.Metrics = 10*time.Second, 3, reg
	c.Breaker = opendap.NewBreaker(5, 10*time.Second)
	var sleeps atomic.Int32
	c.Sleep = func(time.Duration) { sleeps.Add(1) }

	ms, err := ParseMappings(listing2)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sparql.Parse(`SELECT ?s WHERE { ?s lai:lai ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = q.EvalContext(ctx, NewVirtualGraph(db, ms))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("the deadline error came after %v; the fetch ignored the query's context", elapsed)
	}
	if n := c.Breaker.ConsecutiveFailures(); n != 0 {
		t.Errorf("breaker recorded %d failures for the caller's abort", n)
	}
	if n := reg.Counter("opendap_retries_total").Value(); n != 0 {
		t.Errorf("opendap_retries_total = %d after the caller's abort", n)
	}
	if n := sleeps.Load(); n != 0 {
		t.Errorf("slept %d backoffs after the caller's abort", n)
	}
}

// ServeStale masks an outage, not the caller's abort: an expired window
// whose fetch the caller's deadline cut short fails with the deadline.
func TestServeStaleDoesNotMaskTheDeadline(t *testing.T) {
	a, _, clock := windowAdapter(t)
	a.ServeStale = true
	mustTable(t, a, "lai/LAI/", "10")
	*clock = clock.Add(20 * time.Minute)
	rt := faults.NewRoundTripper(faults.Seq(faults.Step{Kind: faults.Hang}), nil)
	defer rt.Release()
	a.client.HTTP = &http.Client{Transport: rt}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if tb, err := a.Table(ctx, []string{"lai/LAI/", "10"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Table = %v rows, %v; want the deadline", tb, err)
	}
	wantCalls(t, a, "aborted", 0, 1, 0, 2)
}
