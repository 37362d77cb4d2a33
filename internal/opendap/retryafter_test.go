package opendap

// A shedding OPeNDAP server (503 + Retry-After) must shape the client's
// backoff: the hinted delay replaces the exponential schedule, capped at
// the configured maximum backoff. Sleeps are recorded, never taken.

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// newSheddingClient fronts a live DAP server with a handler that sheds
// the first fail requests with 503 + the given Retry-After header.
func newSheddingClient(t *testing.T, fail int, retryAfter string) (*Client, *[]time.Duration, func()) {
	t.Helper()
	srv := NewServer()
	srv.Publish(testDataset(t))
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if int(calls.Add(1)) <= fail {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, "shedding load", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	var slept []time.Duration
	c := NewClient(ts.URL)
	c.MaxRetries = 3
	c.Sleep = func(d time.Duration) { slept = append(slept, d) }
	c.Jitter = func(d time.Duration) time.Duration { return d }
	return c, &slept, ts.Close
}

func TestRetryAfterShapesBackoff(t *testing.T) {
	cases := []struct {
		name       string
		fail       int
		retryAfter string
		wantSleeps []time.Duration
	}{
		{"hint replaces schedule", 2, "2",
			[]time.Duration{2 * time.Second, 2 * time.Second}},
		{"hint capped at max backoff", 1, "60",
			[]time.Duration{5 * time.Second}},
		{"no hint falls back to exponential", 2, "",
			[]time.Duration{100 * time.Millisecond, 200 * time.Millisecond}},
		{"malformed hint ignored", 1, "later",
			[]time.Duration{100 * time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, slept, closeFn := newSheddingClient(t, tc.fail, tc.retryAfter)
			defer closeFn()
			if _, err := c.Fetch(ctx, "lai", laiConstraint); err != nil {
				t.Fatal(err)
			}
			if len(*slept) != len(tc.wantSleeps) {
				t.Fatalf("slept %v, want %v", *slept, tc.wantSleeps)
			}
			for i, w := range tc.wantSleeps {
				if (*slept)[i] != w {
					t.Errorf("sleep %d = %v, want %v", i, (*slept)[i], w)
				}
			}
		})
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"7", 7 * time.Second},
		{" 7 ", 7 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
