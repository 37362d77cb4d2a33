package opendap

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"applab/internal/faults"
	"applab/internal/netcdf"
	"applab/internal/telemetry"
)

// get sends one raw .dods request with the given If-None-Match fields
// and returns the status, the ETag and the body.
func get(t *testing.T, method, url string, ifNoneMatch ...string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ifNoneMatch {
		req.Header.Add("If-None-Match", v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), string(body)
}

// The server side of revalidation, field by field as RFC 9110 §13.1.2
// and §13.2.2 put it: If-None-Match is weakly compared with the
// answer's strong ETag, "*" matches any answer that exists, and a match
// is 304 for GET and HEAD and 412 otherwise.
func TestServerConditionalMatrix(t *testing.T) {
	srv := NewServer()
	srv.Publish(testDataset(t))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	u := ts.URL + "/lai.dods?LAI[0:1][0:9][0:9]"

	code, tag, body := get(t, http.MethodGet, u)
	if code != http.StatusOK || body == "" {
		t.Fatalf("unconditional: %d, %d body bytes", code, len(body))
	}
	if len(tag) < 3 || tag[0] != '"' || tag[len(tag)-1] != '"' {
		t.Fatalf("ETag %q is not a strong entity tag", tag)
	}
	for _, c := range []struct {
		name   string
		method string
		fields []string
		want   int
	}{
		{"matching tag", http.MethodGet, []string{tag}, http.StatusNotModified},
		{"matching tag, HEAD", http.MethodHead, []string{tag}, http.StatusNotModified},
		{"matching tag, POST", http.MethodPost, []string{tag}, http.StatusPreconditionFailed},
		{"weak form of the tag", http.MethodGet, []string{"W/" + tag}, http.StatusNotModified},
		{"mismatched tag", http.MethodGet, []string{`"0123"`}, http.StatusOK},
		{"the tag without quotes", http.MethodGet, []string{strings.Trim(tag, `"`)}, http.StatusOK},
		{"star", http.MethodGet, []string{"*"}, http.StatusNotModified},
		{"list holding the tag", http.MethodGet, []string{`"a,b", W/"x" ,` + tag}, http.StatusNotModified},
		{"list without the tag", http.MethodGet, []string{`"a", W/"b"`}, http.StatusOK},
		{"tag in a second field", http.MethodGet, []string{`"a"`, tag}, http.StatusNotModified},
		{"malformed field", http.MethodGet, []string{`"unterminated, ` + tag}, http.StatusOK},
		{"empty field", http.MethodGet, []string{""}, http.StatusOK},
	} {
		code, got, body := get(t, c.method, u, c.fields...)
		if code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
		if got != tag {
			t.Errorf("%s: ETag %q, want %q", c.name, got, tag)
		}
		if code == http.StatusNotModified && body != "" {
			t.Errorf("%s: a 304 carries %d body bytes", c.name, len(body))
		}
	}

	// Two spellings of one constraint share the validator; another
	// constraint has its own.
	if _, same, _ := get(t, http.MethodGet, ts.URL+"/lai.dods?LAI[0:1:1][0:9][0:1:9]"); same != tag {
		t.Errorf("canonical constraint: ETag %q, want %q", same, tag)
	}
	if _, other, _ := get(t, http.MethodGet, ts.URL+"/lai.dods?LAI[0:0][0:9][0:9]"); other == tag {
		t.Error("two constraints share an ETag")
	}

	// A bad constraint is a 400 whatever the validator says.
	for _, ce := range []string{"LAI[0:1", "missing", "LAI[0:1][0:9]", "LAI[0:9][0:9][0:9]"} {
		for _, field := range []string{tag, "*"} {
			if code, _, _ := get(t, http.MethodGet, ts.URL+"/lai.dods?"+ce, field); code != http.StatusBadRequest {
				t.Errorf("constraint %q, If-None-Match %s: status %d, want 400", ce, field, code)
			}
		}
	}
}

// A republished product is revalidated by content, not by pointer:
// identical content keeps the tag, changed content gets a 200 and a
// new one.
func TestServerRepublishValidators(t *testing.T) {
	srv := NewServer()
	srv.Publish(testDataset(t))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	u := ts.URL + "/lai.dods?LAI"
	_, tag, _ := get(t, http.MethodGet, u)

	srv.Publish(testDataset(t))
	if code, got, _ := get(t, http.MethodGet, u, tag); code != http.StatusNotModified || got != tag {
		t.Fatalf("identical republish: %d, ETag %q; want 304, %q", code, got, tag)
	}
	for name, edit := range map[string]func(d *netcdf.Dataset){
		"a value":        func(d *netcdf.Dataset) { v, _ := d.Var("LAI"); v.Data[399] = -1 },
		"an attribute":   func(d *netcdf.Dataset) { d.Attrs["title"] = "LAI v2" },
		"the time units": func(d *netcdf.Dataset) { v, _ := d.Var("time"); v.Attrs["units"] = "days since 2019-01-01" },
	} {
		d := testDataset(t)
		edit(d)
		srv.Publish(d)
		code, got, body := get(t, http.MethodGet, u, tag)
		if code != http.StatusOK || got == tag || got == "" || body == "" {
			t.Errorf("%s changed: %d, ETag %q, %d body bytes; want 200 and a new tag", name, code, got, len(body))
		}
		srv.Publish(testDataset(t))
	}
}

// Authorization and the simulated link run before validators are
// looked at: a valid tag without a token is still a 401, and a 304
// still waits out the latency.
func TestServerConditionalAfterAuthAndLatency(t *testing.T) {
	srv := NewServer()
	srv.Publish(testDataset(t))
	srv.Auth = NewAccessControl()
	srv.Auth.Register("secret", "alice")
	ts := httptest.NewServer(srv)
	defer ts.Close()
	u := ts.URL + "/lai.dods?token=secret&LAI"
	code, tag, _ := get(t, http.MethodGet, u)
	if code != http.StatusOK || tag == "" {
		t.Fatalf("authorized fetch: %d, ETag %q", code, tag)
	}
	if code, _, _ := get(t, http.MethodGet, ts.URL+"/lai.dods?LAI", tag); code != http.StatusUnauthorized {
		t.Fatalf("no token, valid tag: status %d, want 401", code)
	}
	if code, _, _ := get(t, http.MethodGet, u, tag); code != http.StatusNotModified {
		t.Fatalf("token and valid tag: status %d, want 304", code)
	}
	if n := srv.Auth.Usage("alice", "lai"); n != 2 {
		t.Fatalf("usage = %d, want 2 (a 304 is an access)", n)
	}

	srv.Latency = 40 * time.Millisecond
	start := time.Now()
	if code, _, _ := get(t, http.MethodGet, u, tag); code != http.StatusNotModified {
		t.Fatalf("status %d, want 304", code)
	}
	if d := time.Since(start); d < srv.Latency {
		t.Fatalf("a 304 took %v, less than the %v latency", d, srv.Latency)
	}
}

// The client side: a conditional fetch of an unchanged answer decodes
// nothing and is one request, a breaker success, never retried; a 304
// nobody asked for is an error.
func TestFetchIfChanged(t *testing.T) {
	srv := NewServer()
	srv.Publish(testDataset(t))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Metrics = telemetry.NewRegistry()
	c.MaxRetries = 2
	c.Sleep = func(time.Duration) {}
	c.Breaker = NewBreaker(2, time.Minute)
	ctx := context.Background()

	ds, tag, err := c.FetchIfChanged(ctx, "lai", laiConstraint, "")
	if err != nil || ds == nil || tag == "" {
		t.Fatalf("unconditional: ds %v, tag %q, %v", ds != nil, tag, err)
	}
	before := srv.Requests()
	// One transport failure first: the 304 of the retry closes the
	// breaker's count again.
	c.HTTP = &http.Client{Transport: faults.NewRoundTripper(faults.FailN(1, faults.Step{Kind: faults.ConnError}), nil)}
	ds, got, err := c.FetchIfChanged(ctx, "lai", laiConstraint, tag)
	if err != nil || ds != nil || got != tag {
		t.Fatalf("revalidation: ds %v, tag %q, %v; want nil, %q", ds != nil, got, err, tag)
	}
	if n := srv.Requests() - before; n != 1 {
		t.Fatalf("revalidation reached the server %d times, want 1", n)
	}
	if f := c.Breaker.ConsecutiveFailures(); f != 0 || c.Breaker.State() != BreakerClosed {
		t.Fatalf("breaker after a 304: %d failures, %v", f, c.Breaker.State())
	}
	counters := c.Metrics.Snapshot().Counters
	if counters["opendap_not_modified_total"] != 1 || counters["opendap_retries_total"] != 1 {
		t.Fatalf("counters = %v; want one 304 and the one retry of the transport failure", counters)
	}

	// A stale tag gets the full answer and the current tag.
	ds, got, err = c.FetchIfChanged(ctx, "lai", laiConstraint, `"stale"`)
	if err != nil || ds == nil || got != tag {
		t.Fatalf("stale tag: ds %v, tag %q, %v", ds != nil, got, err)
	}

	// A server that answers 304 to an unconditional request is wrong:
	// the fetch fails at once, without retries or a breaker fault.
	before = srv.Requests()
	c.HTTP = &http.Client{Transport: faults.NewRoundTripper(
		faults.FailN(1, faults.Step{Kind: faults.Status, Code: http.StatusNotModified}), nil)}
	if _, err := c.Fetch(ctx, "lai", laiConstraint); err == nil || !strings.Contains(err.Error(), "unconditional") {
		t.Fatalf("unasked 304: err = %v", err)
	}
	if n := srv.Requests() - before; n != 0 {
		t.Fatalf("an unasked 304 was retried: %d more requests", n)
	}
	if f := c.Breaker.ConsecutiveFailures(); f != 0 {
		t.Fatalf("an unasked 304 counted against the breaker: %d failures", f)
	}
}
