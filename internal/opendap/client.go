package opendap

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"applab/internal/netcdf"
	"applab/internal/telemetry"
)

// Client talks to an OPeNDAP server. The zero-value resilience knobs
// make one attempt with no deadline of its own and no breaker (the
// commands take theirs from core.Defaults). Every request is an
// idempotent GET, so retrying is safe, under the caller's context.
type Client struct {
	// Base is the server base URL, e.g. "http://host:port".
	Base string
	// HTTP is the transport; http.DefaultClient when nil.
	HTTP *http.Client
	// Token, when set, authenticates data requests against a server with
	// access control enabled.
	Token string

	// Timeout bounds each individual request attempt; 0 means no
	// deadline (the historic behaviour).
	Timeout time.Duration
	// MaxRetries is how many additional attempts follow a retryable
	// failure (transport error, 5xx, truncated/corrupt body); 0 disables
	// retrying.
	MaxRetries int
	// Breaker, when set, fail-fasts requests after consecutive upstream
	// failures instead of stacking them behind timeouts.
	Breaker *Breaker

	// Metrics, when set, records fetch latency, retries and final
	// failures (see metrics.go). Nil disables instrumentation at zero
	// cost.
	Metrics *telemetry.Registry
	// Now is the latency clock used for the fetch histogram; time.Now
	// when nil. Tests drive it from a faults.Clock so observed
	// durations are exact.
	Now func() time.Time

	// Sleep is the backoff hook; time.Sleep when nil. Tests install a
	// recorder so the retry matrix runs with zero real-time sleeps.
	Sleep func(time.Duration)
	// After is the deadline clock hook; time.After when nil. Tests drive
	// it from a faults.Clock.
	After func(time.Duration) <-chan time.Time
	// Jitter maps a backoff duration to the actually slept duration;
	// the default picks uniformly from [d/2, d] using a per-client PRNG
	// seeded from the base URL, so a client's retry schedule is
	// reproducible run to run and clients for different upstreams don't
	// contend on (or perturb) the global rand source.
	Jitter func(time.Duration) time.Duration

	jitterMu   sync.Mutex
	jitterRand *rand.Rand
}

// The exponential backoff between attempts starts at backoffBase and
// doubles up to backoffMax; a server's Retry-After hint is capped at
// backoffMax too.
const (
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
)

// NewClient returns a client for the given base URL with zero knobs.
func NewClient(base string) *Client { return &Client{Base: base} }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// sleep waits d, or until ctx is done.
func (c *Client) sleep(ctx context.Context, d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func (c *Client) after(d time.Duration) <-chan time.Time {
	if c.After != nil {
		return c.After(d)
	}
	return time.After(d)
}

func (c *Client) clock() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// backoff computes the sleep before retry attempt n (n >= 1).
func (c *Client) backoff(attempt int) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	if c.Jitter != nil {
		return c.Jitter(d)
	}
	c.jitterMu.Lock()
	if c.jitterRand == nil {
		h := fnv.New64a()
		h.Write([]byte(c.Base))
		c.jitterRand = rand.New(rand.NewSource(int64(h.Sum64())))
	}
	j := c.jitterRand.Int63n(int64(d/2) + 1)
	c.jitterMu.Unlock()
	return d/2 + time.Duration(j)
}

// buildURL joins the base URL with a request path and raw query. Using
// url.Parse (rather than string concatenation) keeps trailing slashes,
// empty tokens and escaping correct by construction.
func (c *Client) buildURL(path, rawQuery string) (string, error) {
	base, err := url.Parse(c.Base)
	if err != nil {
		return "", fmt.Errorf("opendap: bad base URL %q: %v", c.Base, err)
	}
	u := *base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	u.RawQuery = rawQuery
	return u.String(), nil
}

// attempt is the outcome of a single request attempt.
type attempt struct {
	body []byte
	// etag is the response's ETag, "" when the server sent none.
	etag string
	// notModified marks a 304 to a conditional request: the answer the
	// caller holds stands, and there is no body to decode.
	notModified bool
	err         error
	// retryable marks failures worth another attempt (transport errors,
	// 5xx, short reads). 4xx responses are final.
	retryable bool
	// upstreamFault marks failures that count against the breaker. A 4xx
	// means the upstream is alive and answering, so it does not.
	upstreamFault bool
	// retryAfter is the server's Retry-After hint on a retryable
	// response (0 when absent): a shedding server shapes our backoff.
	retryAfter time.Duration
}

// parseRetryAfter reads the delay-seconds form of a Retry-After header.
// The HTTP-date form is ignored (no wall clock in this package's hot
// path — determinism under faults.Clock matters more than a rare
// header variant).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// once performs a single GET attempt with the per-request deadline,
// conditional on ifNoneMatch when it is not empty.
func (c *Client) once(ctx context.Context, u, ifNoneMatch string) attempt {
	var timedOut atomic.Bool
	if c.Timeout > 0 {
		tctx, cancel := context.WithCancel(ctx)
		defer cancel()
		stop := make(chan struct{})
		defer close(stop)
		timer := c.after(c.Timeout)
		go func() {
			select {
			case <-timer:
				timedOut.Store(true)
				cancel()
			case <-stop:
			}
		}()
		ctx = tctx
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return attempt{err: fmt.Errorf("opendap: GET %s: %v", u, err)}
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		if timedOut.Load() {
			err = fmt.Errorf("opendap: GET %s: deadline %v exceeded: %v", u, c.Timeout, err)
		} else {
			err = fmt.Errorf("opendap: GET %s: %v", u, err)
		}
		return attempt{err: err, retryable: true, upstreamFault: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		if ifNoneMatch == "" {
			// The upstream answered, wrongly: final, not its fault.
			return attempt{err: fmt.Errorf("opendap: %s: 304 Not Modified to an unconditional request", u)}
		}
		return attempt{notModified: true, etag: resp.Header.Get("ETag")}
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return attempt{err: fmt.Errorf("opendap: read %s: %v", u, err),
			retryable: true, upstreamFault: true}
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("opendap: %s: %s: %s", u, resp.Status, string(body))
		if resp.StatusCode >= 500 {
			return attempt{err: err, retryable: true, upstreamFault: true,
				retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
		}
		return attempt{err: err}
	}
	return attempt{body: body, etag: resp.Header.Get("ETag")}
}

// doCtx runs the full resilient request cycle under the caller's
// context: breaker admission, bounded retries with backoff, per-attempt
// deadline, and decode validation (a body that fails to decode is
// treated like a truncated stream and retried). When a failed attempt
// carried a server Retry-After hint, the next backoff honors it —
// capped at backoffMax and without jitter, so a shedding server shapes
// client retry traffic exactly. A non-empty ifNoneMatch makes every
// attempt conditional: a 304 is a success with nothing to decode, and
// the returned attempt says so.
//
// Cancellation is the caller's abort, not an upstream fault: ctx aborts
// the in-flight attempt (requests carry it) and a backoff sleep, and an
// attempt that fails because ctx is done is neither recorded on the
// breaker nor retried nor counted as a request error. The returned
// error wraps ctx.Err().
func (c *Client) doCtx(ctx context.Context, path, rawQuery, ifNoneMatch string, decode func([]byte) error) (attempt, error) {
	u, err := c.buildURL(path, rawQuery)
	if err != nil {
		return attempt{}, err
	}
	attempts := c.MaxRetries + 1
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	aborted := func() (attempt, error) {
		if lastErr != nil {
			return attempt{}, fmt.Errorf("opendap: GET %s: %w (last attempt: %v)", u, ctx.Err(), lastErr)
		}
		return attempt{}, fmt.Errorf("opendap: GET %s: %w", u, ctx.Err())
	}
	var serverHint time.Duration
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.metricRetries().Inc()
			d := c.backoff(i)
			if serverHint > 0 {
				d = min(serverHint, backoffMax)
			}
			c.sleep(ctx, d)
		}
		if ctx.Err() != nil {
			return aborted()
		}
		if b := c.Breaker; b != nil {
			if err := b.Allow(); err != nil {
				c.metricRequestErrors().Inc()
				if lastErr != nil {
					return attempt{}, fmt.Errorf("%w (last attempt: %v)", err, lastErr)
				}
				return attempt{}, err
			}
		}
		start := c.clock()
		a := c.once(ctx, u, ifNoneMatch)
		c.metricFetchSeconds().ObserveDuration(c.clock().Sub(start))
		serverHint = a.retryAfter
		if a.err == nil && !a.notModified && decode != nil {
			if derr := decode(a.body); derr != nil {
				a = attempt{err: fmt.Errorf("opendap: decode %s: %v", u, derr),
					retryable: true, upstreamFault: true}
			}
		}
		if a.err != nil && ctx.Err() != nil {
			c.Breaker.release()
			return aborted()
		}
		if b := c.Breaker; b != nil {
			if a.upstreamFault {
				b.Record(a.err)
			} else {
				b.Record(nil)
			}
		}
		if a.err == nil {
			if a.notModified {
				c.metricNotModified().Inc()
			}
			return a, nil
		}
		lastErr = a.err
		if !a.retryable {
			c.metricRequestErrors().Inc()
			return attempt{}, a.err
		}
	}
	c.metricRequestErrors().Inc()
	if attempts > 1 {
		return attempt{}, fmt.Errorf("opendap: giving up after %d attempts: %w", attempts, lastErr)
	}
	return attempt{}, lastErr
}

func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	a, err := c.doCtx(ctx, path, "", "", nil)
	return a.body, err
}

// Catalog lists the datasets published by the server.
func (c *Client) Catalog(ctx context.Context) ([]string, error) {
	body, err := c.get(ctx, "/catalog")
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, nil
	}
	return splitLines(string(body)), nil
}

// DDS fetches the structure document of a dataset.
func (c *Client) DDS(ctx context.Context, name string) (string, error) {
	body, err := c.get(ctx, "/"+name+".dds")
	return string(body), err
}

// DAS fetches the attribute document of a dataset.
func (c *Client) DAS(ctx context.Context, name string) (string, error) {
	body, err := c.get(ctx, "/"+name+".das")
	return string(body), err
}

// NcML fetches the combined NcML document of a dataset.
func (c *Client) NcML(ctx context.Context, name string) (string, error) {
	body, err := c.get(ctx, "/"+name+".ncml")
	return string(body), err
}

// Fetch retrieves a hyperslab of a dataset variable. An empty range list
// requests the whole array. The constraint expression and token travel
// in the query string with standard query escaping (the server strips
// the token pair and unescapes the rest). It is FetchIfChanged with no
// validator.
func (c *Client) Fetch(ctx context.Context, name string, constraint Constraint) (*netcdf.Dataset, error) {
	ds, _, err := c.FetchIfChanged(ctx, name, constraint, "")
	return ds, err
}

// FetchIfChanged is Fetch made conditional on etag, the
// validator the server sent with an earlier answer to the same
// constraint. When the server reports that answer unchanged (304 Not
// Modified) it returns a nil dataset, having decoded nothing. An empty
// etag fetches unconditionally, and a 304 to that is an error. The
// returned validator is the server's ETag ("" when it sent none; etag
// itself on a 304 without one).
func (c *Client) FetchIfChanged(ctx context.Context, name string, constraint Constraint, etag string) (*netcdf.Dataset, string, error) {
	rawQuery := url.QueryEscape(constraint.String())
	if c.Token != "" {
		rawQuery = "token=" + url.QueryEscape(c.Token) + "&" + rawQuery
	}
	var ds *netcdf.Dataset
	a, err := c.doCtx(ctx, "/"+name+".dods", rawQuery, etag, func(body []byte) error {
		d, derr := netcdf.Read(bytes.NewReader(body))
		if derr != nil {
			return derr
		}
		ds = d
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	if a.notModified && a.etag == "" {
		return nil, etag, nil
	}
	return ds, a.etag, nil
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
