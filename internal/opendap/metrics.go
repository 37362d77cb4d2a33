package opendap

import (
	"applab/internal/telemetry"
)

// Metric registration helpers. Every opendap metric name literal lives
// here, one call site each (the applab-lint telemetry checker enforces
// this), and every helper is nil-safe through the registry: with no
// registry attached the handles are nil and updates no-op.

// metricFetchSeconds is the per-attempt OPeNDAP request latency,
// successful or not — the "quality of the OPeNDAP link" number from the
// paper's §5 discussion.
func (c *Client) metricFetchSeconds() *telemetry.Histogram {
	return c.Metrics.Histogram("opendap_fetch_seconds", nil)
}

// metricRetries counts retry attempts (attempts after the first).
func (c *Client) metricRetries() *telemetry.Counter {
	return c.Metrics.Counter("opendap_retries_total")
}

// metricRequestErrors counts requests that failed after all retries.
func (c *Client) metricRequestErrors() *telemetry.Counter {
	return c.Metrics.Counter("opendap_request_errors_total")
}

// metricNotModified counts fetches the server answered 304 Not
// Modified: the caller's copy stands, nothing was decoded.
func (c *Client) metricNotModified() *telemetry.Counter {
	return c.Metrics.Counter("opendap_not_modified_total")
}

// noteState records a breaker state change in the registry: a gauge of
// the current state (0 closed, 1 open, 2 half-open) and a transition
// counter labelled by destination. Called with b.mu held, which is safe:
// metric updates are lock-free.
func (b *Breaker) noteState(s BreakerState) {
	b.Metrics.Gauge("opendap_breaker_state").Set(float64(s))
	b.Metrics.Counter("opendap_breaker_transitions_total", "to", s.String()).Inc()
}

// noteServerRequest counts requests handled by the DAP server.
func (s *Server) noteServerRequest() {
	s.Metrics.Counter("opendap_server_requests_total").Inc()
}
