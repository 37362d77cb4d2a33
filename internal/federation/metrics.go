package federation

import "applab/internal/scatter"

// Metric registration helpers: every federation metric name literal
// lives here, one call site each (enforced by the applab-lint telemetry
// checker), and all helpers no-op when no registry is attached.

// noteFanout counts one pattern fan-out, partial or not, and each
// member's part in it: a request sent, a failure (error or timeout), or
// a demoted member not asked at all.
func (f *Federation) noteFanout(rep Report) {
	f.Metrics.Counter("federation_fanouts_total").Inc()
	if rep.Partial {
		f.Metrics.Counter("federation_partial_total").Inc()
	}
	for _, mr := range rep.Results {
		if mr.Skipped {
			f.Metrics.Counter("federation_member_skips_total", "member", mr.Member).Inc()
			continue
		}
		f.Metrics.Counter("federation_member_requests_total", "member", mr.Member).Inc()
		if !mr.OK() {
			f.Metrics.Counter("federation_member_failures_total", "member", mr.Member).Inc()
		}
	}
}

// observe records the fan-out's member outcomes: each answer's latency
// on the federation's clock, so fake-clock tests see exact values (a
// member the deadline gave up on counts until the deadline), and each
// member newly demoted out of source selection. It also drives the
// onCollect test hook.
func (f *Federation) observe(ev scatter.Event) {
	if ev.Kind != scatter.Answered && ev.Kind != scatter.Failed {
		return
	}
	f.Metrics.Histogram("federation_member_seconds", nil, "member", ev.Replica).ObserveDuration(ev.Latency)
	if ev.Demoted {
		f.Metrics.Counter("federation_demotions_total", "member", ev.Replica).Inc()
	}
	if f.onCollect != nil {
		f.onCollect()
	}
}
