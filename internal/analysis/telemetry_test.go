package analysis_test

import "testing"

// telemetryStub declares just enough of the real registry API for the
// fixtures to type-check: the source importer cannot resolve module
// imports from in-memory fixtures, so each fixture poses as the
// telemetry package itself and stubs Registry locally.
const telemetryStub = `package telemetry

type Counter struct{}

func (c *Counter) Inc() {}

type Gauge struct{}

type Histogram struct{}

type Registry struct{}

func (r *Registry) Counter(name string, labels ...string) *Counter { return nil }

func (r *Registry) Gauge(name string, labels ...string) *Gauge { return nil }

func (r *Registry) GaugeFunc(name string, f func() float64, labels ...string) {}

func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram { return nil }
`

func TestTelemetryChecker(t *testing.T) {
	runCases(t, "telemetry", []checkerCase{
		{
			name: "clean registrations",
			path: "applab/internal/telemetry",
			src: telemetryStub + `
func instrument(r *Registry) {
	r.Counter("opendap_cache_hits_total").Inc()
	r.Gauge("opendap_breaker_state")
	r.Histogram("opendap_fetch_seconds", nil)
	r.GaugeFunc("strabon_triples", func() float64 { return 0 })
}
`,
			want: 0,
		},
		{
			name: "single site registering many label values",
			path: "applab/internal/telemetry",
			src: telemetryStub + `
func shards(r *Registry, n int) {
	for i := 0; i < n; i++ {
		r.Gauge("cluster_shard_triples", "shard", string(rune('0'+i)))
	}
}
`,
			want: 0,
		},
		{
			name: "uppercase metric name",
			path: "applab/internal/telemetry",
			src: telemetryStub + `
func instrument(r *Registry) {
	r.Counter("Requests_Total").Inc()
}
`,
			want:       1,
			wantSubstr: "not lowercase_snake",
		},
		{
			name: "hyphenated metric name",
			path: "applab/internal/telemetry",
			src: telemetryStub + `
func instrument(r *Registry) {
	r.Histogram("fetch-seconds", nil)
}
`,
			want:       1,
			wantSubstr: "not lowercase_snake",
		},
		{
			name: "non-literal metric name",
			path: "applab/internal/telemetry",
			src: telemetryStub + `
func instrument(r *Registry, name string) {
	r.Counter(name).Inc()
}
`,
			want:       1,
			wantSubstr: "string literal",
		},
		{
			name: "duplicate registration sites",
			path: "applab/internal/telemetry",
			src: telemetryStub + `
func one(r *Registry) { r.Counter("requests_total").Inc() }

func two(r *Registry) { r.Counter("requests_total").Inc() }
`,
			want:       1,
			wantSubstr: "2 call sites",
		},
		{
			name: "suppressed duplicate",
			path: "applab/internal/telemetry",
			src: telemetryStub + `
func one(r *Registry) { r.Counter("requests_total").Inc() }

func two(r *Registry) {
	//lint:ignore telemetry reason: migration shim while the old name drains
	r.Counter("requests_total").Inc()
}
`,
			want: 0,
		},
		{
			name: "unrelated methods ignored",
			path: "applab/internal/telemetry",
			src: telemetryStub + `
type other struct{}

func (other) Counter(name string) int { return 0 }

func f(o other) { o.Counter("Whatever-Goes") }
`,
			want: 0,
		},
	})
}
