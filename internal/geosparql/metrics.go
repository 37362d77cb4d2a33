package geosparql

import (
	"sync/atomic"

	"applab/internal/telemetry"
)

// Like the query engine, geosparql is configured package-wide, so its
// registry hookup is too. Every geosparql metric name literal lives in
// this file, one call site each (enforced by the applab-lint telemetry
// checker), and everything no-ops while no registry is set.

var geoMetrics atomic.Pointer[telemetry.Registry]

// SetMetrics installs (or, with nil, removes) the registry geosparql
// reports into, publishing the memo's current size at once: a memo
// already warm when the registry arrives may see no insert for a long
// time. Safe for concurrent use.
func SetMetrics(r *telemetry.Registry) {
	geoMetrics.Store(r)
	_, bytes := GeometryCacheStats()
	noteMemoBytes(bytes)
}

func metricsReg() *telemetry.Registry {
	return geoMetrics.Load()
}

// noteMemoBytes publishes the approximate bytes of the memoized
// geometries. The series keeps its historical name, which dashboards and
// the benchmark report read.
func noteMemoBytes(n int) {
	metricsReg().Gauge("spatial_arena_bytes").Set(float64(n))
}
