package strabon

import (
	"applab/internal/segment"
	"applab/internal/telemetry"
)

// Store sizes are values the store already tracks, so they surface as
// callback gauges evaluated at snapshot time — zero cost on the write
// path. GaugeFunc panics on double registration, so RegisterMetrics
// must be called once per store per registry (daemon startup does).
// Every strabon metric name literal lives here, one call site each.

// RegisterMetrics exposes the store's triple count as the
// strabon_triples gauge, plus the storage engine's segment_* family
// (runs, bytes, WAL activity, compactions).
func (s *Store) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("strabon_triples", func() float64 { return float64(s.Len()) })
	segment.RegisterMetrics(reg, s.eng)
}
