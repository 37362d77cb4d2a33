package segment

import "applab/internal/telemetry"

// RegisterMetrics exposes the engine's shape and lifetime counters on
// reg under the segment_* namespace; gauges snapshot Stats lazily at
// scrape time, so registration costs nothing on the write path.
func RegisterMetrics(reg *telemetry.Registry, e *Engine) {
	if reg == nil || e == nil {
		return
	}
	reg.GaugeFunc("segment_segments", func() float64 { return float64(e.Stats().Segments) })
	reg.GaugeFunc("segment_bytes", func() float64 { return float64(e.Stats().SegmentBytes) })
	reg.GaugeFunc("segment_memtable_triples", func() float64 { return float64(e.Stats().MemtableTriples) })
	reg.GaugeFunc("segment_tombstones", func() float64 { return float64(e.Stats().Tombstones) })
	reg.GaugeFunc("segment_wal_bytes", func() float64 { return float64(e.Stats().WALBytes) })
	reg.GaugeFunc("segment_flushes_total", func() float64 { return float64(e.Stats().Flushes) })
	reg.GaugeFunc("segment_compactions_total", func() float64 { return float64(e.Stats().Compactions) })
	reg.GaugeFunc("segment_flush_seconds_total", func() float64 { return e.Stats().FlushTime.Seconds() })
	reg.GaugeFunc("segment_compaction_seconds_total", func() float64 { return e.Stats().CompactTime.Seconds() })
	reg.GaugeFunc("segment_wal_records_total", func() float64 { return float64(e.Stats().WALRecords) })
	reg.GaugeFunc("segment_wal_fsyncs_total", func() float64 { return float64(e.Stats().WALFsyncs) })
	reg.GaugeFunc("segment_read_errors_total", func() float64 { return float64(e.Stats().ReadErrors) })
}
