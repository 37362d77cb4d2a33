package sparql

import (
	"sync/atomic"

	"applab/internal/telemetry"
)

// SetMetrics installs the registry all query evaluations report into,
// package-wide. Every sparql metric name literal lives
// in this file, one call site each (enforced by the applab-lint
// telemetry checker), and everything no-ops while no registry is set.

var engineMetrics atomic.Pointer[telemetry.Registry]

// SetMetrics installs (or, with nil, removes) the registry the query
// engine reports planning and execution metrics into. Safe for
// concurrent use with running queries.
func SetMetrics(r *telemetry.Registry) {
	engineMetrics.Store(r)
}

func metricsReg() *telemetry.Registry {
	return engineMetrics.Load()
}

// notePatternsPlanned counts triple patterns lowered through the BGP
// planner.
func notePatternsPlanned(n int) {
	metricsReg().Counter("sparql_patterns_planned_total").Add(int64(n))
}

// noteJoinStrategy counts one scan operator execution by the join
// strategy its run chose: "cross" (cross-join materialization), "hash"
// (hash join) or "nested_loop" (per-row index probes).
func noteJoinStrategy(strategy string) {
	metricsReg().Counter("sparql_join_strategy_total", "strategy", strategy).Inc()
}

// noteRows counts solution rows produced by WHERE-clause evaluation
// (before projection/aggregation).
func noteRows(n int) {
	metricsReg().Counter("sparql_rows_total").Add(int64(n))
}

// noteSpatialJoin counts one spatial-join operator execution by the
// candidate-generation strategy its run chose: "inl" (R-tree index
// nested loop), "cells" (Hilbert cell-partitioned join) or "store"
// (SpatialSource index pushdown).
func noteSpatialJoin(strategy string) {
	metricsReg().Counter("spatial_join_total", "strategy", strategy).Inc()
}

// noteSpatialProbes counts probe-side rows driven through a spatial
// candidate index (rows whose geometry decoded; empty batches are free).
func noteSpatialProbes(n int) {
	if n == 0 {
		return
	}
	metricsReg().Counter("spatial_index_probes_total").Add(int64(n))
}

// noteExchange counts one exchange-operator pattern scan by how it was
// dispatched: "routed" (placement proved a single owning fragment) or
// "fanout" (broadcast to every fragment and merged).
func noteExchange(mode string) {
	metricsReg().Counter("sparql_exchange_scans_total", "mode", mode).Inc()
}

// noteParallelStage tracks worker-pool occupancy around one parallel
// stage: the chunk counter records fan-out volume, the busy gauge holds
// the number of in-flight chunk goroutines.
func noteParallelStage(chunks int) func() {
	reg := metricsReg()
	reg.Counter("sparql_parallel_chunks_total").Add(int64(chunks))
	busy := reg.Gauge("sparql_workers_busy")
	busy.Add(float64(chunks))
	return func() { busy.Add(-float64(chunks)) }
}
