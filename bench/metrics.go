package main

import "fmt"

// The metric tables. BENCHMARK.json at the repository root lists the
// same names, units and bounds; TestBenchmarkJSONMatches holds the two
// together. README.md says what each metric means and which end-to-end
// metric a layer metric should move.

type metricDef struct {
	name, unit, better string
	// bound is the share of the base's median the metric may worsen by.
	// The driver gates the end-to-end metrics by it; on a per-layer metric
	// it only makes -compare print a verdict.
	bound float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_req", "KiB", "lower", 0.15},
}

// timing are the issue's end-to-end timing metrics. On the sandbox that
// added the benchmark ten runs of one workload spread by up to 29% on
// them, more than any bound the contract allows, so by the issue's rule
// they are per-layer metrics: every run reports them and -compare judges
// them against the issue's bound, but nothing is rejected for them
// (README.md, "End-to-end metrics").
var timing = []metricDef{
	{"qps", "1/s", "higher", 0.10},
	{"p50_ms", "ms", "lower", 0.10},
	{"p99_ms", "ms", "lower", 0.10},
}

var perLayer = append(append([]metricDef{}, timing...), []metricDef{
	// End-to-end in the issue too, but defined on some workloads only,
	// and the contract reports every end-to-end metric on every workload.
	{name: "ingest_tps", unit: "1/s", better: "higher"},
	{name: "store_bytes_per_triple", unit: "B", better: "lower"},

	{name: "loadgen.closed_p50_ms", unit: "ms", better: "lower"},
	{name: "loadgen.closed_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.samples_closed", unit: "count", better: "higher"},
	{name: "loadgen.samples_open", unit: "count", better: "higher"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.backlog_max", unit: "count", better: "lower"},

	{name: "endpoint.http_ms", unit: "ms", better: "lower"},
	{name: "endpoint.encode_ms", unit: "ms", better: "lower"},
	{name: "endpoint.resp_kb", unit: "KiB", better: "lower"},
	{name: "endpoint.rows_out", unit: "count", better: "lower"},

	{name: "admission.acquire_ms", unit: "ms", better: "lower"},
	{name: "admission.shed", unit: "count", better: "lower"},

	{name: "rescache.lookup_ms", unit: "ms", better: "lower"},
	{name: "rescache.store_ms", unit: "ms", better: "lower"},
	{name: "rescache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "rescache.evictions", unit: "count", better: "lower"},
	{name: "rescache.bytes_mb", unit: "MB", better: "lower"},

	{name: "sparql.parse_ms", unit: "ms", better: "lower"},
	{name: "sparql.eval_self_ms", unit: "ms", better: "lower"},
	{name: "sparql.match_calls", unit: "count", better: "lower"},
	{name: "sparql.card_calls", unit: "count", better: "lower"},
	{name: "sparql.triples_in_per_row_out", unit: "ratio", better: "lower"},
	{name: "sparql.join.hash", unit: "count", better: "higher"},
	{name: "sparql.join.cross", unit: "count", better: "lower"},
	{name: "sparql.join.nested_loop", unit: "count", better: "lower"},
	{name: "sparql.spatial.inl", unit: "count", better: "higher"},
	{name: "sparql.spatial.cells", unit: "count", better: "higher"},
	{name: "sparql.spatial.store", unit: "count", better: "higher"},
	{name: "sparql.parallel_chunks", unit: "count", better: "higher"},

	{name: "store.match_ms", unit: "ms", better: "lower"},
	{name: "store.card_ms", unit: "ms", better: "lower"},
	{name: "store.spatial_ms", unit: "ms", better: "lower"},
	{name: "store.triples_out", unit: "count", better: "lower"},
	{name: "geom.index_probes", unit: "count", better: "lower"},
	{name: "geom.arena_mb", unit: "MB", better: "lower"},

	{name: "segment.addall_p50_ms", unit: "ms", better: "lower"},
	{name: "segment.addall_p99_ms", unit: "ms", better: "lower"},
	{name: "segment.addall_max_ms", unit: "ms", better: "lower"},
	{name: "segment.wal_fsyncs", unit: "count", better: "lower"},
	{name: "segment.wal_mb", unit: "MB", better: "lower"},
	{name: "segment.flushes", unit: "count", better: "lower"},
	{name: "segment.compactions", unit: "count", better: "lower"},
	{name: "segment.segments_end", unit: "count", better: "lower"},
	{name: "segment.write_amp", unit: "ratio", better: "lower"},
	{name: "segment.read_errors", unit: "count", better: "lower"},
	{name: "segment.open_ms", unit: "ms", better: "lower"},

	{name: "cluster.rpc_p50_ms", unit: "ms", better: "lower"},
	{name: "cluster.rpc_p99_ms", unit: "ms", better: "lower"},
	{name: "cluster.rpcs_per_req", unit: "count", better: "lower"},
	{name: "cluster.wire_kb_per_req", unit: "KiB", better: "lower"},
	{name: "cluster.routed_ratio", unit: "ratio", better: "higher"},
	{name: "cluster.frag_self_ms", unit: "ms", better: "lower"},
	{name: "cluster.hedges", unit: "count", better: "lower"},
	{name: "cluster.hedge_wins", unit: "count", better: "lower"},
	{name: "cluster.replica_errors", unit: "count", better: "lower"},

	{name: "obda.match_ms", unit: "ms", better: "lower"},
	{name: "obda.self_ms", unit: "ms", better: "lower"},
	{name: "opendap.fetch_ms", unit: "ms", better: "lower"},
	{name: "opendap.fetches_per_req", unit: "count", better: "lower"},
	{name: "opendap.window_hit_ratio", unit: "ratio", better: "higher"},
	{name: "opendap.kb_per_req", unit: "KiB", better: "lower"},

	{name: "runtime.allocs_per_req", unit: "count", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.heap_peak_mb", unit: "MB", better: "lower"},
	{name: "runtime.goroutines_end", unit: "count", better: "lower"},
	{name: "runtime.ref_loop_ms", unit: "ms", better: "lower"},

	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}...)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named fills a metric map from a table and the measured values; a
// table entry with no value is a bug in this program, not a zero.
func named(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}
