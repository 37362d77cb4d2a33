package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"applab/internal/telemetry"
)

// report turns what the run observed into the two metric tables.
func (r *run) report() (*report, error) {
	rep := &r.rep
	for i, err := range r.failures {
		if i == 8 {
			rep.Errors = append(rep.Errors, fmt.Sprintf("... and %d more", len(r.failures)-i))
			break
		}
		rep.Errors = append(rep.Errors, err.Error())
	}
	rep.Correct = rep.Failed == 0 && len(r.failures) == 0
	if rep.Attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}

	sort.Float64s(r.setups)
	open := durationsMS(r.open.samples)
	rep.P99Beyond = len(open) - int(0.99*float64(len(open))+0.999999)
	values := map[string]float64{
		"setup_s":          percentile(r.setups, 0.5),
		"alloc_kb_per_req": float64(r.memClosed.TotalAlloc-r.memStart.TotalAlloc) / 1024 / r.closedRequests(),
		"qps":              r.closedRequests() / r.closed.elapsed.Seconds(),
		"p50_ms":           percentile(open, 0.5),
		"p99_ms":           percentile(open, 0.99),
	}
	var err error
	if rep.EndToEnd, err = named(endToEnd, values); err != nil {
		return nil, err
	}
	if rep.Timing, err = named(timing, values); err != nil {
		return nil, err
	}
	if r.cfg.trace {
		if rep.PerLayer, err = named(perLayer, r.layerValues()); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// closedRequests is the closed phase's correct responses: what qps and
// the allocation metrics divide.
func (r *run) closedRequests() float64 { return float64(max(r.closed.attempted-r.closed.failed, 1)) }

// counterDelta is how much the named series grew between two snapshots.
func counterDelta(before, after telemetry.Snapshot, series string) float64 {
	return float64(after.Counters[series] - before.Counters[series])
}

// layerValues computes every per-layer metric. Times and per-request
// counts are means over the traced pass; counters named as totals cover
// the measured run (both phases and the traced pass); the loadgen and
// runtime families describe the phases.
func (r *run) layerValues() map[string]float64 {
	v := map[string]float64{}
	tr := r.tr
	n := float64(tr.n)
	by, evalSelf := summarize(tr.spans)
	get := func(name string) *spanStats {
		if st := by[name]; st != nil {
			return st
		}
		return &spanStats{}
	}
	perReqMS := func(name string) float64 { return ms(get(name).total) / n }
	traceDelta := func(series string) float64 { return counterDelta(tr.before, tr.after, series) }
	runDelta := func(series string) float64 { return counterDelta(r.regStart, r.regEnd, series) }

	for name, m := range r.rep.Timing {
		v[name] = m.Value
	}
	closed := durationsMS(r.closed.samples)
	v["loadgen.closed_p50_ms"] = percentile(closed, 0.5)
	v["loadgen.closed_p99_ms"] = percentile(closed, 0.99)
	v["loadgen.samples_closed"] = float64(len(r.closed.samples))
	v["loadgen.samples_open"] = float64(len(r.open.samples))
	v["loadgen.late_p99_ms"] = percentile(durationsMS(r.open.late), 0.99)
	v["loadgen.backlog_max"] = float64(r.open.backlogMax)

	// A round trip minus the handler's pipeline is what the transport, the
	// server's connection handling and the client cost. The handler times
	// parse, eval and encode itself; the steps it does not time are taken
	// from the traced pass.
	v["endpoint.http_ms"] = ms(tr.overHTTP-tr.inHandler)/n - perReqMS(spAcquire) - perReqMS(spLookup) - perReqMS(spStore)
	v["endpoint.encode_ms"] = perReqMS(spEncode)
	v["endpoint.resp_kb"] = float64(tr.respBytes) / 1024 / n
	v["endpoint.rows_out"] = float64(tr.rows) / n

	v["admission.acquire_ms"] = perReqMS(spAcquire)
	v["admission.shed"] = runDelta("admission_shed_total")

	v["rescache.lookup_ms"] = perReqMS(spLookup)
	v["rescache.store_ms"] = perReqMS(spStore)
	v["rescache.hit_ratio"] = traceDelta("rescache_hits_total") / n
	v["rescache.evictions"] = runDelta("rescache_evictions_total")
	v["rescache.bytes_mb"] = r.regEnd.Gauges["rescache_bytes"] / 1e6

	v["sparql.parse_ms"] = perReqMS(spParse)
	v["sparql.eval_self_ms"] = ms(evalSelf) / n
	scans := get(spMatch).count + get(spFragment).count + get(spObda).count
	scanned := get(spMatch).n + get(spFragment).n + get(spObda).n
	v["sparql.match_calls"] = float64(scans) / n
	v["sparql.card_calls"] = float64(get(spCard).count) / n
	v["sparql.triples_in_per_row_out"] = float64(scanned) / float64(max(tr.rows, 1))
	for _, s := range []string{"hash", "cross", "nested_loop"} {
		v["sparql.join."+s] = traceDelta(`sparql_join_strategy_total{strategy="`+s+`"}`) / n
	}
	for _, s := range []string{"inl", "cells", "store"} {
		v["sparql.spatial."+s] = traceDelta(`spatial_join_total{strategy="`+s+`"}`) / n
	}
	v["sparql.parallel_chunks"] = traceDelta("sparql_parallel_chunks_total") / n

	v["store.match_ms"] = perReqMS(spMatch)
	v["store.card_ms"] = perReqMS(spCard)
	v["store.spatial_ms"] = perReqMS(spSpatial)
	v["store.triples_out"] = float64(get(spMatch).n+get(spSpatial).n) / n
	v["geom.index_probes"] = traceDelta("spatial_index_probes_total") / n
	v["geom.arena_mb"] = r.regEnd.Gauges["spatial_arena_bytes"] / 1e6

	r.segmentValues(v)

	rpc := durationsMS(get(spRPC).durs)
	v["cluster.rpc_p50_ms"] = percentile(rpc, 0.5)
	v["cluster.rpc_p99_ms"] = percentile(rpc, 0.99)
	v["cluster.rpcs_per_req"] = float64(len(rpc)) / n
	v["cluster.wire_kb_per_req"] = float64(tr.wireBytes) / 1024 / n
	routed := traceDelta(`sparql_exchange_scans_total{mode="routed"}`)
	v["cluster.routed_ratio"] = routed / max(routed+traceDelta(`sparql_exchange_scans_total{mode="fanout"}`), 1)
	v["cluster.frag_self_ms"] = max(ms(get(spFragment).total-get(spRPC).total), 0) / n
	v["cluster.hedges"] = runDelta("cluster_hedges_total")
	v["cluster.hedge_wins"] = runDelta("cluster_hedge_wins_total")
	v["cluster.replica_errors"] = 0
	for series, after := range r.regEnd.Counters {
		if strings.HasPrefix(series, "cluster_replica_errors_total") {
			v["cluster.replica_errors"] += float64(after - r.regStart.Counters[series])
		}
	}

	v["obda.match_ms"] = perReqMS(spObda)
	v["obda.self_ms"] = max(perReqMS(spObda)-perReqMS(spFetch), 0)
	v["opendap.fetch_ms"] = perReqMS(spFetch)
	v["opendap.fetches_per_req"] = float64(get(spFetch).count) / n
	// Fetches no window cache absorbed: its misses, and every call of a
	// mapping with no window.
	hits, fetched := traceDelta("opendap_cache_hits_total"), traceDelta("obda_physical_fetches_total")
	v["opendap.window_hit_ratio"] = hits / max(hits+fetched, 1)
	v["opendap.kb_per_req"] = float64(get(spFetch).n) / 1024 / n

	v["runtime.allocs_per_req"] = float64(r.memClosed.Mallocs-r.memStart.Mallocs) / r.closedRequests()
	v["runtime.gc_cycles"] = float64(r.memEnd.NumGC - r.memStart.NumGC)
	v["runtime.gc_pause_ms"] = ms(time.Duration(r.memEnd.PauseTotalNs - r.memStart.PauseTotalNs))
	v["runtime.heap_peak_mb"] = float64(r.heapPeak) / 1e6
	v["runtime.goroutines_end"] = float64(r.goroutinesEnd - r.goroutinesStart)
	v["runtime.ref_loop_ms"] = r.rep.Machine.RefLoopMS

	v["trace.overhead_pct"] = 100 * float64(tr.traced-tr.untraced) / float64(tr.untraced)
	return v
}

// segmentValues fills the segment family, zero on stacks with no disk
// store. Counters cover the life of the data directory in this run: the
// set-up ingest (lost from Stats at reopen, so kept from before the
// close) plus the measured run.
func (r *run) segmentValues(v map[string]float64) {
	for _, name := range []string{
		"ingest_tps", "store_bytes_per_triple", "segment.addall_p50_ms", "segment.addall_p99_ms",
		"segment.addall_max_ms", "segment.wal_fsyncs", "segment.wal_mb", "segment.flushes",
		"segment.compactions", "segment.segments_end", "segment.write_amp", "segment.read_errors", "segment.open_ms",
	} {
		v[name] = 0
	}
	if r.cfg.spec.kind != matStack {
		return
	}
	life, end, runBytes := r.life, r.engEnd, r.load.runBytes
	ntBytes, walBytes := encodedSizes(r.triples, ingestBatchTriples, false)
	if r.wr != nil {
		nt, wal := r.wr.encodedSizes()
		ntBytes, walBytes, runBytes = ntBytes+nt, walBytes+wal, runBytes+r.wr.load.runBytes
		addAll := durationsMS(r.wr.addAll)
		v["segment.addall_p50_ms"] = percentile(addAll, 0.5)
		v["segment.addall_p99_ms"] = percentile(addAll, 0.99)
		v["segment.addall_max_ms"] = percentile(addAll, 1)
		v["ingest_tps"] = float64(r.wr.triples) / r.wr.busy.Seconds()
	}
	v["store_bytes_per_triple"] = float64(end.SegmentBytes+end.WALBytes) / float64(max(r.liveTriples, 1))
	v["segment.wal_fsyncs"] = float64(life.WALFsyncs + end.WALFsyncs)
	v["segment.wal_mb"] = float64(walBytes) / 1e6
	v["segment.flushes"] = float64(life.Flushes + end.Flushes)
	v["segment.compactions"] = float64(life.Compactions + end.Compactions)
	v["segment.segments_end"] = float64(end.Segments)
	v["segment.write_amp"] = float64(walBytes+runBytes) / float64(max(ntBytes, 1))
	v["segment.read_errors"] = float64(end.ReadErrors)
	v["segment.open_ms"] = percentile(r.openMS, 0.5)
}
