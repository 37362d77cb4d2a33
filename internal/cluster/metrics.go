package cluster

import "applab/internal/scatter"

// Metric registration helpers: every cluster metric name literal lives
// here, one call site each (enforced by the applab-lint telemetry
// checker), and all helpers no-op when no registry is attached to the
// coordinator.

// noteRPC counts one RPC issued to a node, labeled by message type.
func (c *Coordinator) noteRPC(kind string) {
	c.Metrics.Counter("cluster_rpcs_total", "type", kind).Inc()
}

// noteReplicaError counts a node call that failed or answered stale.
func (c *Coordinator) noteReplicaError(node string) {
	c.Metrics.Counter("cluster_replica_errors_total", "node", node).Inc()
}

// readPatternBuckets lays out cluster_read_patterns (patterns per
// replica read).
var readPatternBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}

// observe turns a replica read's events into the cluster_* series: RPCs
// and the patterns each carried, hedges fired at a backup replica after
// the primary stayed silent past the hedge delay, hedged backups that
// answered first, replica errors and demotions. Answered latencies, on
// the coordinator's clock so fake-clock tests see exact values, also
// feed the adaptive hedge delay.
func (c *Coordinator) observe(ev scatter.Event) {
	switch ev.Kind {
	case scatter.Asked:
		c.noteRPC("match")
		c.Metrics.Histogram("cluster_read_patterns", readPatternBuckets).Observe(float64(ev.Size))
	case scatter.Hedged:
		c.Metrics.Counter("cluster_hedges_total").Inc()
	case scatter.Answered:
		c.Metrics.Histogram("cluster_read_seconds", nil).ObserveDuration(ev.Latency)
		c.lat.add(ev.Latency, ev.Size)
		if ev.Hedge {
			c.Metrics.Counter("cluster_hedge_wins_total").Inc()
		}
	case scatter.Failed:
		c.noteReplicaError(ev.Replica)
		if ev.Demoted {
			c.noteDemotion(ev.Replica)
		}
	}
}

// notePartial counts a group read degraded to empty because its whole
// replica group was unreadable: once per read, however many patterns
// it carried.
func (c *Coordinator) notePartial() {
	c.Metrics.Counter("cluster_partial_total").Inc()
}

// noteDemotion counts a replica newly demoted out of read selection.
func (c *Coordinator) noteDemotion(node string) {
	c.Metrics.Counter("cluster_demotions_total", "node", node).Inc()
}

// noteWrite counts one replicated shard write (one log record).
func (c *Coordinator) noteWrite() {
	c.Metrics.Counter("cluster_writes_total").Inc()
}

// noteCatchupRecords counts log-tail records replayed onto laggards.
func (c *Coordinator) noteCatchupRecords(n int) {
	if n == 0 {
		return
	}
	c.Metrics.Counter("cluster_catchup_records_total").Add(int64(n))
}

// noteCatchupSnapshot counts a replica bootstrapped by snapshot
// transfer because the log tail was truncated past it.
func (c *Coordinator) noteCatchupSnapshot() {
	c.Metrics.Counter("cluster_catchup_snapshots_total").Inc()
}
