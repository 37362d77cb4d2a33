// Command strabon loads RDF data into the spatiotemporal store and either
// answers a single GeoSPARQL query or serves a SPARQL HTTP endpoint. With
// -federate it evaluates queries over a federation of this store plus
// remote SPARQL endpoints (the paper's §5 GADM x OSM federation scenario).
//
// Usage:
//
//	strabon -load data.nt -query 'SELECT ...'
//	strabon -load data.nt -serve :7860          # GET /sparql?query=...
//	strabon -load data.nt -serve :7860 -metrics-addr :9090
//	strabon -load gadm.nt -federate http://other:7860 -query '...'
//	strabon -data-dir /var/lib/strabon -load data.nt   # durable ingest
//	strabon -data-dir /var/lib/strabon -serve :7860    # boots off segments
//	strabon -cluster-node :7001                        # a shard node
//	strabon -cluster 'a:7001,b:7002;b:7002,a:7001' -load data.nt -serve :7860
//
// A shard node holds the replicas a coordinator routes to it and loads
// nothing itself. A -cluster coordinator serves instead of a local store:
// each ';'-separated replica group lists the nodes holding one shard,
// -load batches are replicated through the shard write path, and queries
// run through the exchange operator with hedged reads, demotion and
// partial answers (X-Applab-Partial).
//
// The server drains in-flight queries on SIGINT/SIGTERM (see -drain).
// With -metrics-addr the telemetry registry is served as Prometheus text
// at /metrics and JSON (including recent query traces) at /debug/applab.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"applab/internal/cluster"
	"applab/internal/core"
	"applab/internal/endpoint"
	"applab/internal/federation"
	"applab/internal/rdf"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// errUsage marks a bad invocation (usage already printed by the FlagSet).
var errUsage = core.ErrUsage

func main() { core.Main("strabon", run) }

// config is the command line: the serving settings plus the store,
// federation and cluster ones.
type config struct {
	core.Options
	load, query, federate, dataDir, clusterNode, clusterSpec string
	flushEvery, compactAt, demoteAfter                       int
	memberTimeout, retryDemoted, clusterRepairEvery          time.Duration
}

func (c *config) flags() *flag.FlagSet {
	c.Options = core.Defaults()
	fs := flag.NewFlagSet("strabon", flag.ContinueOnError)
	fs.StringVar(&c.load, "load", "", "comma-separated RDF files (Turtle/N-Triples)")
	fs.StringVar(&c.query, "query", "", "GeoSPARQL query to answer")
	fs.StringVar(&c.Addr, "serve", "", "address to serve a SPARQL endpoint on (e.g. :7860)")
	fs.StringVar(&c.federate, "federate", "", "comma-separated remote SPARQL endpoints to federate with")

	fs.StringVar(&c.dataDir, "data-dir", "", "directory for the disk-backed segment store (empty = in-memory); boots from segment footers, no dataset replay")
	fs.IntVar(&c.flushEvery, "flush-every", 0, "memtable triples plus tombstones per segment flush (0 = engine default, <0 disables auto-flush)")
	fs.IntVar(&c.compactAt, "compact-at", 0, "segment count that triggers compaction (0 = engine default, <0 disables)")

	fs.DurationVar(&c.memberTimeout, "member-timeout", 0, "per-member deadline for federated pattern fan-outs (0 waits forever)")
	fs.IntVar(&c.demoteAfter, "demote-after", 3, "consecutive failures before a federation member or cluster replica is demoted (-1 disables)")
	fs.DurationVar(&c.retryDemoted, "retry-demoted", 30*time.Second, "how long a demoted member or replica sits out before being probed again")

	fs.IntVar(&c.CacheEntries, "result-cache", 0, "text-keyed result cache capacity in entries (0 disables); served responses carry X-Applab-Cache")
	fs.DurationVar(&c.CacheTTL, "cache-ttl", 0, "result-cache entry lifetime (0 = epoch-validated only; set this when federating with remote endpoints, whose ingests are invisible to epoch validation)")
	fs.Int64Var(&c.CacheBytes, "cache-bytes", 0, "result-cache byte budget; entry cost is the encoded answer size (0 = entry-count bound only)")

	fs.StringVar(&c.clusterNode, "cluster-node", "", "serve this process as a cluster shard node on the given address (node mode; other serving flags are ignored)")
	fs.StringVar(&c.clusterSpec, "cluster", "", "replica groups of node addresses, ';' between groups and ',' within (coordinator mode; e.g. \"a:1,b:2;b:2,c:3;c:3,a:1\")")
	fs.DurationVar(&c.clusterRepairEvery, "cluster-repair-every", 0, "cadence for background log-tail catch-up of lagging replicas (0 disables)")

	fs.IntVar(&c.MaxInflight, "max-inflight", 0, "max concurrent query evaluations (0 disables admission control)")
	fs.IntVar(&c.MaxQueue, "max-queue", 0, "max queries waiting for an evaluation slot; beyond this requests are shed with 503")
	fs.DurationVar(&c.QueueTimeout, "queue-timeout", c.QueueTimeout, "how long a query may wait in the admission queue before eviction (0 waits forever)")
	fs.DurationVar(&c.Limits.Deadline, "query-deadline", 0, "per-query wall-clock budget (0 disables)")
	fs.IntVar(&c.Limits.MaxRows, "max-rows", 0, "per-query cap on final result rows (0 disables)")
	fs.IntVar(&c.Limits.MaxIntermediate, "max-intermediate", 0, "per-query cap on intermediate solution rows examined (0 disables)")
	fs.IntVar(&c.Limits.MaxFanout, "max-fanout", 0, "per-query cap on federation member requests (0 disables)")

	fs.StringVar(&c.MetricsAddr, "metrics-addr", "", "address to serve /metrics (Prometheus text) and /debug/applab (JSON) on")
	fs.DurationVar(&c.Drain, "drain", c.Drain, "how long in-flight queries may drain on shutdown (0 waits forever)")
	return fs
}

// run is the whole command (see core.Main); ready tells tests the
// listeners' bound addresses.
func run(ctx context.Context, args []string, ready func(name, addr string)) error {
	var c config
	fs := c.flags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if c.clusterNode != "" {
		return runClusterNode(ctx, c.clusterNode, ready)
	}

	reg := core.NewRegistry()
	src, load, closeSrc, err := c.open(ctx, reg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeSrc(); cerr != nil {
			log.Printf("store close: %v", cerr)
		}
	}()
	for _, path := range strings.Split(c.load, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		triples, _, err := rdf.ParseTurtle(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		load(triples)
		log.Printf("loaded %s (%d triples)", path, len(triples))
	}
	if src, err = c.federation(src, reg); err != nil {
		return err
	}
	switch {
	case c.query != "":
		return core.Query(ctx, reg, c.Options, src, c.query, ready)
	case c.dataDir != "" && c.load != "" && c.Addr == "":
		// Durable ingest: the data went through the WAL into the segment
		// store; flush on close and exit. The next boot serves it off
		// segment footers without re-parsing anything.
		if err := closeSrc(); err != nil {
			return err
		}
		log.Printf("ingested into %s", c.dataDir)
		return nil
	case c.Addr != "":
		if c.federate != "" && c.CacheEntries > 0 && c.CacheTTL == 0 {
			log.Printf("WARNING: federating with -cache-ttl 0: remote member ingests are invisible to epoch validation; set -cache-ttl to bound staleness")
		}
		return core.Serve(ctx, reg, c.Options, src, ready)
	}
	fs.Usage()
	return errUsage
}

// open builds the source the command serves: the -cluster coordinator,
// or a store (disk-backed with -data-dir).
func (c *config) open(ctx context.Context, reg *telemetry.Registry) (src sparql.Source, load func([]rdf.Triple), closeSrc func() error, err error) {
	var st *strabon.Store
	switch {
	case c.clusterSpec != "":
		return c.openCluster(ctx, reg)
	case c.dataDir == "":
		st = strabon.New()
	default:
		if st, err = strabon.Open(c.dataDir, segment.Options{FlushEvery: c.flushEvery, CompactAt: c.compactAt}); err != nil {
			return nil, nil, nil, err
		}
		if n := st.Engine().Segments(); n > 0 {
			// Lazy boot: the store serves off segment footers already on
			// disk; nothing is replayed and Len() is not consulted (it
			// would walk the data).
			log.Printf("opened %s (%d segments)", c.dataDir, n)
		}
	}
	st.RegisterMetrics(reg)
	return st, st.AddAll, st.Close, nil
}

// federation makes src the local member of a federation with the
// -federate endpoints, each probed first, and the source shed queries
// degrade to (no remote fan-out). Without -federate it returns src.
func (c *config) federation(src sparql.Source, reg *telemetry.Registry) (sparql.Source, error) {
	if c.federate == "" {
		return src, nil
	}
	c.Degraded = src
	fed := federation.New(federation.Member{Name: "local", Source: src})
	fed.MemberTimeout, fed.DemoteAfter, fed.RetryDemoted, fed.Metrics = c.memberTimeout, c.demoteAfter, c.retryDemoted, reg
	for i, u := range strings.Split(c.federate, ",") {
		if u = strings.TrimSpace(u); u == "" {
			continue
		}
		remote := endpoint.NewRemoteSource(u)
		remote.Timeout = c.memberTimeout
		if err := remote.Probe(); err != nil {
			return nil, fmt.Errorf("federation member %s: %v", u, err)
		}
		fed.AddMember(federation.Member{Name: fmt.Sprintf("remote%d", i+1), Source: remote})
		log.Printf("federated with %s", u)
	}
	return fed, nil
}

// openCluster builds the -cluster coordinator over TCP and starts its
// repair loop; load replicates batches through the shard write path.
func (c *config) openCluster(ctx context.Context, reg *telemetry.Registry) (sparql.Source, func([]rdf.Triple), func() error, error) {
	groups, err := parseClusterGroups(c.clusterSpec)
	if err != nil {
		return nil, nil, nil, err
	}
	tr := cluster.NewTCPTransport()
	coord, err := cluster.NewCoordinator(cluster.Config{Groups: groups, Transport: tr, Metrics: reg,
		DemoteAfter: c.demoteAfter, RetryCooldown: c.retryDemoted})
	if err != nil {
		tr.Close()
		return nil, nil, nil, err
	}
	log.Printf("cluster coordinator: %d shards over %d replica groups", coord.Shards(), len(groups))
	if c.clusterRepairEvery > 0 {
		go repairLoop(ctx, coord, c.clusterRepairEvery)
	}
	load := func(ts []rdf.Triple) {
		if applied, err := coord.AddAll(ctx, ts); err != nil {
			log.Printf("cluster load: %d/%d applied: %v", len(applied), len(ts), err)
		}
	}
	return coord, load, func() error { tr.Close(); return nil }, nil
}

// parseClusterGroups parses the -cluster spec: ';' separates replica
// groups, ',' separates the node addresses within a group.
func parseClusterGroups(spec string) ([][]string, error) {
	var groups [][]string
	for _, g := range strings.Split(spec, ";") {
		var members []string
		for _, m := range strings.Split(g, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		if len(members) == 0 {
			return nil, fmt.Errorf("cluster: empty replica group in spec %q", spec)
		}
		groups = append(groups, members)
	}
	return groups, nil
}

// runClusterNode serves the cluster RPC protocol until ctx is
// cancelled. The node is identified by its bound address — the same
// string coordinators put in their -cluster spec.
func runClusterNode(ctx context.Context, addr string, ready func(name, addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := cluster.ServeNode(ln, cluster.NewNode(ln.Addr().String()))
	if ready != nil {
		ready("cluster-node", srv.Addr())
	}
	log.Printf("cluster node serving on %s", srv.Addr())
	<-ctx.Done()
	return srv.Close()
}

// repairLoop runs coordinator catch-up on a fixed cadence so restarted
// or healed replicas converge without an operator poke.
func repairLoop(ctx context.Context, coord *cluster.Coordinator, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			coord.Repair(ctx)
		}
	}
}
