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
//
// The server drains in-flight queries on SIGINT/SIGTERM (see -drain).
// With -metrics-addr the telemetry registry is served as Prometheus text
// at /metrics and JSON (including recent query traces) at /debug/applab.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"applab/internal/admission"
	"applab/internal/cluster"
	"applab/internal/endpoint"
	"applab/internal/federation"
	"applab/internal/geosparql"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// errUsage marks a bad invocation (usage already printed by the FlagSet).
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("strabon: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		if errors.Is(err, errUsage) || errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run is the whole command, factored out of main so tests can drive it:
// ctx cancellation triggers graceful shutdown of the servers, and ready
// (when non-nil) receives each listener's name and bound address — how
// e2e tests learn the :0 ports they asked for.
func run(ctx context.Context, args []string, ready func(name, addr string)) error {
	fs := flag.NewFlagSet("strabon", flag.ContinueOnError)
	var (
		loads    = fs.String("load", "", "comma-separated RDF files (Turtle/N-Triples)")
		query    = fs.String("query", "", "GeoSPARQL query to answer")
		serve    = fs.String("serve", "", "address to serve a SPARQL endpoint on (e.g. :7860)")
		federate = fs.String("federate", "", "comma-separated remote SPARQL endpoints to federate with")

		dataDir    = fs.String("data-dir", "", "directory for the disk-backed segment store (empty = in-memory); boots from segment footers, no dataset replay")
		flushEvery = fs.Int("flush-every", 0, "memtable triples per segment flush (0 = engine default, <0 disables auto-flush)")
		compactAt  = fs.Int("compact-at", 0, "segment count that triggers compaction (0 = engine default, <0 disables)")

		memberTimeout = fs.Duration("member-timeout", 0, "per-member deadline for federated pattern fan-outs (0 waits forever)")
		demoteAfter   = fs.Int("demote-after", 3, "consecutive failures before a federation member is demoted (-1 disables)")
		retryDemoted  = fs.Duration("retry-demoted", 30*time.Second, "how long a demoted member sits out before being probed again")

		queryWorkers      = fs.Int("query-workers", 0, "SPARQL evaluator worker pool size (0 = GOMAXPROCS; capped at GOMAXPROCS)")
		parallelThreshold = fs.Int("parallel-threshold", 0, "minimum intermediate solutions before the evaluator parallelizes a stage (0 = default)")
		spatialJoin       = fs.String("spatial-join", "auto", "spatial-join strategy: auto, off, inl, cells, store")
		spatialCells      = fs.Int("spatial-cells", 0, "Hilbert grid order for the cells strategy (2^order cells per side; 0 = default)")

		resultCache = fs.Int("result-cache", 0, "plan-keyed result cache capacity in entries (0 disables); served responses carry X-Applab-Cache")
		cacheTTL    = fs.Duration("cache-ttl", 0, "result-cache entry lifetime (0 = epoch-validated only; set this when federating with remote endpoints, whose ingests are invisible to epoch validation)")
		cacheBytes  = fs.Int64("cache-bytes", 0, "result-cache byte budget; entry cost is the encoded answer size (0 = entry-count bound only)")

		clusterNode        = fs.String("cluster-node", "", "serve this process as a cluster shard node on the given address (node mode; other serving flags are ignored)")
		clusterSpec        = fs.String("cluster", "", "replica groups of node addresses, ';' between groups and ',' within (coordinator mode; e.g. \"a:1,b:2;b:2,c:3;c:3,a:1\")")
		clusterHedge       = fs.Duration("cluster-hedge", 0, "fixed hedge delay before a read is duplicated to another replica (0 = adaptive p95 of recent reads)")
		clusterDemote      = fs.Int("cluster-demote-after", 3, "consecutive failures before a cluster replica is demoted (-1 disables)")
		clusterRetry       = fs.Duration("cluster-retry-demoted", 30*time.Second, "how long a demoted replica sits out before being probed again")
		clusterRepairEvery = fs.Duration("cluster-repair-every", 0, "cadence for background log-tail catch-up of lagging replicas (0 disables)")

		maxInflight     = fs.Int("max-inflight", 0, "max concurrent query evaluations (0 disables admission control)")
		maxQueue        = fs.Int("max-queue", 0, "max queries waiting for an evaluation slot; beyond this requests are shed with 503")
		queueTimeout    = fs.Duration("queue-timeout", 5*time.Second, "how long a query may wait in the admission queue before eviction (0 waits forever)")
		queryDeadline   = fs.Duration("query-deadline", 0, "per-query wall-clock budget (0 disables)")
		maxRows         = fs.Int("max-rows", 0, "per-query cap on final result rows (0 disables)")
		maxIntermediate = fs.Int("max-intermediate", 0, "per-query cap on intermediate solution rows examined (0 disables)")
		maxFanout       = fs.Int("max-fanout", 0, "per-query cap on federation member requests (0 disables)")

		metricsAddr = fs.String("metrics-addr", "", "address to serve /metrics (Prometheus text) and /debug/applab (JSON) on")
		drain       = fs.Duration("drain", endpoint.DefaultDrain, "how long in-flight queries may drain on shutdown (0 waits forever)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sparql.SetQueryWorkers(*queryWorkers)
	sparql.SetParallelThreshold(*parallelThreshold)
	if err := sparql.SetSpatialJoin(*spatialJoin); err != nil {
		return err
	}
	sparql.SetSpatialCells(*spatialCells)

	if *clusterNode != "" {
		return runClusterNode(ctx, *clusterNode, ready)
	}

	reg := telemetry.NewRegistry()
	sparql.SetMetrics(reg)
	geosparql.SetMetrics(reg)

	var src sparql.Source
	var load func([]rdf.Triple)
	var count func() int
	var registerStore func(*telemetry.Registry)
	var closeStore func() error
	segOpts := segment.Options{FlushEvery: *flushEvery, CompactAt: *compactAt}
	switch {
	case *clusterSpec != "":
		groups, err := parseClusterGroups(*clusterSpec)
		if err != nil {
			return err
		}
		tr := cluster.NewTCPTransport()
		coord, err := cluster.NewCoordinator(cluster.Config{
			Groups:        groups,
			Transport:     tr,
			Metrics:       reg,
			HedgeAfter:    *clusterHedge,
			DemoteAfter:   *clusterDemote,
			RetryCooldown: *clusterRetry,
		})
		if err != nil {
			tr.Close()
			return err
		}
		log.Printf("cluster coordinator: %d shards over %d replica groups", coord.Shards(), len(groups))
		if *clusterRepairEvery > 0 {
			go repairLoop(ctx, coord, *clusterRepairEvery)
		}
		loaded := 0
		src = coord
		load = func(ts []rdf.Triple) {
			applied, aerr := coord.AddAll(ctx, ts)
			loaded += len(applied)
			if aerr != nil {
				log.Printf("cluster load: %d/%d applied: %v", len(applied), len(ts), aerr)
			}
		}
		count = func() int { return loaded }
		registerStore = func(*telemetry.Registry) {}
		closeStore = func() error { tr.Close(); return nil }
	case *dataDir != "":
		st, err := strabon.Open(*dataDir, segOpts)
		if err != nil {
			return err
		}
		if n := st.Engine().Segments(); n > 0 {
			// Lazy boot: the store serves off segment footers already on
			// disk; nothing is replayed and Len() is not consulted (it
			// would walk the data).
			log.Printf("opened %s (%d segments)", *dataDir, n)
		}
		src, load, count, registerStore, closeStore = st, st.AddAll, st.Len, st.RegisterMetrics, st.Close
	default:
		st := strabon.New()
		src, load, count, registerStore, closeStore = st, st.AddAll, st.Len, st.RegisterMetrics, st.Close
	}
	registerStore(reg)
	defer func() {
		if cerr := closeStore(); cerr != nil {
			log.Printf("store close: %v", cerr)
		}
	}()

	for _, path := range strings.Split(*loads, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
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
		log.Printf("loaded %s (%d triples total)", path, count())
	}

	localSrc := src
	var fed *federation.Federation
	if *federate != "" {
		fed = federation.New(federation.Member{Name: "local", Source: src})
		fed.MemberTimeout = *memberTimeout
		fed.DemoteAfter = *demoteAfter
		fed.RetryDemoted = *retryDemoted
		fed.Metrics = reg
		for i, u := range strings.Split(*federate, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			remote := endpoint.NewRemoteSource(u)
			remote.Timeout = *memberTimeout
			if err := remote.Probe(); err != nil {
				return fmt.Errorf("federation member %s: %v", u, err)
			}
			fed.AddMember(federation.Member{Name: fmt.Sprintf("remote%d", i+1), Source: remote})
			log.Printf("federated with %s", u)
		}
		src = fed
	}

	metricsDone, err := serveMetrics(ctx, reg, *metricsAddr, *drain, ready)
	if err != nil {
		return err
	}

	limits := admission.Limits{
		Deadline:        *queryDeadline,
		MaxRows:         *maxRows,
		MaxIntermediate: *maxIntermediate,
		MaxFanout:       *maxFanout,
	}
	// One-shot queries enforce the budget directly; the serve path hands
	// the limits to the endpoint handler, which builds one budget per
	// request.
	qctx := ctx
	if limits.Enabled() && *query != "" {
		budget := admission.NewBudget(limits, reg)
		var stopDeadline context.CancelFunc
		qctx = admission.WithBudget(qctx, budget)
		qctx, stopDeadline = budget.StartDeadline(qctx, nil)
		defer stopDeadline()
	}

	switch {
	case *query != "" && fed != nil:
		res, report, err := fed.QueryPartialContext(qctx, *query)
		if err != nil {
			return err
		}
		printResults(res)
		if report.Partial {
			log.Printf("WARNING: partial results (%d patterns)", report.Patterns)
			for name, mr := range report.Members {
				if mr.Errors == 0 && mr.Timeouts == 0 && mr.Skips == 0 {
					continue
				}
				line := fmt.Sprintf("  member %s: %d errors, %d timeouts, %d skips",
					name, mr.Errors, mr.Timeouts, mr.Skips)
				if mr.LastErr != nil {
					line += fmt.Sprintf(" (last: %v)", mr.LastErr)
				}
				log.Print(line)
			}
		}
	case *query != "":
		q, err := sparql.Parse(*query)
		if err != nil {
			return err
		}
		res, err := q.EvalContext(qctx, src)
		if err != nil {
			return err
		}
		printResults(res)
	case *dataDir != "" && *loads != "" && *serve == "":
		// Durable ingest: the data went through the WAL into the segment
		// store; flush on close and exit. The next boot serves it off
		// segment footers without re-parsing anything.
		if err := closeStore(); err != nil {
			return err
		}
		log.Printf("ingested into %s", *dataDir)
		return nil
	case *serve != "":
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			return err
		}
		if ready != nil {
			ready("sparql", ln.Addr().String())
		}
		log.Printf("serving SPARQL endpoint on %s/sparql", ln.Addr())
		opts := endpoint.Options{Limits: limits}
		if *resultCache > 0 {
			cache := rescache.New(*resultCache, *cacheTTL)
			cache.Metrics = reg
			cache.SetMaxBytes(*cacheBytes)
			opts.Cache = cache
			log.Printf("result cache: %d entries, %d bytes, ttl %s", *resultCache, *cacheBytes, *cacheTTL)
			if fed != nil && *cacheTTL == 0 {
				log.Printf("WARNING: federating with -cache-ttl 0: remote member ingests are invisible to epoch validation; set -cache-ttl to bound staleness")
			}
		}
		if *maxInflight > 0 {
			opts.Admission = &admission.Controller{
				MaxInflight:  *maxInflight,
				MaxQueue:     *maxQueue,
				QueueTimeout: *queueTimeout,
				Metrics:      reg,
			}
			if fed != nil {
				// Shed federated queries degrade to the local member: no
				// remote fan-out, answered from data already on hand.
				opts.Degraded = localSrc
			}
			log.Printf("admission control: %d inflight, %d queued, %s queue timeout",
				*maxInflight, *maxQueue, *queueTimeout)
		}
		srv := endpoint.NewServer(endpoint.NewHandlerOpts(src, reg, opts))
		err = endpoint.ServeGraceful(ctx, srv, ln, *drain, nil)
		if metricsDone != nil {
			if merr := <-metricsDone; err == nil {
				err = merr
			}
		}
		return err
	default:
		fs.Usage()
		return errUsage
	}
	if metricsDone != nil {
		return waitMetrics(metricsDone)
	}
	return nil
}

// serveMetrics starts the observability server on addr ("" disables),
// shutting down gracefully when ctx is cancelled. The returned channel
// (nil when disabled) yields the server's exit error.
func serveMetrics(ctx context.Context, reg *telemetry.Registry, addr string, drain time.Duration, ready func(name, addr string)) (chan error, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if ready != nil {
		ready("metrics", ln.Addr().String())
	}
	log.Printf("metrics on http://%s/metrics (JSON at /debug/applab)", ln.Addr())
	srv := endpoint.NewServer(telemetry.NewHandler(reg))
	done := make(chan error, 1)
	go func() { done <- endpoint.ServeGraceful(ctx, srv, ln, drain, nil) }()
	return done, nil
}

// waitMetrics tears down a metrics server left running after a one-shot
// command: there is nothing to keep serving, so the exit error (if any)
// is the verdict.
func waitMetrics(done chan error) error {
	select {
	case err := <-done:
		return err
	default:
		// One-shot commands finish with the metrics server still up;
		// nothing is draining, so nothing to wait for.
		return nil
	}
}

func printResults(res *sparql.Results) {
	switch {
	case res.Graph != nil:
		rdf.WriteNTriples(os.Stdout, res.Graph)
	case res.Vars != nil:
		fmt.Println(strings.Join(res.Vars, "\t"))
		for _, b := range res.Bindings {
			row := make([]string, len(res.Vars))
			for i, v := range res.Vars {
				if t, ok := b[v]; ok {
					row[i] = t.String()
				}
			}
			fmt.Println(strings.Join(row, "\t"))
		}
		fmt.Fprintf(os.Stderr, "%d rows\n", len(res.Bindings))
	default:
		fmt.Println(res.Bool)
	}
}
