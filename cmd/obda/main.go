// Command obda answers GeoSPARQL queries over virtual RDF graphs defined
// by Ontop-style mappings, with relational sources served by the MadIS
// backend and the opendap virtual table — the Ontop-spatial role in the
// App Lab stack.
//
// Usage:
//
//	obda -mapping listing2.obda -opendap http://localhost:8080 \
//	     -query 'SELECT ?s ?lai WHERE { ?s lai:lai ?lai }'
//	obda -mapping listing2.obda -opendap http://localhost:8080 \
//	     -serve :7861 -result-cache 256 -cache-ttl 10m       # SPARQL endpoint
//	obda -mapping listing2.obda -opendap http://localhost:8080 \
//	     -serve :7861 -promote-after 3                       # adaptive materialization
//
// The endpoint and the metrics server drain in-flight requests for
// endpoint.DefaultDrain on SIGINT/SIGTERM.
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
	"applab/internal/endpoint"
	"applab/internal/geosparql"
	"applab/internal/madis"
	"applab/internal/obda"
	"applab/internal/opendap"
	"applab/internal/rescache"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// errUsage marks a bad invocation (usage already printed by the FlagSet).
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("obda: ")
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
// (when non-nil) receives each listener's name and bound address.
func run(ctx context.Context, args []string, ready func(name, addr string)) (err error) {
	fs := flag.NewFlagSet("obda", flag.ContinueOnError)
	var (
		mappingPath = fs.String("mapping", "", "mapping file (Ontop native syntax)")
		opendapURL  = fs.String("opendap", "", "OPeNDAP server base URL for the opendap virtual table")
		query       = fs.String("query", "", "GeoSPARQL query")
		serve       = fs.String("serve", "", "address to serve a SPARQL endpoint over the virtual graph on (e.g. :7861)")

		resultCache     = fs.Int("result-cache", 0, "plan-keyed result cache capacity in entries for -serve (0 disables); cache hits skip mapping execution entirely")
		cacheTTL        = fs.Duration("cache-ttl", 0, "result-cache entry lifetime; match the mapping's cache window (e.g. 10m for Listing 2) so upstream changes inside the window stay invisible for exactly as long as the window cache would hide them anyway")
		cacheBytes      = fs.Int64("cache-bytes", 0, "result-cache byte budget; entry cost is the encoded answer size (0 = entry-count bound only)")
		promoteAfter    = fs.Int("promote-after", 0, "adaptive materialization: promote the virtual view into a local store after this many uses per opendap region (0 disables; requires -opendap)")
		revalidateEvery = fs.Duration("revalidate-every", time.Minute, "how often a promoted region's upstream content stamp is rechecked; drift demotes back to the virtual path")

		timeout  = fs.Duration("timeout", 30*time.Second, "per-request OPeNDAP deadline (0 disables)")
		retries  = fs.Int("retries", 3, "max OPeNDAP retries after the first attempt (idempotent GETs only)")
		brkFails = fs.Int("breaker-failures", 5, "consecutive OPeNDAP failures before the circuit opens (0 disables the breaker)")
		brkCool  = fs.Duration("breaker-cooldown", 10*time.Second, "how long an open circuit waits before a half-open probe")
		staleOK  = fs.Bool("serve-stale", false, "serve stale cached OPeNDAP windows when the upstream is down")

		queryWorkers      = fs.Int("query-workers", 0, "SPARQL evaluator worker pool size (0 = GOMAXPROCS; capped at GOMAXPROCS; parallel execution stays off for remote-backed sources)")
		parallelThreshold = fs.Int("parallel-threshold", 0, "minimum intermediate solutions before the evaluator parallelizes a stage (0 = default)")
		spatialJoin       = fs.String("spatial-join", "auto", "spatial-join strategy: auto, off, inl, cells, store")
		spatialCells      = fs.Int("spatial-cells", 0, "Hilbert grid order for the cells strategy (2^order cells per side; 0 = default)")

		queryDeadline   = fs.Duration("query-deadline", 0, "wall-clock budget for the query, including mapping execution (0 disables)")
		maxRows         = fs.Int("max-rows", 0, "cap on final result rows (0 disables)")
		maxIntermediate = fs.Int("max-intermediate", 0, "cap on intermediate solution rows examined (0 disables)")

		metricsAddr = fs.String("metrics-addr", "", "address to serve /metrics and /debug/applab on while the query runs; the final Prometheus text is also dumped to stderr")
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
	if *mappingPath == "" || (*query == "" && *serve == "") {
		fs.Usage()
		return errUsage
	}
	if *promoteAfter > 0 && *opendapURL == "" {
		return errors.New("-promote-after requires -opendap (promotion tracks opendap virtual-table regions)")
	}

	reg := telemetry.NewRegistry()
	sparql.SetMetrics(reg)
	geosparql.SetMetrics(reg)
	// A one-shot query returns with the metrics server still up; the
	// cancel on return shuts it down, and run waits for its drain.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if *metricsAddr != "" {
		// lerr, not err: the deferred drain below must see run's result.
		mln, lerr := net.Listen("tcp", *metricsAddr)
		if lerr != nil {
			return lerr
		}
		if ready != nil {
			ready("metrics", mln.Addr().String())
		}
		log.Printf("metrics on http://%s/metrics (JSON at /debug/applab)", mln.Addr())
		msrv := endpoint.NewServer(telemetry.NewHandler(reg))
		metricsDone := make(chan error, 1)
		go func() { metricsDone <- endpoint.ServeGraceful(ctx, msrv, mln, endpoint.DefaultDrain, nil) }()
		defer func() {
			cancel()
			if merr := <-metricsDone; err == nil {
				err = merr
			}
		}()
	}

	doc, err := os.ReadFile(*mappingPath)
	if err != nil {
		return err
	}
	mappings, err := obda.ParseMappings(string(doc))
	if err != nil {
		return err
	}

	db := madis.NewDB()
	var adapter *obda.OpendapAdapter
	if *opendapURL != "" {
		client := opendap.NewClient(*opendapURL)
		client.Timeout = *timeout
		client.MaxRetries = *retries
		client.Metrics = reg
		if *brkFails > 0 {
			client.Breaker = opendap.NewBreaker(*brkFails, *brkCool)
			client.Breaker.Metrics = reg
		}
		adapter = obda.NewOpendapAdapter(client)
		adapter.ServeStale = *staleOK
		adapter.Metrics = reg
		adapter.Register(db)
	}

	vg := obda.NewVirtualGraph(db, mappings)
	vg.Metrics = reg
	var src sparql.Source = vg
	var ag *obda.AdaptiveGraph
	if *promoteAfter > 0 {
		ag = obda.NewAdaptiveGraph(vg, adapter, *promoteAfter, *revalidateEvery)
		ag.SetMetrics(reg)
		src = ag
		log.Printf("adaptive materialization: promote after %d uses, revalidate every %s", *promoteAfter, *revalidateEvery)
	}
	limits := admission.Limits{
		Deadline:        *queryDeadline,
		MaxRows:         *maxRows,
		MaxIntermediate: *maxIntermediate,
	}

	if *serve != "" {
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			return err
		}
		if ready != nil {
			ready("sparql", ln.Addr().String())
		}
		opts := endpoint.Options{Limits: limits}
		if *resultCache > 0 {
			cache := rescache.New(*resultCache, *cacheTTL)
			cache.Metrics = reg
			cache.SetMaxBytes(*cacheBytes)
			opts.Cache = cache
			log.Printf("result cache: %d entries, %d bytes, ttl %s", *resultCache, *cacheBytes, *cacheTTL)
			if *cacheTTL == 0 && *opendapURL != "" {
				log.Printf("WARNING: -cache-ttl 0 over OPeNDAP: upstream changes inside the mapping's cache window never move the data epoch; set -cache-ttl to the window duration to bound staleness")
			}
		}
		log.Printf("serving SPARQL endpoint on %s/sparql", ln.Addr())
		srv := endpoint.NewServer(endpoint.NewHandlerOpts(src, reg, opts))
		return endpoint.ServeGraceful(ctx, srv, ln, endpoint.DefaultDrain, nil)
	}

	qctx := ctx
	if limits.Enabled() {
		budget := admission.NewBudget(limits, reg)
		var stopDeadline context.CancelFunc
		qctx = admission.WithBudget(qctx, budget)
		qctx, stopDeadline = budget.StartDeadline(qctx, nil)
		defer stopDeadline()
	}
	var res *sparql.Results
	if ag != nil {
		res, err = ag.QueryContext(qctx, *query)
	} else {
		res, err = vg.QueryContext(qctx, *query)
	}
	if err != nil {
		return err
	}
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
	if *metricsAddr != "" {
		fmt.Fprint(os.Stderr, reg.RenderText())
	}
	return nil
}
