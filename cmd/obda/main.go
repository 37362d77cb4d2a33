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
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("obda: ")
	var (
		mappingPath = flag.String("mapping", "", "mapping file (Ontop native syntax)")
		opendapURL  = flag.String("opendap", "", "OPeNDAP server base URL for the opendap virtual table")
		query       = flag.String("query", "", "GeoSPARQL query")
		serve       = flag.String("serve", "", "address to serve a SPARQL endpoint over the virtual graph on (e.g. :7861)")

		resultCache     = flag.Int("result-cache", 0, "plan-keyed result cache capacity in entries for -serve (0 disables); cache hits skip mapping execution entirely")
		cacheTTL        = flag.Duration("cache-ttl", 0, "result-cache entry lifetime; match the mapping's cache window (e.g. 10m for Listing 2) so upstream changes inside the window stay invisible for exactly as long as the window cache would hide them anyway")
		cacheBytes      = flag.Int64("cache-bytes", 0, "result-cache byte budget; entry cost is the encoded answer size (0 = entry-count bound only)")
		promoteAfter    = flag.Int("promote-after", 0, "adaptive materialization: promote the virtual view into a local store after this many uses per opendap region (0 disables; requires -opendap)")
		revalidateEvery = flag.Duration("revalidate-every", time.Minute, "how often a promoted region's upstream content stamp is rechecked; drift demotes back to the virtual path")

		timeout  = flag.Duration("timeout", 30*time.Second, "per-request OPeNDAP deadline (0 disables)")
		retries  = flag.Int("retries", 3, "max OPeNDAP retries after the first attempt (idempotent GETs only)")
		brkFails = flag.Int("breaker-failures", 5, "consecutive OPeNDAP failures before the circuit opens (0 disables the breaker)")
		brkCool  = flag.Duration("breaker-cooldown", 10*time.Second, "how long an open circuit waits before a half-open probe")
		staleOK  = flag.Bool("serve-stale", false, "serve stale cached OPeNDAP windows when the upstream is down")

		queryWorkers      = flag.Int("query-workers", 0, "SPARQL evaluator worker pool size (0 = GOMAXPROCS; capped at GOMAXPROCS; parallel execution stays off for remote-backed sources)")
		parallelThreshold = flag.Int("parallel-threshold", 0, "minimum intermediate solutions before the evaluator parallelizes a stage (0 = default)")
		spatialJoin       = flag.String("spatial-join", "auto", "spatial-join strategy: auto, off, inl, cells, store")
		spatialCells      = flag.Int("spatial-cells", 0, "Hilbert grid order for the cells strategy (2^order cells per side; 0 = default)")

		queryDeadline   = flag.Duration("query-deadline", 0, "wall-clock budget for the query, including mapping execution (0 disables)")
		maxRows         = flag.Int("max-rows", 0, "cap on final result rows (0 disables)")
		maxIntermediate = flag.Int("max-intermediate", 0, "cap on intermediate solution rows examined (0 disables)")

		metricsAddr = flag.String("metrics-addr", "", "address to serve /metrics and /debug/applab on while the query runs; the final Prometheus text is also dumped to stderr")
	)
	flag.Parse()
	sparql.SetQueryWorkers(*queryWorkers)
	sparql.SetParallelThreshold(*parallelThreshold)
	if err := sparql.SetSpatialJoin(*spatialJoin); err != nil {
		log.Fatal(err)
	}
	sparql.SetSpatialCells(*spatialCells)
	if *mappingPath == "" || (*query == "" && *serve == "") {
		flag.Usage()
		os.Exit(2)
	}
	if *promoteAfter > 0 && *opendapURL == "" {
		log.Fatal("-promote-after requires -opendap (promotion tracks opendap virtual-table regions)")
	}

	reg := telemetry.NewRegistry()
	sparql.SetMetrics(reg)
	geosparql.SetMetrics(reg)
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics on http://%s/metrics (JSON at /debug/applab)", ln.Addr())
		//lint:ignore goleak reason: metrics server lives for the one-shot process; the OS reaps it at exit
		go func() {
			http.Serve(ln, telemetry.NewHandler(reg))
		}()
	}

	doc, err := os.ReadFile(*mappingPath)
	if err != nil {
		log.Fatal(err)
	}
	mappings, err := obda.ParseMappings(string(doc))
	if err != nil {
		log.Fatal(err)
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
			log.Fatal(err)
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
		if err := http.Serve(ln, endpoint.NewHandlerOpts(src, reg, opts)); err != nil {
			log.Fatal(err)
		}
		return
	}

	ctx := context.Background()
	if limits.Enabled() {
		budget := admission.NewBudget(limits, reg)
		var stopDeadline context.CancelFunc
		ctx = admission.WithBudget(ctx, budget)
		ctx, stopDeadline = budget.StartDeadline(ctx, nil)
		defer stopDeadline()
	}
	var res *sparql.Results
	if ag != nil {
		res, err = ag.QueryContext(ctx, *query)
	} else {
		res, err = vg.QueryContext(ctx, *query)
	}
	if err != nil {
		log.Fatal(err)
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
}
