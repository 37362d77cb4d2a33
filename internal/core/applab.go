package core

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"applab/internal/admission"
	"applab/internal/endpoint"
	"applab/internal/geosparql"
	"applab/internal/interlink"
	"applab/internal/madis"
	"applab/internal/netcdf"
	"applab/internal/obda"
	"applab/internal/opendap"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/scatter"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
	"applab/internal/workload"
)

// MaterializedStack is the left-hand workflow of the paper's Figure 1:
// data transformed to RDF (GeoTriples / converters), stored in Strabon,
// interlinked, and queried with GeoSPARQL.
type MaterializedStack struct {
	Store *strabon.Store
}

// NewMaterializedStack returns a stack with the case-study ontologies
// preloaded.
func NewMaterializedStack() *MaterializedStack {
	s := strabon.New()
	s.AddAll(AllOntologies())
	return &MaterializedStack{Store: s}
}

// LoadFeatures converts features to RDF and stores them.
func (m *MaterializedStack) LoadFeatures(ns, classProp string, feats []workload.Feature) {
	m.Store.AddAll(workload.FeaturesToRDF(ns, classProp, feats))
}

// LoadLAI converts a LAI grid to RDF observations and stores them.
func (m *MaterializedStack) LoadLAI(ds *netcdf.Dataset, varName string) error {
	triples, err := workload.LAIGridToRDF(ds, varName)
	if err != nil {
		return err
	}
	m.Store.AddAll(triples)
	return nil
}

// Interlink discovers spatial links between two feature classes already in
// the store and adds the links as triples, returning how many were found.
func (m *MaterializedStack) Interlink(linker *interlink.SpatialLinker, srcNameProp, dstNameProp string) int {
	ents := interlink.EntitiesFromGraph(m.Store.Graph(), srcNameProp)
	links := linker.Discover(ents, ents)
	m.Store.AddAll(interlink.LinksToRDF(links))
	return len(links)
}

// OnTheFlyStack is the right-hand workflow of Figure 1: an OPeNDAP
// client, the MadIS backend with the opendap virtual table over it, and
// an Ontop-spatial virtual graph over mappings. NewOnTheFlyStack also
// runs the OPeNDAP server (the VITO deployment substitute) in process.
type OnTheFlyStack struct {
	Server  *opendap.Server      // nil unless NewOnTheFlyStack started it
	Client  *opendap.Client      // nil without an OPeNDAP server
	Adapter *obda.OpendapAdapter // nil without an OPeNDAP server
	DB      *madis.DB
	Graph   *obda.VirtualGraph

	httpServer *http.Server
	served     chan struct{} // closed when httpServer.Serve returns
}

// NewOnTheFly builds the on-the-fly workflow over the OPeNDAP server at
// url ("" leaves the opendap virtual table out) from a mapping document
// in Ontop native syntax (the paper's Listing 2), with o's OPeNDAP
// resilience settings. reg may be nil.
func NewOnTheFly(url, mappingDoc string, o Options, reg *telemetry.Registry) (*OnTheFlyStack, error) {
	mappings, err := obda.ParseMappings(mappingDoc)
	if err != nil {
		return nil, err
	}
	s := &OnTheFlyStack{DB: madis.NewDB()}
	if url != "" {
		s.Client = &opendap.Client{Base: url, Timeout: o.Timeout, MaxRetries: o.Retries, Metrics: reg}
		if o.BreakerFailures > 0 {
			s.Client.Breaker = opendap.NewBreaker(o.BreakerFailures, o.BreakerCooldown)
			s.Client.Breaker.Metrics = reg
		}
		s.Adapter = obda.NewOpendapAdapter(s.Client)
		s.Adapter.ServeStale, s.Adapter.Metrics = o.ServeStale, reg
		s.Adapter.Register(s.DB)
	}
	s.Graph = obda.NewVirtualGraph(s.DB, mappings)
	s.Graph.Metrics = reg
	return s, nil
}

// NewOnTheFlyStack starts a loopback OPeNDAP server publishing the given
// datasets and builds the workflow over it with cmd/obda's defaults.
// Close must be called to release the listener.
func NewOnTheFlyStack(mappingDoc string, datasets ...*netcdf.Dataset) (*OnTheFlyStack, error) {
	srv := opendap.NewServer()
	for _, d := range datasets {
		srv.Publish(d)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	s, err := NewOnTheFly("http://"+ln.Addr().String(), mappingDoc, Defaults(), nil)
	if err != nil {
		_ = ln.Close() // best-effort cleanup on the error path
		return nil, err
	}
	s.Server, s.httpServer, s.served = srv, endpoint.NewServer(srv), make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.httpServer.Serve(ln) // http.ErrServerClosed once Close runs
	}()
	return s, nil
}

// URL returns the OPeNDAP server base URL.
func (s *OnTheFlyStack) URL() string { return s.Client.Base }

// SetLatency configures the simulated WAN latency per data request.
func (s *OnTheFlyStack) SetLatency(d time.Duration) { s.Server.Latency = d }

// Materialize snapshots the current virtual graph into a Strabon store —
// the paper's "for more costly operations ... it is better to materialize
// the data".
func (s *OnTheFlyStack) Materialize() (*strabon.Store, error) {
	s.Graph.Invalidate()
	g, err := s.Graph.Snapshot()
	if err != nil {
		return nil, err
	}
	st := strabon.New()
	st.AddAll(g.Triples())
	return st, nil
}

// Close shuts the in-process OPeNDAP server down, if there is one, and
// waits for it to stop serving.
func (s *OnTheFlyStack) Close() error {
	if s.httpServer == nil {
		return nil
	}
	err := s.httpServer.Close()
	<-s.served
	return err
}

// ErrUsage marks a bad invocation whose usage text the FlagSet already
// printed; Main exits with status 2 on it.
var ErrUsage = errors.New("usage")

// Main runs a command: log lines carry its name, SIGINT/SIGTERM cancel
// run's context (the servers drain), and a usage error exits 2.
func Main(name string, run func(ctx context.Context, args []string, ready func(name, addr string)) error) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		if errors.Is(err, ErrUsage) || errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// NewRegistry returns a fresh registry that the query engine and
// geosparql report into: the one place a process installs them.
func NewRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	sparql.SetMetrics(reg)
	geosparql.SetMetrics(reg)
	return reg
}

// Options are the settings the commands take as flags: how they serve,
// and how the on-the-fly workflow reaches OPeNDAP. The zero value turns
// every feature off and waits for in-flight requests forever.
type Options struct {
	Addr         string        // the SPARQL (or DAP) listener
	MetricsAddr  string        // /metrics and /debug/applab; "" serves none
	Drain        time.Duration // how long in-flight requests may finish on shutdown
	CacheEntries int           // result-cache capacity; 0 disables the cache
	CacheTTL     time.Duration // result-cache entry lifetime; 0 = epoch only
	CacheBytes   int64         // result-cache byte budget; 0 = entries only
	MaxInflight  int           // concurrent evaluations; 0 disables admission control
	MaxQueue     int
	QueueTimeout time.Duration
	Limits       admission.Limits // per-query budget
	Degraded     sparql.Source    // answers the requests admission control sheds

	Timeout         time.Duration // per-request OPeNDAP deadline; 0 disables
	Retries         int           // OPeNDAP retries after the first attempt
	BreakerFailures int           // failures that open the circuit; 0 disables
	BreakerCooldown time.Duration // how long an open circuit waits to probe
	ServeStale      bool          // serve stale windows while the upstream is down
}

// Defaults returns the commands' flag defaults: a 5 s drain and queue
// timeout, and the OPeNDAP client's resilience: a 30 s deadline per
// attempt, 3 retries, and a breaker that opens for 10 s after 5
// consecutive failures.
func Defaults() Options {
	return Options{Drain: endpoint.DefaultDrain, QueueTimeout: 5 * time.Second, Timeout: 30 * time.Second,
		Retries: 3, BreakerFailures: 5, BreakerCooldown: 10 * time.Second}
}

// Serve serves src as a SPARQL endpoint on o.Addr (ready "sparql") until
// ctx ends, then drains it and the metrics listener.
func Serve(ctx context.Context, reg *telemetry.Registry, o Options, src sparql.Source, ready func(name, addr string)) error {
	eo := endpoint.Options{Limits: o.Limits, Admission: o.admission(reg), Degraded: o.Degraded}
	if o.CacheEntries > 0 {
		eo.Cache = rescache.New(o.CacheEntries, o.CacheTTL)
		eo.Cache.Metrics = reg
		eo.Cache.SetMaxBytes(o.CacheBytes)
		log.Printf("result cache: %d entries, %d bytes, ttl %s", o.CacheEntries, o.CacheBytes, o.CacheTTL)
	}
	return o.serve(ctx, reg, "sparql", endpoint.NewHandlerOpts(src, reg, eo), ready)
}

// ServeDAP serves an OPeNDAP server on o.Addr (ready "dap") behind o's
// admission control until ctx ends, then drains it and the metrics
// listener.
func ServeDAP(ctx context.Context, reg *telemetry.Registry, o Options, dap *opendap.Server, ready func(name, addr string)) error {
	var h http.Handler = dap
	if ctrl := o.admission(reg); ctrl != nil {
		h = ctrl.Middleware(h)
	}
	return o.serve(ctx, reg, "dap", h, ready)
}

// admission returns o's admission controller, nil when it is off.
func (o Options) admission(reg *telemetry.Registry) *admission.Controller {
	if o.MaxInflight <= 0 {
		return nil
	}
	log.Printf("admission control: %d inflight, %d queued, %s queue timeout", o.MaxInflight, o.MaxQueue, o.QueueTimeout)
	return &admission.Controller{MaxInflight: o.MaxInflight, MaxQueue: o.MaxQueue, QueueTimeout: o.QueueTimeout, Metrics: reg}
}

// serve runs h as the name listener on o.Addr until ctx ends.
func (o Options) serve(ctx context.Context, reg *telemetry.Registry, name string, h http.Handler, ready func(name, addr string)) error {
	return o.withMetrics(ctx, reg, ready, func() error {
		ln, err := net.Listen("tcp", o.Addr)
		if err != nil {
			return err
		}
		if ready != nil {
			ready(name, ln.Addr().String())
		}
		log.Printf("serving %s on http://%s", name, ln.Addr())
		return endpoint.ServeGraceful(ctx, endpoint.NewServer(h), ln, o.Drain, nil)
	})
}

// withMetrics serves reg on o.MetricsAddr (ready "metrics") while fn
// runs, then drains that server and joins it.
func (o Options) withMetrics(ctx context.Context, reg *telemetry.Registry, ready func(name, addr string), fn func() error) error {
	if o.MetricsAddr == "" {
		return fn()
	}
	ln, err := net.Listen("tcp", o.MetricsAddr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready("metrics", ln.Addr().String())
	}
	log.Printf("metrics on http://%s/metrics (JSON at /debug/applab)", ln.Addr())
	ctx, cancel := context.WithCancel(ctx)
	srv := endpoint.NewServer(telemetry.NewHandler(reg))
	done := make(chan error, 1)
	go func() { done <- endpoint.ServeGraceful(ctx, srv, ln, o.Drain, nil) }()
	err = fn()
	cancel()
	if merr := <-done; err == nil {
		err = merr
	}
	return err
}

// Query answers q over src once, under o.Limits, and prints the answer
// to stdout: a SELECT as tab-separated rows (the row count goes to
// stderr), an ASK as true or false, a CONSTRUCT as N-Triples. A partial
// answer is printed too, after a warning on stderr. With o.MetricsAddr
// the registry is served while the query runs and its final Prometheus
// text is written to stderr.
func Query(ctx context.Context, reg *telemetry.Registry, o Options, src sparql.Source, q string, ready func(name, addr string)) error {
	return o.withMetrics(ctx, reg, ready, func() error {
		if o.Limits.Enabled() {
			budget := admission.NewBudget(o.Limits, reg)
			var stop context.CancelFunc
			ctx, stop = budget.StartDeadline(admission.WithBudget(ctx, budget), nil)
			defer stop()
		}
		res, err := eval(ctx, src, q)
		if err == nil {
			err = printResults(res)
		}
		if err == nil && o.MetricsAddr != "" {
			_, err = fmt.Fprint(os.Stderr, reg.RenderText())
		}
		return err
	})
}

// eval evaluates q the way the endpoint's handler does, through the
// engine, which refreshes a live view itself: an upstream failure reads
// as a partial answer, not an error. A partial answer is warned about on
// stderr with its first cause, then the fan-out targets it missed in
// name order.
func eval(ctx context.Context, src sparql.Source, q string) (*sparql.Results, error) {
	query, err := sparql.Parse(q)
	if err != nil {
		return nil, err
	}
	ctx, tally := scatter.WithTally(ctx)
	res, err := query.EvalContext(ctx, src)
	if err != nil || !res.Partial {
		return res, err
	}
	warning := fmt.Sprintf("WARNING: partial results (%d fan-outs)", tally.Fanouts)
	if cause := tally.Cause(); cause != nil {
		warning += fmt.Sprintf(": %v", cause)
	}
	log.Print(warning)
	names := make([]string, 0, len(tally.Members))
	for name := range tally.Members {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		mt := tally.Members[name]
		if mt.Errors == 0 && mt.Timeouts == 0 && mt.Skips == 0 {
			continue
		}
		line := fmt.Sprintf("  member %s: %d errors, %d timeouts, %d skips", name, mt.Errors, mt.Timeouts, mt.Skips)
		if mt.LastErr != nil {
			line += fmt.Sprintf(" (last: %v)", mt.LastErr)
		}
		log.Print(line)
	}
	return res, nil
}

func printResults(res *sparql.Results) error {
	switch {
	case res.Graph != nil:
		return rdf.WriteNTriples(os.Stdout, res.Graph)
	case res.Vars == nil:
		fmt.Println(res.Bool)
		return nil
	}
	fmt.Println(strings.Join(res.Vars, "\t"))
	for r := range res.Bindings {
		b, row := res.Binding(r), make([]string, len(res.Vars))
		for i, v := range res.Vars {
			if t, ok := b[v]; ok {
				row[i] = t.String()
			}
		}
		fmt.Println(strings.Join(row, "\t"))
	}
	_, err := fmt.Fprintf(os.Stderr, "%d rows\n", len(res.Bindings))
	return err
}

// Listing2Mapping is the paper's Listing 2 mapping over a dataset named
// "lai" with variable "LAI" and a 10-minute cache window.
const Listing2Mapping = `
mappingId	opendap_mapping
target		lai:{id} rdf:type lai:Observation .
			lai:{id} lai:lai {LAI}^^xsd:float ;
			time:hasTime {ts}^^xsd:dateTime .
			lai:{id} geo:hasGeometry _:g .
			_:g geo:asWKT {loc}^^geo:wktLiteral .
source		SELECT id, LAI , ts, loc
			FROM (ordered opendap
			url:https://analytics.ramani.ujuizi.com/thredds/dodsC/lai/LAI/, 10)
			WHERE LAI > 0
`

// Listing1Query is the paper's Listing 1 GeoSPARQL query (LAI in Bois de
// Boulogne).
const Listing1Query = `SELECT DISTINCT ?geoA ?geoB ?lai WHERE
{ ?areaA osm:poiType osm:park .
  ?areaA geo:hasGeometry ?geomA .
  ?geomA geo:asWKT ?geoA .
  ?areaA osm:hasName "Bois de Boulogne"^^xsd:string .
  ?areaB lai:lai ?lai .
  ?areaB geo:hasGeometry ?geomB .
  ?geomB geo:asWKT ?geoB .
  FILTER(geof:sfIntersects(?geoA , ?geoB))
}`

// Listing3Query is the paper's Listing 3 query over the virtual graph.
const Listing3Query = `SELECT DISTINCT ?s ?wkt ?lai
WHERE { ?s lai:lai ?lai .
        ?s geo:hasGeometry ?g .
        ?g geo:asWKT ?wkt }`
