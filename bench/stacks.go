package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"applab/internal/admission"
	"applab/internal/cluster"
	"applab/internal/endpoint"
	"applab/internal/geosparql"
	"applab/internal/madis"
	"applab/internal/obda"
	"applab/internal/opendap"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// The three Figure-1 serving stacks, assembled from the constructors
// cmd/strabon, cmd/obda and cmd/opendapd call, with their flag values.
// The commands' run() functions live in package main and cannot be
// imported; README.md says what to change once they can.

type stackKind int

const (
	matStack     stackKind = iota // strabon -data-dir -serve -result-cache 256 -max-inflight 8 -max-queue 64
	clusterStack                  // strabon -cluster "a,b;b,c;c,a" over three -cluster-node processes
	otfStack                      // obda -opendap ... -serve -result-cache 64 -cache-ttl 10m over opendapd
)

// Store policy of the disk store: the engine defaults, spelled out so
// the report can state them (FlushEvery 8192, CompactAt 4, synchronous
// compaction, WAL fsync per batch).
var segmentOptions = segment.Options{}

const (
	ingestBatchTriples = 4096 // set-up load batch: two per flush
	loopback           = "127.0.0.1:0"
	admissionInflight  = 8
	admissionQueue     = 64
	queueTimeout       = 5 * time.Second // the -queue-timeout default
)

// stack is one live serving stack.
type stack struct {
	kind stackKind
	reg  *telemetry.Registry
	src  sparql.Source    // what the endpoint handler evaluates over
	opts endpoint.Options // what the endpoint handler was built with
	url  string           // http://host:port/sparql
	stop []func() error   // teardown, run in reverse

	// materialized
	dir   string
	store *strabon.Store

	// cluster
	groups [][]string
	tr     *cluster.TCPTransport

	// on the fly
	dap     *opendap.Server
	client  *opendap.Client
	dapHTTP *http.Transport
	adapter *obda.OpendapAdapter
}

// written is what an ingest handed to the store and what the engine
// wrote for it.
type written struct {
	triples  int
	runBytes int64 // run bytes written by flushes and compactions
}

// observe adds the run bytes written between two Stats snapshots: a
// flush writes the growth in segment bytes, a compaction rewrites
// everything that is left afterwards. The engine exposes no byte
// counter, so this estimate is the closest an outside observer gets.
func (w *written) observe(before, after segment.Stats) {
	if after.Flushes > before.Flushes && after.SegmentBytes > before.SegmentBytes {
		w.runBytes += after.SegmentBytes - before.SegmentBytes
	}
	if after.Compactions > before.Compactions {
		w.runBytes += after.SegmentBytes
	}
}

// encodedSizes is the N-Triples size of the triples and the size of the
// AWAL1 records that logging them in the given batches takes.
func encodedSizes(triples []rdf.Triple, batch int, del bool) (ntBytes, walBytes int64) {
	for i := 0; i < len(triples); i += batch {
		part := triples[i:min(i+batch, len(triples))]
		for _, t := range part {
			ntBytes += int64(len(t.String())) + 1
		}
		if img, err := segment.EncodeLogRecord(segment.LogRecord{Delete: del, Triples: part}); err == nil {
			walBytes += int64(len(img))
		}
	}
	return ntBytes, walBytes
}

func (s *stack) close() error {
	var first error
	for i := len(s.stop) - 1; i >= 0; i-- {
		if err := s.stop[i](); err != nil && first == nil {
			first = err
		}
	}
	s.stop = nil
	return first
}

// newRegistry installs a fresh registry as the process-global engine
// registry, the way the commands do at start-up; one stack is alive at a
// time because of it.
func newRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	sparql.SetMetrics(reg)
	geosparql.SetMetrics(reg)
	return reg
}

// serve boots the SPARQL endpoint over src on a loopback listener.
func (s *stack) serve() error {
	ln, err := net.Listen("tcp", loopback)
	if err != nil {
		return err
	}
	srv := endpoint.NewServer(endpoint.NewHandlerOpts(s.src, s.reg, s.opts))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String() + "/sparql"
	s.stop = append(s.stop, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-done; err == nil && serr != http.ErrServerClosed {
			err = serr
		}
		return err
	})
	return nil
}

func cachedAdmittedOptions(reg *telemetry.Registry) endpoint.Options {
	cache := rescache.New(256, 0)
	cache.Metrics = reg
	return endpoint.Options{
		Cache: cache,
		Admission: &admission.Controller{
			MaxInflight: admissionInflight, MaxQueue: admissionQueue,
			QueueTimeout: queueTimeout, Metrics: reg,
		},
	}
}

// ingestMaterialized loads triples into a fresh disk store under dir,
// flushes and closes it: the `strabon -data-dir D -load F` half of the
// materialized workflow. It returns the engine's counters as they stood
// before the close; a reopened engine starts them again at zero.
func ingestMaterialized(dir string, triples []rdf.Triple) (segment.Stats, written, error) {
	wr := written{triples: len(triples)}
	st, err := strabon.Open(dir, segmentOptions)
	if err != nil {
		return segment.Stats{}, wr, err
	}
	prev := st.Engine().Stats()
	for i := 0; i < len(triples); i += ingestBatchTriples {
		st.AddAll(triples[i:min(i+ingestBatchTriples, len(triples))])
		now := st.Engine().Stats()
		wr.observe(prev, now)
		prev = now
	}
	if err := st.Flush(); err != nil {
		_ = st.Close()
		return segment.Stats{}, wr, err
	}
	life := st.Engine().Stats()
	wr.observe(prev, life)
	if err := st.Close(); err != nil {
		return segment.Stats{}, wr, err
	}
	return life, wr, nil
}

// openMaterialized reopens the ingested store from its ASEG1 segments
// and serves it: the `strabon -data-dir D -serve` half.
func openMaterialized(dir string) (*stack, error) {
	s := &stack{kind: matStack, dir: dir, reg: newRegistry()}
	st, err := strabon.Open(dir, segmentOptions)
	if err != nil {
		return nil, err
	}
	st.RegisterMetrics(s.reg)
	s.store, s.src = st, st
	s.stop = append(s.stop, st.Close)
	s.opts = cachedAdmittedOptions(s.reg)
	if err := s.serve(); err != nil {
		_ = s.close()
		return nil, err
	}
	return s, nil
}

// newClusterStack starts three shard nodes and a coordinator over
// TCPTransport with RF=2 groups a,b;b,c;c,a, loads triples through the
// replicated write path and serves the coordinator.
func newClusterStack(triples []rdf.Triple) (*stack, error) {
	s := &stack{kind: clusterStack, reg: newRegistry()}
	var addrs []string
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", loopback)
		if err != nil {
			_ = s.close()
			return nil, err
		}
		ns := cluster.ServeNode(ln, cluster.NewNode(ln.Addr().String()))
		s.stop = append(s.stop, ns.Close)
		addrs = append(addrs, ns.Addr())
	}
	a, b, c := addrs[0], addrs[1], addrs[2]
	s.groups = [][]string{{a, b}, {b, c}, {c, a}}
	s.tr = cluster.NewTCPTransport()
	s.stop = append(s.stop, func() error { s.tr.Close(); return nil })
	coord, err := s.coordinator(s.tr)
	if err != nil {
		_ = s.close()
		return nil, err
	}
	for i := 0; i < len(triples); i += ingestBatchTriples {
		batch := triples[i:min(i+ingestBatchTriples, len(triples))]
		if _, err := coord.AddAll(context.Background(), batch); err != nil {
			_ = s.close()
			return nil, fmt.Errorf("cluster load: %w", err)
		}
	}
	s.src = coord
	s.opts = cachedAdmittedOptions(s.reg)
	if err := s.serve(); err != nil {
		_ = s.close()
		return nil, err
	}
	return s, nil
}

// coordinator builds a coordinator over the stack's nodes with
// cmd/strabon's flag defaults (adaptive hedging, demote after 3, 30 s
// cooldown). The traced pass builds a second one over a wrapped
// transport; with an empty shard log it accepts every replica answer.
func (s *stack) coordinator(tr cluster.Transport) (*cluster.Coordinator, error) {
	return cluster.NewCoordinator(cluster.Config{
		Groups: s.groups, Transport: tr, Metrics: s.reg,
		DemoteAfter: 3, RetryCooldown: 30 * time.Second,
	})
}

// newOnTheFlyStack starts an OPeNDAP server publishing the demo grids
// with no injected latency, and serves a virtual graph over the opendap
// virtual table behind a 64-entry, 10-minute result cache.
func newOnTheFlyStack(seed int64, sz sizes) (*stack, error) {
	s := &stack{kind: otfStack, reg: newRegistry()}
	s.dap = opendap.NewServer()
	s.dap.Metrics = s.reg
	for i, g := range otfGrids {
		s.dap.Publish(g.dataset(seed, sz, i))
	}
	ln, err := net.Listen("tcp", loopback)
	if err != nil {
		return nil, err
	}
	dapSrv := endpoint.NewServer(s.dap)
	done := make(chan error, 1)
	go func() { done <- dapSrv.Serve(ln) }()
	s.stop = append(s.stop, func() error {
		err := dapSrv.Close()
		<-done
		return err
	})

	// cmd/obda's resilience defaults.
	// Its own transport, so teardown can drop the idle connections; the
	// traced pass wraps it.
	s.dapHTTP = &http.Transport{}
	s.stop = append(s.stop, func() error { s.dapHTTP.CloseIdleConnections(); return nil })
	s.client = opendap.NewClient("http://" + ln.Addr().String())
	s.client.HTTP = &http.Client{Transport: s.dapHTTP}
	s.client.Timeout, s.client.MaxRetries, s.client.Metrics = 30*time.Second, 3, s.reg
	s.client.Breaker = opendap.NewBreaker(5, 10*time.Second)
	s.client.Breaker.Metrics = s.reg
	s.adapter = obda.NewOpendapAdapter(s.client)
	s.adapter.Metrics = s.reg
	db := madis.NewDB()
	s.adapter.Register(db)
	mappings, err := obda.ParseMappings(otfMappings())
	if err != nil {
		_ = s.close()
		return nil, err
	}
	// cmd/obda leaves VirtualGraph.EpochFn unset, so the data epoch is the
	// snapshot-rebuild count and the handler's per-request Invalidate
	// moves it on every evaluation: the result cache is paid for and
	// never hits (README.md, otf-opendap).
	s.src = obda.NewVirtualGraph(db, mappings)
	cache := rescache.New(64, 10*time.Minute)
	cache.Metrics = s.reg
	s.opts = endpoint.Options{Cache: cache}
	if err := s.serve(); err != nil {
		_ = s.close()
		return nil, err
	}
	return s, nil
}
