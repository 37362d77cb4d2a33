package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"applab/internal/cluster"
	"applab/internal/endpoint"
	"applab/internal/geom"
	"applab/internal/obda"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// The traced pass. End-to-end phases run the real handler with nothing
// wrapped; afterwards the same requests are replayed through pipeline,
// which calls the layers the handler calls, in the handler's order, and
// records a span around each call. Spans inside the program are a later
// change (ROADMAP item 4); these are taken from outside, around public
// calls.

// span is one timed call. Times are nanoseconds since the tracer began.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a request's root
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"` // rows or bytes the call returned
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span

	req  int32        // request being replayed (the replay is sequential)
	eval atomic.Int32 // its eval span: parent of every source call
	call atomic.Int32 // innermost open source call, for transports with no context
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.eval.Store(-1)
	t.call.Store(-1)
	return t
}

func (t *tracer) begin(name string, parent int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32, n int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End, t.spans[id].N = now, int64(n)
	t.mu.Unlock()
}

// Span names: layer.call. The per-layer metrics are sums over them.
const (
	spRequest  = "request"
	spAcquire  = "admission.acquire"
	spParse    = "sparql.parse"
	spLookup   = "rescache.lookup"
	spEval     = "sparql.eval"
	spStore    = "rescache.store"
	spEncode   = "endpoint.encode"
	spMatch    = "store.match"
	spCard     = "store.card"
	spSpatial  = "store.spatial"
	spFragment = "cluster.fragment"
	spRPC      = "cluster.rpc"
	spObda     = "obda.match"
	spFetch    = "opendap.fetch"
)

// ---- traced sources ----
//
// A wrapper must forward exactly the optional interfaces its source has:
// one more (MatchErr on a store) and the planner goes sequential, one
// fewer (Cardinality) and it stops reordering — either way the traced
// plan is no longer the plan that was measured. TestTracedSourcesForward
// holds every wrapper to that.

// sourceCall opens a source-call span under the current eval span.
func (t *tracer) sourceCall(name string) (id, outer int32) {
	id = t.begin(name, t.eval.Load())
	return id, t.call.Swap(id)
}

func (t *tracer) sourceReturn(id, outer int32, n int) {
	t.call.Store(outer)
	t.end(id, n)
}

// tracedStore wraps *strabon.Store: StatsSource, SpatialSource,
// rescache.Epocher, rescache.Fingerprinter.
type tracedStore struct {
	in *strabon.Store
	t  *tracer
}

func (s tracedStore) Match(a, b, c rdf.Term) []rdf.Triple {
	id, outer := s.t.sourceCall(spMatch)
	ts := s.in.Match(a, b, c)
	s.t.sourceReturn(id, outer, len(ts))
	return ts
}

func (s tracedStore) Cardinality(a, b, c rdf.Term) int {
	id, outer := s.t.sourceCall(spCard)
	n := s.in.Cardinality(a, b, c)
	s.t.sourceReturn(id, outer, 0)
	return n
}

func (s tracedStore) SpatialCandidates(env geom.Envelope) ([]rdf.Triple, bool) {
	id, outer := s.t.sourceCall(spSpatial)
	ts, ok := s.in.SpatialCandidates(env)
	s.t.sourceReturn(id, outer, len(ts))
	return ts, ok
}

func (s tracedStore) DataEpoch() uint64   { return s.in.DataEpoch() }
func (s tracedStore) Fingerprint() string { return s.in.Fingerprint() }

// tracedCoordinator wraps *cluster.Coordinator: ErrorSource and
// ExchangeSource. Its RPCs are traced by tracedTransport, which finds
// the fragment span in the call's context.
type tracedCoordinator struct {
	in *cluster.Coordinator
	t  *tracer
}

type fragmentSpanKey struct{}

func (c tracedCoordinator) Match(s, p, o rdf.Term) []rdf.Triple {
	ts, _ := c.MatchErr(s, p, o)
	return ts
}

func (c tracedCoordinator) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	id, outer := c.t.sourceCall(spFragment)
	ts, err := c.in.MatchErr(s, p, o)
	c.t.sourceReturn(id, outer, len(ts))
	return ts, err
}

func (c tracedCoordinator) Fragments() int { return c.in.Fragments() }

func (c tracedCoordinator) Route(s, p, o rdf.Term) (int, bool) { return c.in.Route(s, p, o) }

func (c tracedCoordinator) FragmentMatch(ctx context.Context, frag int, s, p, o rdf.Term) ([]rdf.Triple, error) {
	// Fragments of one fan-out run in parallel: the parent travels in
	// the context, not in the tracer.
	id := c.t.begin(spFragment, c.t.eval.Load())
	ts, err := c.in.FragmentMatch(context.WithValue(ctx, fragmentSpanKey{}, id), frag, s, p, o)
	c.t.end(id, len(ts))
	return ts, err
}

// tracedTransport wraps the cluster transport of the traced
// coordinator. Messages are kept and sized after the pass, so encoding
// them is not inside any span.
type tracedTransport struct {
	in cluster.Transport
	t  *tracer

	mu   sync.Mutex
	msgs []cluster.Message
}

func (tt *tracedTransport) Call(ctx context.Context, node string, req cluster.Message) (cluster.Message, error) {
	parent, ok := ctx.Value(fragmentSpanKey{}).(int32)
	if !ok {
		parent = tt.t.call.Load()
	}
	id := tt.t.begin(spRPC, parent)
	resp, err := tt.in.Call(ctx, node, req)
	tt.t.end(id, 0)
	tt.mu.Lock()
	tt.msgs = append(tt.msgs, req, resp)
	tt.mu.Unlock()
	return resp, err
}

// wireBytes is the encoded size of every request and response seen.
func (tt *tracedTransport) wireBytes() int64 {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	var n int64
	for _, m := range tt.msgs {
		if img, err := cluster.EncodeMessage(m); err == nil {
			n += int64(len(img))
		}
	}
	return n
}

// tracedVirtual wraps *obda.VirtualGraph: ErrorSource, ContextSource,
// StatsSource, rescache.EvalEpocher, rescache.Fingerprinter,
// endpoint.Refresher.
type tracedVirtual struct {
	in *obda.VirtualGraph
	t  *tracer
}

func (v tracedVirtual) Match(s, p, o rdf.Term) []rdf.Triple {
	ts, _ := v.MatchErr(s, p, o)
	return ts
}

func (v tracedVirtual) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	id, outer := v.t.sourceCall(spObda)
	ts, err := v.in.MatchErr(s, p, o)
	v.t.sourceReturn(id, outer, len(ts))
	return ts, err
}

func (v tracedVirtual) MatchContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, error) {
	id, outer := v.t.sourceCall(spObda)
	ts, err := v.in.MatchContext(ctx, s, p, o)
	v.t.sourceReturn(id, outer, len(ts))
	return ts, err
}

func (v tracedVirtual) Cardinality(s, p, o rdf.Term) int { return v.in.Cardinality(s, p, o) }
func (v tracedVirtual) DataEpoch() uint64                { return v.in.DataEpoch() }
func (v tracedVirtual) EpochAdvancesOnEval()             {}
func (v tracedVirtual) Fingerprint() string              { return v.in.Fingerprint() }
func (v tracedVirtual) Invalidate()                      { v.in.Invalidate() }

// traceSource wraps a stack's source. A source type it does not know
// is an error: guessing its interfaces would change its plan.
func traceSource(src sparql.Source, t *tracer) (sparql.Source, error) {
	switch in := src.(type) {
	case *strabon.Store:
		return tracedStore{in, t}, nil
	case *cluster.Coordinator:
		return tracedCoordinator{in, t}, nil
	case *obda.VirtualGraph:
		return tracedVirtual{in, t}, nil
	}
	return nil, fmt.Errorf("no traced wrapper for source %T", src)
}

// tracedRoundTripper wraps the OPeNDAP client's HTTP transport. A fetch
// ends when its body has been read, not when the headers arrive.
type tracedRoundTripper struct {
	in http.RoundTripper
	t  *tracer
}

func (rt tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	id := rt.t.begin(spFetch, rt.t.call.Load())
	resp, err := rt.in.RoundTrip(req)
	if err != nil {
		rt.t.end(id, 0)
		return resp, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: rt.t, id: id}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	t    *tracer
	id   int32
	n    int
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.end(b.id, b.n) })
	return err
}

// ---- the pipeline ----

// pipeline is the handler of endpoint.NewHandlerOpts as straight-line
// calls: Acquire, Parse, Lookup, Invalidate, Eval, Fill.Store, encode.
// TestPipelineMatchesHandler holds its body byte-identical to the
// handler's. With t nil it records nothing and is the untraced side of
// trace.overhead_pct.
type pipeline struct {
	src     sparql.Source // the stack's source, wrapped when t is set
	opts    endpoint.Options
	t       *tracer
	partial *telemetry.Counter // cluster_partial_total, see eval
}

// answer is what one replayed request produced.
type answer struct {
	body    []byte
	rows    int
	partial bool
}

func (p *pipeline) begin(name string, parent int32) int32 {
	if p.t == nil {
		return -1
	}
	return p.t.begin(name, parent)
}

func (p *pipeline) end(id int32, n int) {
	if p.t != nil {
		p.t.end(id, n)
	}
}

func (p *pipeline) serve(ctx context.Context, req int, q string) (answer, error) {
	if p.t != nil {
		p.t.req = int32(req)
	}
	root := p.begin(spRequest, -1)
	defer func() { p.end(root, 0) }()

	if p.opts.Admission != nil {
		sp := p.begin(spAcquire, root)
		release, err := p.opts.Admission.Acquire(ctx)
		p.end(sp, 0)
		if err != nil {
			return answer{}, fmt.Errorf("shed: %w", err)
		}
		defer release()
	}

	sp := p.begin(spParse, root)
	query, err := sparql.Parse(q)
	p.end(sp, 0)
	if err != nil {
		return answer{}, err
	}

	var fill rescache.Fill
	if p.opts.Cache != nil {
		sp = p.begin(spLookup, root)
		res, f, st := p.opts.Cache.Lookup(query, p.src)
		p.end(sp, 0)
		if st == rescache.Hit {
			return p.encode(root, res, false), nil
		}
		if st != rescache.Bypass {
			fill = f
		}
	}

	// No stack sets endpoint.Options.Limits, so there is no budget to
	// attach here.
	if rf, ok := p.src.(endpoint.Refresher); ok {
		rf.Invalidate()
	}
	sp = p.begin(spEval, root)
	if p.t != nil {
		p.t.eval.Store(sp)
	}
	res, partial, err := p.eval(ctx, query, q)
	if p.t != nil {
		p.t.eval.Store(-1)
	}
	p.end(sp, 0)
	if err != nil {
		return answer{}, err
	}
	if !partial {
		sp = p.begin(spStore, root)
		fill.Store(res)
		p.end(sp, 0)
	}
	return p.encode(root, res, partial), nil
}

// eval is the handler's evaluation step. Over a PartialEvaluator (the
// coordinator) the handler calls EvalPartialContext, which parses the
// text again and evaluates over a per-request session; a wrapped
// coordinator cannot be slipped under that call, so the traced side
// does the same two steps itself and reads partiality off the
// coordinator's own counter.
func (p *pipeline) eval(ctx context.Context, query *sparql.Query, q string) (*sparql.Results, bool, error) {
	if pe, ok := p.src.(endpoint.PartialEvaluator); ok {
		return pe.EvalPartialContext(ctx, q)
	}
	if _, ok := p.src.(tracedCoordinator); ok {
		again, err := sparql.Parse(q)
		if err != nil {
			return nil, false, err
		}
		before := p.partial.Value()
		res, err := again.EvalContext(ctx, p.src)
		return res, p.partial.Value() != before, err
	}
	res, err := query.EvalContext(ctx, p.src)
	return res, false, err
}

func (p *pipeline) encode(root int32, res *sparql.Results, partial bool) answer {
	sp := p.begin(spEncode, root)
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(endpoint.ResultsJSON(res)) // a bytes.Buffer cannot fail
	p.end(sp, buf.Len())
	return answer{body: buf.Bytes(), rows: len(res.Bindings), partial: partial}
}

// ---- reading the spans ----

// spanStats sums the spans of one name.
type spanStats struct {
	count int
	total time.Duration
	n     int64
	durs  []time.Duration
}

// summarize groups spans by name and computes each request's eval self
// time: the eval span minus the part of it its children cover.
func summarize(spans []span) (byName map[string]*spanStats, evalSelf time.Duration) {
	byName = map[string]*spanStats{}
	children := map[int32][][2]int64{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStats{}
			byName[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.count++
		st.total += d
		st.n += s.N
		st.durs = append(st.durs, d)
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range spans {
		if s.Name == spEval {
			evalSelf += time.Duration(s.End-s.Start) - covered(children[s.ID], s.Start, s.End)
		}
	}
	return byName, evalSelf
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi]: parallel children overlap, and a hedged RPC can outlive the
// call that issued it.
func covered(iv [][2]int64, lo, hi int64) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, x := range iv {
		s, e := max(x[0], at), min(x[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return time.Duration(total)
}
