package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"applab/internal/cluster"
	"applab/internal/obda"
	"applab/internal/rdf"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// config is one invocation: one workload, one seed.
type config struct {
	spec    workloadSpec
	seed    int64
	seconds float64 // measured time: half closed phase, half open phase
	trace   bool    // also run the traced pass and report per-layer metrics
	sz      sizes
	workDir string // scratch space inside the checkout

	warmup        int // requests sent before the phases, part of set-up
	traceRequests int
}

// phaseFor is the length of each of the two load phases.
func (c config) phaseFor() time.Duration {
	return time.Duration(c.seconds / 2 * float64(time.Second))
}

func defaultConfig(spec workloadSpec, seed int64, seconds float64, trace bool, workDir string) config {
	return config{
		spec: spec, seed: seed, seconds: seconds, trace: trace, sz: fullSizes, workDir: workDir,
		warmup: 300, traceRequests: spec.traceRequests,
	}
}

// machine is the fingerprint ROADMAP item 1 asks every record to carry.
type machine struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	RefLoopMS  float64 `json:"ref_loop_ms"`
}

// report is one workload's outcome, as written by -out and read by
// -compare.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Machine   machine           `json:"machine"`
	Policy    string            `json:"store_policy"`
	RateRPS   float64           `json:"rate_rps"`
	WriteTPS  float64           `json:"write_tps,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checked   int               `json:"oracle_checked"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Timing    map[string]metric `json:"timing"` // qps, p50_ms, p99_ms: reported by every run, not gated
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	P99Beyond int               `json:"p99_samples_beyond"` // open-phase samples slower than p99_ms
	Claim     *string           `json:"claim"`              // this benchmark claims no gain

	spans []span
}

const storePolicy = "FlushEvery 8192, CompactAt 4, synchronous compaction, WAL fsync per batch (engine defaults)"

// refLoop times a fixed CPU-bound loop: the same work on every machine,
// so two records can be told apart by machine speed.
func refLoop() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return ms(time.Since(start))
}

var refSink uint64

// run is the state of one workload run.
type run struct {
	cfg    config
	st     *stack
	stream *stream
	src    *source
	chk    *checker
	cl     *httpClient
	wr     *writer // mat-ingest
	rep    report

	triples  []rdf.Triple  // what set-up loaded: the oracle's graph
	setupFor time.Duration // how long the latest set-up took
	setups   []float64     // seconds, one per set-up of this run
	openMS   []float64     // segment.open_ms samples
	failures []error

	closed, open    *phaseResult
	memStart        runtime.MemStats
	memClosed       runtime.MemStats
	memEnd          runtime.MemStats
	heapPeak        uint64
	regStart        telemetry.Snapshot
	regEnd          telemetry.Snapshot
	engEnd          segment.Stats
	life            segment.Stats // the set-up ingest's engine counters, lost at reopen
	load            written       // what the set-up ingest wrote
	liveTriples     int
	goroutinesStart int
	goroutinesEnd   int
	tr              *traceResult
}

func (r *run) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Errorf(format, args...))
}

// runWorkload performs set-up, the two load phases, the traced pass when
// asked, the oracle and durability checks, and teardown.
func runWorkload(cfg config) (*report, error) {
	r := &run{cfg: cfg, chk: newChecker()}
	r.rep = report{
		Workload: cfg.spec.name, Seed: cfg.seed, Seconds: cfg.seconds, Policy: storePolicy,
		RateRPS: cfg.spec.rateRPS, WriteTPS: cfg.spec.writeTPS,
		Machine: machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), RefLoopMS: refLoop()},
	}
	r.goroutinesStart = runtime.NumGoroutine()
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)

	// The benchmark contract wants setup_s from several set-ups of one run
	// where that can be afforded. It can where it matters: a stack that is
	// up in a second is otherwise timed while the process, and after an
	// idle moment the machine, are still cold (cluster-scatter: 1.0-1.3 s
	// after 15 idle seconds, 0.65-0.75 s back to back). A store that takes
	// five seconds to ingest is set up once.
	defer r.teardown()
	for spent := time.Duration(0); len(r.setups) < maxSetups && spent < setupBudget; spent += r.setupFor {
		r.teardown()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, r.setupFor.Seconds())
	}

	runtime.GC()
	runtime.ReadMemStats(&r.memStart)
	r.regStart = r.st.reg.Snapshot()
	r.phases()
	runtime.ReadMemStats(&r.memEnd)
	r.notePeak(&r.memEnd)

	if cfg.trace {
		tr, err := r.tracedPass()
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		r.tr = tr
		r.rep.spans = tr.spans
	}
	r.regEnd = r.st.reg.Snapshot()
	if r.st.store != nil {
		r.engEnd = r.st.store.Engine().Stats()
		r.liveTriples = len(r.triples)
		if r.wr != nil {
			r.liveTriples += writeBatchTriples * len(r.wr.live)
		}
	}

	if err := r.verify(); err != nil {
		return nil, err
	}
	r.teardown()
	// Connection goroutines notice a closed peer a moment later.
	for wait := 0; wait < 50 && runtime.NumGoroutine() > r.goroutinesStart; wait++ {
		time.Sleep(10 * time.Millisecond)
	}
	r.goroutinesEnd = runtime.NumGoroutine()
	return r.report()
}

// Set-up is repeated while fewer than maxSetups have taken less than
// setupBudget together; setup_s is their median.
const (
	maxSetups   = 3
	setupBudget = 4 * time.Second
)

// setup builds the workload's stack from the seed and warms it. All of
// it is setup_s: data generation, ingest, flush, close, reopen, boot,
// warm-up. Only the reopen timing of a traced run (segment.open_ms)
// stops the clock.
func (r *run) setup() error {
	cfg := r.cfg
	r.setupFor = 0
	start := time.Now()
	var err error
	switch cfg.spec.kind {
	case matStack:
		if r.triples, err = newDataset(cfg.seed, cfg.sz).materializedTriples(); err != nil {
			return err
		}
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("store-%d", len(r.setups)))
		if r.life, r.load, err = ingestMaterialized(dir, r.triples); err != nil {
			return err
		}
		if cfg.trace {
			r.setupFor += time.Since(start)
			if err := r.timeOpen(dir); err != nil {
				return err
			}
			start = time.Now()
		}
		r.st, err = openMaterialized(dir)
	case clusterStack:
		r.triples = personTriples(cfg.sz.clusterPersons, cfg.sz.clusterCities)
		r.st, err = newClusterStack(r.triples)
	case otfStack:
		r.st, err = newOnTheFlyStack(cfg.seed, cfg.sz)
	}
	if err != nil {
		return err
	}
	r.stream = cfg.spec.stream(cfg.seed, cfg.sz)
	r.src = &source{stream: r.stream}
	r.cl = newHTTPClient(r.st.url)
	if cfg.spec.ingest {
		r.wr = newWriter(r.st.store)
		r.src.probe = r.wr.probe
	}
	// Warm-up: a fixed number of requests, so set-up time measures work.
	// The result cache fills and the first spatial query freezes the
	// R-tree.
	warm := warmupPhase(r.cl, r.src, r.chk, cfg.warmup)
	r.rep.Attempted += warm.attempted
	r.rep.Failed += warm.failed
	if warm.firstErr != nil {
		r.failf("warm-up: %w", warm.firstErr)
	}
	r.setupFor += time.Since(start)
	return nil
}

// warmupPhase sends n requests from maxClients clients.
func warmupPhase(cl *httpClient, src *source, chk *checker, n int) *phaseResult {
	parts := make(chan *phaseResult, maxClients)
	for c := 0; c < maxClients; c++ {
		go func() {
			res := &phaseResult{}
			l := &load{cl: cl, src: src, chk: chk}
			for i := 0; i < n/maxClients; i++ {
				l.one(res)
			}
			parts <- res
		}()
	}
	total := &phaseResult{}
	for c := 0; c < maxClients; c++ {
		total.merge(<-parts)
	}
	return total
}

// timeOpen measures segment.open_ms: close -> Open -> first correct
// answer, five times.
func (r *run) timeOpen(dir string) error {
	const probe = "SELECT (COUNT(*) AS ?n) WHERE { ?s a lai:Observation }"
	var want string
	for i := 0; i < 5; i++ {
		start := time.Now()
		st, err := strabon.Open(dir, segmentOptions)
		if err != nil {
			return err
		}
		res, err := st.Query(probe)
		took := time.Since(start)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		got := fmt.Sprint(res.Bindings)
		if want == "" {
			want = got
		}
		if got != want || len(res.Bindings) != 1 {
			return fmt.Errorf("reopened store answered %s, before %s", got, want)
		}
		r.openMS = append(r.openMS, ms(took))
	}
	sort.Float64s(r.openMS)
	return nil
}

func (r *run) teardown() {
	if r.cl != nil {
		r.cl.close()
		r.cl = nil
	}
	if r.st != nil {
		if err := r.st.close(); err != nil {
			r.failf("teardown: %w", err)
		}
		if r.st.dir != "" {
			_ = os.RemoveAll(r.st.dir)
		}
		r.st = nil
	}
}

func (r *run) notePeak(m *runtime.MemStats) { r.heapPeak = max(r.heapPeak, m.HeapInuse) }

// phases runs the closed phase and then the open phase.
func (r *run) phases() {
	spec := r.cfg.spec
	phaseFor := r.cfg.phaseFor()
	if !spec.ingest {
		r.closed = closedPhase(r.cl, r.src, r.chk, maxClients, phaseFor)
		runtime.ReadMemStats(&r.memClosed)
		r.notePeak(&r.memClosed)
		r.open = openPhase(r.cl, r.src, r.chk, maxClients, spec.rateRPS, phaseFor)
		return
	}
	// One read connection beside one writer paced at write_tps in both
	// phases: the closed phase gives the read rate that write load
	// leaves, the open phase the read latency under it. A closed-loop
	// writer is not an option: the store's lock prefers writers and
	// fsyncs inside it, so back-to-back batches starve every read
	// (README.md, mat-ingest).
	r.wr.beside(spec.writeTPS, func() {
		r.closed = closedPhase(r.cl, r.src, r.chk, 1, phaseFor)
	})
	runtime.ReadMemStats(&r.memClosed)
	r.notePeak(&r.memClosed)
	r.wr.beside(spec.writeTPS, func() {
		r.open = openPhase(r.cl, r.src, r.chk, 1, spec.rateRPS, phaseFor)
	})
}

// drainLimit is how long after the schedule's end the open phase may
// still be finishing requests before its backlog counts as growing.
const drainLimit = 500 * time.Millisecond

// verify runs the checks that must not run inside a phase: the oracle
// over the kept answers, the open phase's validity, and for mat-ingest
// durability across close and reopen.
func (r *run) verify() error {
	for _, p := range []*phaseResult{r.closed, r.open} {
		r.rep.Attempted += p.attempted
		r.rep.Failed += p.failed
		if p.firstErr != nil {
			r.failf("%w", p.firstErr)
		}
	}
	if drain := r.open.elapsed - r.cfg.phaseFor(); drain > drainLimit {
		// The server did not keep up with rate_rps: the queue was still
		// growing, so the latencies describe the queue, not the server.
		r.rep.Failed += len(r.open.samples)
		r.failf("open phase backlog grew: still draining %v after the schedule ended (max backlog %d)", drain, r.open.backlogMax)
	}
	if r.wr != nil && r.wr.err != nil {
		r.rep.Failed++
		r.failf("writer: %w", r.wr.err)
	}

	oracle, err := r.oracleSource()
	if err != nil {
		return err
	}
	checked, mismatches := r.chk.verify(oracle)
	r.rep.Checked = checked
	r.rep.Failed += len(mismatches)
	r.failures = append(r.failures, mismatches...)

	if r.wr != nil {
		dir := r.st.dir
		if err := r.st.close(); err != nil {
			return err
		}
		st, err := strabon.Open(dir, segmentOptions)
		if err != nil {
			return err
		}
		attempted, failures := r.wr.verifyReopened(st)
		r.rep.Attempted += attempted
		r.rep.Failed += len(failures)
		r.failures = append(r.failures, failures...)
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// oracleSource is an in-memory graph of the triples the stack serves.
func (r *run) oracleSource() (sparql.Source, error) {
	g := rdf.NewGraph()
	switch r.cfg.spec.kind {
	case matStack:
		// Ingested batches are left out on purpose: no query can see
		// them, which is what keeps mat-ingest's answers checkable.
		g.AddAll(r.triples)
	case clusterStack:
		g.AddAll(r.triples)
	case otfStack:
		// The virtual graph's own snapshot: the oracle re-derives answers
		// from the mapped triples, not the mapping.
		vg := r.st.src.(*obda.VirtualGraph)
		vg.Invalidate()
		return vg.Snapshot()
	}
	return g, nil
}

// ---- the traced pass ----

type traceResult struct {
	n                int
	spans            []span
	untraced, traced time.Duration // totals over the n requests
	overHTTP         time.Duration // round trips of the HTTP replay
	inHandler        time.Duration // of which the handler's own parse, eval and encode stages
	respBytes, rows  int64
	wireBytes        int64
	before, after    telemetry.Snapshot
}

// tracedPass replays the first traceRequests requests of the stream
// three times, one client, result cache emptied before each so the three
// see the same cache: through the untraced pipeline, through the traced
// one, and over HTTP. mat-ingest keeps its paced writer running, or the
// epoch would stand still.
func (r *run) tracedPass() (*traceResult, error) {
	var tr *traceResult
	var err error
	pass := func() { tr, err = r.replay() }
	if r.wr != nil {
		r.wr.beside(r.cfg.spec.writeTPS, pass)
	} else {
		pass()
	}
	return tr, err
}

func (r *run) replay() (*traceResult, error) {
	st, n := r.st, r.cfg.traceRequests
	tr := &traceResult{n: n}
	ctx := context.Background()
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = r.stream.at(i)
	}
	purge := st.opts.Cache.Purge // every stack has a result cache; on the cluster's it is a no-op

	// Untraced: the handler's steps with nothing wrapped. The cluster
	// replays get a fresh coordinator each, so both sides start from the
	// same empty hedging window.
	plain := &pipeline{src: st.src, opts: st.opts}
	if st.kind == clusterStack {
		coord, err := st.coordinator(st.tr)
		if err != nil {
			return nil, err
		}
		plain.src = coord
	}
	bodies := make([][]byte, n)
	purge()
	start := time.Now()
	for i, rq := range reqs {
		a, err := plain.serve(ctx, i, rq.query)
		if err != nil || a.partial {
			return nil, fmt.Errorf("untraced replay of request %d: partial=%v err=%v", i, a.partial, err)
		}
		bodies[i] = a.body
	}
	tr.untraced = time.Since(start)

	// Traced: every layer boundary wrapped.
	t := newTracer()
	traced := &pipeline{opts: st.opts, t: t}
	var tt *tracedTransport
	switch st.kind {
	case clusterStack:
		tt = &tracedTransport{in: st.tr, t: t}
		coord, err := st.coordinator(tt)
		if err != nil {
			return nil, err
		}
		traced.src = tracedCoordinator{coord, t}
		traced.partial = st.reg.Counter("cluster_partial_total")
	case otfStack:
		st.client.HTTP = &http.Client{Transport: tracedRoundTripper{in: st.dapHTTP, t: t}}
		fallthrough
	default:
		src, err := traceSource(st.src, t)
		if err != nil {
			return nil, err
		}
		traced.src = src
	}
	purge()
	tr.before = st.reg.Snapshot()
	start = time.Now()
	for i, rq := range reqs {
		a, err := traced.serve(ctx, i, rq.query)
		if err != nil || a.partial {
			return nil, fmt.Errorf("traced replay of request %d: partial=%v err=%v", i, a.partial, err)
		}
		// Under a writer or expiring windows the two replays do not see the
		// same store; elsewhere they must agree to the byte.
		if r.wr == nil && st.kind != otfStack && !bytes.Equal(a.body, bodies[i]) {
			return nil, fmt.Errorf("traced replay of request %d answered differently than the untraced one", i)
		}
		tr.respBytes += int64(len(a.body))
		tr.rows += int64(a.rows)
	}
	tr.traced = time.Since(start)
	tr.after = st.reg.Snapshot()
	tr.spans = t.spans
	if tt != nil {
		tr.wireBytes = tt.wireBytes()
	}
	if st.kind == otfStack {
		st.client.HTTP = &http.Client{Transport: st.dapHTTP}
	}

	// Over HTTP: the same requests once more, for endpoint.http_ms. The
	// handler's stage histograms say how much of each round trip was the
	// pipeline; the rest is HTTP.
	purge()
	stages := st.reg.Snapshot()
	var buf bytes.Buffer
	res := &phaseResult{}
	start = time.Now()
	for i, rq := range reqs {
		res.attempted++
		if err := r.cl.get(rq.query, &buf); err != nil {
			res.fail(err)
		} else if err := r.chk.observe(i, rq, buf.Bytes()); err != nil {
			res.fail(err)
		}
	}
	tr.overHTTP = time.Since(start)
	for series, after := range st.reg.Snapshot().Histograms {
		if strings.HasPrefix(series, "endpoint_stage_seconds") {
			tr.inHandler += time.Duration((after.Sum - stages.Histograms[series].Sum) * float64(time.Second))
		}
	}
	r.rep.Attempted += res.attempted
	r.rep.Failed += res.failed
	if res.firstErr != nil {
		r.failf("HTTP replay: %w", res.firstErr)
	}
	return tr, nil
}

var _ cluster.Transport = (*tracedTransport)(nil)
