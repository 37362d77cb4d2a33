package rescache

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// memSource is a tiny epoch-tracking in-memory source.
type memSource struct {
	mu      sync.Mutex
	triples []rdf.Triple
	epoch   uint64
	fp      string
}

func newMemSource() *memSource {
	return &memSource{fp: NextFingerprint("mem")}
}

func (m *memSource) Add(t rdf.Triple) {
	m.mu.Lock()
	m.triples = append(m.triples, t)
	m.epoch++
	m.mu.Unlock()
}

func (m *memSource) Match(s, p, o rdf.Term) []rdf.Triple {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []rdf.Triple
	for _, t := range m.triples {
		if (s.Value == "" || t.S == s) && (p.Value == "" || t.P == p) && (o.Value == "" || t.O == o) {
			out = append(out, t)
		}
	}
	return out
}

func (m *memSource) DataEpoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

func (m *memSource) Fingerprint() string { return m.fp }

func triple(s, p, o string) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewLiteral(o)}
}

const qBase = `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`

func parseQ(t *testing.T, s string) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return q
}

// evalThrough runs the cache protocol like a real caller would.
func evalThrough(t *testing.T, c *Cache, src *memSource, query string) (*sparql.Results, Status) {
	t.Helper()
	q := parseQ(t, query)
	if res, _, st := c.Lookup(q, src); st == Hit {
		return res, st
	} else if st == Bypass {
		t.Fatalf("unexpected bypass")
	}
	_, fill, st := c.Lookup(q, src) // deliberate double-lookup is fine; returns same status
	res, err := q.Eval(src)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	fill.Store(res)
	return res, st
}

func TestCacheMissHitInvalidate(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := New(16, 0)

	q := parseQ(t, qBase)
	if _, _, st := c.Lookup(q, src); st != Miss {
		t.Fatalf("first lookup: got %v, want Miss", st)
	}
	_, fill, _ := c.Lookup(q, src)
	res, err := q.Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	fill.Store(res)

	got, _, st := c.Lookup(q, src)
	if st != Hit {
		t.Fatalf("second lookup: got %v, want Hit", st)
	}
	if len(got.Bindings) != 1 {
		t.Fatalf("wrong cached rows: %+v", got.Bindings)
	}

	// Ingest bumps the epoch: entry must go stale.
	src.Add(triple("http://ex/b", "http://ex/p", "2"))
	if _, _, st := c.Lookup(q, src); st != Stale {
		t.Fatalf("after ingest: got %v, want Stale", st)
	}
	// Refill validates again.
	_, fill, _ = c.Lookup(q, src)
	res, _ = q.Eval(src)
	fill.Store(res)
	got, _, st = c.Lookup(q, src)
	if st != Hit || len(got.Bindings) != 2 {
		t.Fatalf("refill: st=%v rows=%d", st, len(got.Bindings))
	}
}

// sameAnswer fails unless got and want carry the same columns and the
// same rows in the same order.
func sameAnswer(t *testing.T, got, want *sparql.Results) {
	t.Helper()
	if g, w := fmt.Sprintf("%v %v %+v", got.Bool, got.Vars, got.Bindings),
		fmt.Sprintf("%v %v %+v", want.Bool, want.Vars, want.Bindings); g != w {
		t.Fatalf("cached != fresh:\n  %s\n  %s", g, w)
	}
}

// TestCacheRenamedQueryMisses: a respelling of a cached query is another
// text, so it misses and is answered by its own evaluation.
func TestCacheRenamedQueryMisses(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := New(16, 0)

	if _, st := evalThrough(t, c, src, qBase); st != Miss {
		t.Fatalf("expected miss")
	}
	renamed := `SELECT ?subj ?val WHERE { ?subj <http://ex/p> ?val }`
	got, st := evalThrough(t, c, src, renamed)
	if st != Miss {
		t.Fatalf("renamed lookup: got %v, want Miss", st)
	}
	want, err := parseQ(t, renamed).Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, got, want)
	if c.Len() != 2 {
		t.Fatalf("two spellings share an entry: %d resident", c.Len())
	}
}

// TestCachedAnswerIsFreshAnswer: two texts that differ only in pattern
// order are different queries to a stats-less planner, which joins in
// text order. With LIMIT 1 they pick different rows, and the cache must
// serve each text its own answer, order-exactly.
func TestCachedAnswerIsFreshAnswer(t *testing.T) {
	src := newMemSource()
	src.Add(rdf.Triple{S: rdf.NewIRI("http://ex/s1"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral("1")})
	src.Add(rdf.Triple{S: rdf.NewIRI("http://ex/s2"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral("2")})
	src.Add(rdf.Triple{S: rdf.NewIRI("http://ex/s2"), P: rdf.NewIRI("http://ex/q"), O: rdf.NewLiteral("3")})
	src.Add(rdf.Triple{S: rdf.NewIRI("http://ex/s1"), P: rdf.NewIRI("http://ex/q"), O: rdf.NewLiteral("4")})
	c := New(16, 0)

	a := `SELECT ?s WHERE { ?s <http://ex/p> ?o . ?s <http://ex/q> ?v } LIMIT 1`
	b := `SELECT ?s WHERE { ?s <http://ex/q> ?v . ?s <http://ex/p> ?o } LIMIT 1`
	resA, st := evalThrough(t, c, src, a)
	if st != Miss {
		t.Fatalf("A: got %v, want Miss", st)
	}
	qb := parseQ(t, b)
	if res, _, st := c.Lookup(qb, src); st != Miss {
		t.Fatalf("B: got %v (%+v), want Miss", st, res)
	}
	got, _ := evalThrough(t, c, src, b)
	cached, _, st := c.Lookup(qb, src)
	if st != Hit || cached != got {
		t.Fatalf("B after fill: got %v, want a Hit on the stored answer", st)
	}
	want, err := qb.Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, cached, want)
	if fmt.Sprint(resA.Bindings) == fmt.Sprint(want.Bindings) {
		t.Fatalf("premise: A and B both answer %v", want.Bindings)
	}
}

// constSource has a constant fingerprint and epoch: a hit on it costs
// only the cache's own work.
type constSource struct{ *memSource }

func (constSource) Fingerprint() string { return "const" }
func (constSource) DataEpoch() uint64   { return 1 }

// TestLookupHitAllocations pins the cost of a hit on a Listing-3-shaped
// query (four patterns and a WKT FILTER constant): the key is the text
// the parser kept, so a hit builds nothing.
func TestLookupHitAllocations(t *testing.T) {
	src := constSource{newMemSource()}
	c := New(16, 0)
	q := parseQ(t, `PREFIX lai: <http://ex/lai#>
SELECT DISTINCT ?s ?wkt ?lai WHERE {
  ?s <http://www.w3.org/2006/time#hasTime> "2018-06-01T00:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime> .
  ?s lai:lai ?lai .
  ?s geo:hasGeometry ?g .
  ?g geo:asWKT ?wkt .
  FILTER(geof:sfWithin(?wkt, "POLYGON ((7.6 45.0, 7.7 45.0, 7.7 45.1, 7.6 45.1, 7.6 45.0))"^^geo:wktLiteral))
}`)
	_, fill, st := c.Lookup(q, src)
	if st != Miss {
		t.Fatalf("setup: got %v, want Miss", st)
	}
	fill.Store(&sparql.Results{Vars: []string{"s", "wkt", "lai"}})

	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, st := c.Lookup(q, src); st != Hit {
			t.Fatalf("lookup %d: got %v, want Hit", i, st)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%d B, %.2f allocs per hit", bytes, allocs)
	if allocs > 1 || bytes > 64 {
		t.Fatalf("a hit costs %d B and %.2f allocs; ceiling is 64 B and 1 alloc", bytes, allocs)
	}
}

// TestStoreRefusesPartialAnswer: a Fill.Store of a partial answer
// stores nothing, so the next lookup misses and a later full answer
// fills the entry.
func TestStoreRefusesPartialAnswer(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := New(16, 0)
	q := parseQ(t, qBase)
	_, fill, st := c.Lookup(q, src)
	if st != Miss {
		t.Fatalf("cold lookup: %v, want Miss", st)
	}
	fill.Store(&sparql.Results{Vars: []string{"s"}, Partial: true})
	if c.Len() != 0 {
		t.Fatalf("a partial answer was stored: %d entries", c.Len())
	}
	if _, st := evalThrough(t, c, src, qBase); st != Miss {
		t.Fatalf("after a partial answer: %v, want Miss", st)
	}
	if _, st := evalThrough(t, c, src, qBase); st != Hit {
		t.Fatalf("after the full answer: %v, want Hit", st)
	}
}

func TestCacheDistinctSourcesDoNotShare(t *testing.T) {
	a, b := newMemSource(), newMemSource()
	a.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := New(16, 0)
	evalThrough(t, c, a, qBase)
	if _, _, st := c.Lookup(parseQ(t, qBase), b); st != Miss {
		t.Fatalf("entry leaked across source instances: %v", st)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	now := time.Unix(1000, 0)
	c := New(16, 30*time.Second)
	c.Now = func() time.Time { return now }

	evalThrough(t, c, src, qBase)
	if _, _, st := c.Lookup(parseQ(t, qBase), src); st != Hit {
		t.Fatalf("want hit before expiry")
	}
	now = now.Add(31 * time.Second)
	if _, _, st := c.Lookup(parseQ(t, qBase), src); st != Stale {
		t.Fatalf("want stale after ttl")
	}
}

// fpOnlySource has a fingerprint but no epoch: TTL is the only bound.
type fpOnlySource struct {
	src *memSource
}

func (f fpOnlySource) Match(s, p, o rdf.Term) []rdf.Triple { return f.src.Match(s, p, o) }
func (f fpOnlySource) Fingerprint() string                 { return f.src.fp }

func TestCacheEpochlessUsesTTL(t *testing.T) {
	inner := newMemSource()
	inner.Add(triple("http://ex/a", "http://ex/p", "1"))
	src := fpOnlySource{src: inner}
	now := time.Unix(1000, 0)
	c := New(16, 0) // no explicit ttl → epochless default bound
	c.Now = func() time.Time { return now }

	q := parseQ(t, qBase)
	_, fill, st := c.Lookup(q, src)
	if st != Miss {
		t.Fatalf("want miss")
	}
	res, _ := q.Eval(src)
	fill.Store(res)
	if _, _, st := c.Lookup(q, src); st != Hit {
		t.Fatalf("want hit inside default ttl")
	}
	now = now.Add(2 * time.Minute)
	if _, _, st := c.Lookup(q, src); st != Stale {
		t.Fatalf("want stale past default ttl")
	}
}

// evalSource mutates its own epoch during Match, like the OBDA virtual
// graph; it declares EvalEpocher so fills capture the post-eval epoch.
type evalSource struct {
	*memSource
}

func (evalSource) EpochAdvancesOnEval() {}

func (e evalSource) Match(s, p, o rdf.Term) []rdf.Triple {
	e.mu.Lock()
	e.epoch++ // self-advance, as a window-cache refresh would
	e.mu.Unlock()
	return e.memSource.Match(s, p, o)
}

func TestCacheEvalEpocherNoDoubleMiss(t *testing.T) {
	src := evalSource{newMemSource()}
	src.memSource.triples = append(src.memSource.triples, triple("http://ex/a", "http://ex/p", "1"))
	c := New(16, 0)

	q := parseQ(t, qBase)
	_, fill, st := c.Lookup(q, src)
	if st != Miss {
		t.Fatalf("want miss")
	}
	res, err := q.Eval(src) // advances the epoch
	if err != nil {
		t.Fatal(err)
	}
	fill.Store(res) // must capture the post-eval epoch
	if _, _, st := c.Lookup(q, src); st != Hit {
		t.Fatalf("EvalEpocher fill did not validate: got %v (double-miss bug)", st)
	}
	// External mutation still invalidates.
	src.Add(triple("http://ex/b", "http://ex/p", "2"))
	if _, _, st := c.Lookup(q, src); st != Stale {
		t.Fatalf("want stale after external mutation")
	}
}

func TestCacheMidEvalWriteNeverValidates(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := New(16, 0)

	q := parseQ(t, qBase)
	_, fill, _ := c.Lookup(q, src)
	res, _ := q.Eval(src)
	// A write lands between eval and fill (models a mid-eval write): the
	// stored pre-read epoch is behind, so the entry must never validate.
	src.Add(triple("http://ex/b", "http://ex/p", "2"))
	fill.Store(res)
	if _, _, st := c.Lookup(q, src); st != Stale {
		t.Fatalf("torn fill validated: %v", st)
	}
}

func TestCacheLookupStale(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := New(16, 0)
	evalThrough(t, c, src, qBase)
	src.Add(triple("http://ex/b", "http://ex/p", "2"))

	q := parseQ(t, qBase)
	if _, _, st := c.Lookup(q, src); st != Stale {
		t.Fatalf("setup: want stale")
	}
	got, ok := c.LookupStale(q, src)
	if !ok || len(got.Bindings) != 1 {
		t.Fatalf("stale serve failed: ok=%v", ok)
	}
	// A renamed query is another text: no stale entry to serve.
	if _, ok := c.LookupStale(parseQ(t, `SELECT ?x ?y WHERE { ?x <http://ex/p> ?y }`), src); ok {
		t.Fatalf("stale serve crossed texts")
	}
	// Unknown query: no stale entry.
	if _, ok := c.LookupStale(parseQ(t, `ASK { ?s <http://ex/p> ?o }`), src); ok {
		t.Fatalf("stale serve invented an entry")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := New(2, 0)
	queries := []string{
		`SELECT ?s WHERE { ?s <http://ex/p> ?o }`,
		`SELECT ?s WHERE { ?s <http://ex/q> ?o }`,
		`SELECT ?s WHERE { ?s <http://ex/r> ?o }`,
	}
	for _, qs := range queries {
		evalThrough(t, c, src, qs)
	}
	if c.Len() != 2 {
		t.Fatalf("capacity not enforced: %d", c.Len())
	}
	// Oldest (queries[0]) was evicted.
	if _, _, st := c.Lookup(parseQ(t, queries[0]), src); st != Miss {
		t.Fatalf("oldest not evicted: %v", st)
	}
	if _, _, st := c.Lookup(parseQ(t, queries[2]), src); st != Hit {
		t.Fatalf("newest evicted: %v", st)
	}
}

func TestCacheBypassWithoutFingerprint(t *testing.T) {
	c := New(16, 0)
	bare := sourceFunc(func(s, p, o rdf.Term) []rdf.Triple { return nil })
	if _, _, st := c.Lookup(parseQ(t, qBase), bare); st != Bypass {
		t.Fatalf("fingerprint-less source must bypass")
	}
	if _, ok := c.LookupStale(parseQ(t, qBase), bare); ok {
		t.Fatalf("stale lookup must bypass too")
	}
	// A query built in code has no text to key on.
	if _, _, st := c.Lookup(&sparql.Query{Limit: -1}, newMemSource()); st != Bypass {
		t.Fatalf("textless query must bypass")
	}
}

type sourceFunc func(s, p, o rdf.Term) []rdf.Triple

func (f sourceFunc) Match(s, p, o rdf.Term) []rdf.Triple { return f(s, p, o) }

func TestNilCacheIsNoop(t *testing.T) {
	var c *Cache
	src := newMemSource()
	if _, _, st := c.Lookup(parseQ(t, qBase), src); st != Bypass {
		t.Fatalf("nil cache must bypass")
	}
	if _, ok := c.LookupStale(parseQ(t, qBase), src); ok {
		t.Fatalf("nil cache stale lookup")
	}
	Fill{}.Store(&sparql.Results{})
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("nil len")
	}
}

func TestCacheMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := New(16, 0)
	c.Metrics = reg

	evalThrough(t, c, src, qBase)   // 2 misses (double lookup), 1 fill
	c.Lookup(parseQ(t, qBase), src) // hit
	src.Add(triple("http://ex/b", "http://ex/p", "2"))
	c.Lookup(parseQ(t, qBase), src)      // stale
	c.LookupStale(parseQ(t, qBase), src) // stale served

	if v := reg.Counter("rescache_misses_total").Value(); v != 2 {
		t.Fatalf("misses: %v", v)
	}
	if v := reg.Counter("rescache_hits_total").Value(); v != 1 {
		t.Fatalf("hits: %v", v)
	}
	if v := reg.Counter("rescache_stale_total").Value(); v != 1 {
		t.Fatalf("stale: %v", v)
	}
	if v := reg.Counter("rescache_stale_served_total").Value(); v != 1 {
		t.Fatalf("stale served: %v", v)
	}
	if v := reg.Counter("rescache_fills_total").Value(); v != 1 {
		t.Fatalf("fills: %v", v)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := New(64, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := parseQ(t, qBase)
				res, fill, st := c.Lookup(q, src)
				switch st {
				case Hit:
					if len(res.Bindings) == 0 {
						t.Error("empty hit")
						return
					}
				case Miss, Stale:
					fresh, err := q.Eval(src)
					if err != nil {
						t.Error(err)
						return
					}
					fill.Store(fresh)
				}
				if w == 0 && i%10 == 0 {
					src.Add(triple(fmt.Sprintf("http://ex/n%d", i), "http://ex/p", "x"))
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestNextFingerprintUnique(t *testing.T) {
	a, b := NextFingerprint("x"), NextFingerprint("x")
	if a == b {
		t.Fatalf("fingerprints collide: %s", a)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{Hit: "hit", Miss: "miss", Stale: "stale", Bypass: "bypass"} {
		if st.String() != want {
			t.Fatalf("%d: %s", st, st.String())
		}
	}
}

func TestCachePurgeAndDefaults(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := New(0, 0) // capacity default
	c.Metrics = telemetry.NewRegistry()
	evalThrough(t, c, src, qBase)
	if c.Len() != 1 {
		t.Fatalf("len: %d", c.Len())
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("purge left entries")
	}
	if _, _, st := c.Lookup(parseQ(t, qBase), src); st != Miss {
		t.Fatalf("purged entry hit")
	}
	// Bypass + eviction metric paths with a registry attached.
	bare := sourceFunc(func(s, p, o rdf.Term) []rdf.Triple { return nil })
	c.Lookup(parseQ(t, qBase), bare)
	if v := c.Metrics.Counter("rescache_bypass_total").Value(); v != 1 {
		t.Fatalf("bypass counter: %v", v)
	}
	small := New(1, 0)
	small.Metrics = c.Metrics
	evalThrough(t, small, src, `SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
	evalThrough(t, small, src, `SELECT ?s WHERE { ?s <http://ex/q> ?o }`)
	if v := c.Metrics.Counter("rescache_evictions_total").Value(); v != 1 {
		t.Fatalf("eviction counter: %v", v)
	}
}
