package rescache_test

// Cache-correctness differential oracle: randomized schedules of
// ingest / delete / reopen / clock ticks / concurrent query batches run
// against memory and disk-reopened strabon stores, and every answer the
// cache serves is compared canonically byte-for-byte against a fresh
// EvalSeed evaluation through the same source. The store is quiescent
// during each query batch (mutations and clock advances happen only
// between batches), so "cached answer == fresh evaluation" is an exact
// invariant, not a racy approximation. The cache's TTL runs on a fake
// clock that the ticks step past, so expiry is exercised beside epoch
// validation; zero real sleeps, deterministic under -race. A second
// family of runs gives the cache fewer entries than the query pool, so
// the cache fills and the admission doorkeeper decides which answers are
// kept while the store changes under it.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"applab/internal/faults"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

var oracleQueries = []string{
	fmt.Sprintf(`SELECT ?s ?v WHERE { ?s <%slai> ?v }`, rdf.NSLAI),
	// Renamed variables: another text than the query above, so it keeps
	// an entry of its own and never borrows that query's answer.
	fmt.Sprintf(`SELECT ?a ?b WHERE { ?a <%slai> ?b }`, rdf.NSLAI),
	`SELECT ?s ?g WHERE { ?s geo:hasGeometry ?g }`,
	fmt.Sprintf(`SELECT ?s WHERE { ?s <%s> <%sPark> }`, rdf.RDFType, rdf.NSOSM),
	fmt.Sprintf(`SELECT ?s ?v WHERE { ?s <%slai> ?v . FILTER(?v > 5) }`, rdf.NSLAI),
	`ASK { ?s geo:hasGeometry ?g }`,
	fmt.Sprintf(`SELECT ?s ?v ?t WHERE { ?s <%slai> ?v . OPTIONAL { ?s <%shasTime> ?t } }`,
		rdf.NSLAI, rdf.NSTime),
	`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
}

// canon renders a result set order-independently: sorted rows of
// var=termKey pairs in projection order, plus the ASK boolean.
func canon(res *sparql.Results) string {
	if res == nil {
		return "<nil>"
	}
	rows := make([]string, len(res.Bindings))
	for i := range res.Bindings {
		b := res.Binding(i)
		var row []string
		for _, v := range res.Vars {
			if tm, ok := b[v]; ok {
				row = append(row, v+"="+tm.Key())
			}
		}
		rows[i] = strings.Join(row, "|")
	}
	sort.Strings(rows)
	return fmt.Sprintf("bool=%v vars=%v\n%s", res.Bool, res.Vars, strings.Join(rows, "\n"))
}

// oracleSource serves the live store under a cache identity that
// composes the live store's fingerprint, so a disk reopen (fresh
// instance, epoch restarted at zero) re-keys every entry instead of
// wrongly validating against the old epochs.
type oracleSource struct {
	fp string

	mu   sync.Mutex
	live *strabon.Store
}

func newOracleSource(live *strabon.Store) *oracleSource {
	return &oracleSource{live: live, fp: rescache.NextFingerprint("oracle")}
}

func (o *oracleSource) setLive(st *strabon.Store) {
	o.mu.Lock()
	o.live = st
	o.mu.Unlock()
}

func (o *oracleSource) liveStore() *strabon.Store {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.live
}

func (o *oracleSource) Match(s, p, obj rdf.Term) []rdf.Triple {
	return o.liveStore().Match(s, p, obj)
}

func (o *oracleSource) DataEpoch() uint64 { return o.liveStore().DataEpoch() }

func (o *oracleSource) Fingerprint() string {
	return o.fp + "|" + o.liveStore().Fingerprint()
}

// queryBatch runs each worker through its pre-drawn queries
// concurrently. Cache hits are the answers under test; misses are
// evaluated with the compiled engine and filled. Every answer —
// cached or fresh — must canonically equal a fresh EvalSeed
// evaluation through the same source.
func queryBatch(t *testing.T, rng *rand.Rand, cache *rescache.Cache, src *oracleSource, workers int) {
	perWorker := make([][]string, workers)
	for w := range perWorker {
		for i := 0; i < 3; i++ {
			perWorker[w] = append(perWorker[w], oracleQueries[rng.Intn(len(oracleQueries))])
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(qs []string) {
			defer wg.Done()
			for _, qstr := range qs {
				query, err := sparql.Parse(qstr)
				if err != nil {
					t.Errorf("parse %q: %v", qstr, err)
					return
				}
				res, fill, st := cache.Lookup(query, src)
				if st != rescache.Hit {
					res, err = query.EvalContext(context.Background(), src)
					if err != nil {
						t.Errorf("eval %q: %v", qstr, err)
						continue
					}
					fill.Store(res)
				}
				want, err := sparql.EvalSeed(src, qstr)
				if err != nil {
					t.Errorf("seed eval %q: %v", qstr, err)
					continue
				}
				if got, exp := canon(res), canon(want); got != exp {
					t.Errorf("%v answer for %q diverges from fresh EvalSeed:\n got: %s\nwant: %s",
						st, qstr, got, exp)
				}
			}
		}(perWorker[w])
	}
	wg.Wait()
}

func runOracle(t *testing.T, seed int64, workers int, disk bool, capacity int) {
	rng := rand.New(rand.NewSource(seed))
	clock := faults.NewClock(time.Date(2019, 3, 26, 9, 0, 0, 0, time.UTC))
	dir := t.TempDir()

	var live *strabon.Store
	var err error
	if disk {
		live, err = strabon.Open(dir, segment.Options{FlushEvery: 25, CompactAt: 3})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		live = strabon.New()
	}
	defer func() { _ = live.Close() }()

	// Seed content: a park and a handful of observations.
	geo := func(local string) rdf.Term { return rdf.NewIRI(rdf.NSGeo + local) }
	park := rdf.NewIRI(rdf.NSOSM + "park1")
	parkGeom := rdf.NewIRI(rdf.NSOSM + "parkGeom1")
	live.AddAll([]rdf.Triple{
		rdf.NewTriple(park, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.NSOSM+"Park")),
		rdf.NewTriple(park, geo("hasGeometry"), parkGeom),
		rdf.NewTriple(parkGeom, geo("asWKT"), rdf.NewWKT("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))")),
	})
	var added []rdf.Triple
	counter := 0
	genBatch := func() []rdf.Triple {
		counter++
		obs := rdf.NewIRI(fmt.Sprintf("%soracle%d", rdf.NSLAI, counter))
		gnode := rdf.NewIRI(fmt.Sprintf("%soracleGeom%d", rdf.NSLAI, counter))
		when := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(counter) * time.Hour)
		return []rdf.Triple{
			rdf.NewTriple(obs, rdf.NewIRI(rdf.NSLAI+"lai"), rdf.NewDouble(float64(rng.Intn(10)))),
			rdf.NewTriple(obs, geo("hasGeometry"), gnode),
			rdf.NewTriple(obs, rdf.NewIRI(rdf.NSTime+"hasTime"), rdf.NewDateTime(when)),
			rdf.NewTriple(gnode, geo("asWKT"), rdf.NewWKT(fmt.Sprintf("POINT (%d %d)", counter%10, counter%7))),
		}
	}
	for i := 0; i < 5; i++ {
		b := genBatch()
		live.AddAll(b)
		added = append(added, b...)
	}

	src := newOracleSource(live)
	reg := telemetry.NewRegistry()
	cache := rescache.New(capacity, time.Minute)
	cache.Now = clock.Now
	cache.Metrics = reg

	for step := 0; step < 60; step++ {
		switch pick := rng.Intn(10); {
		case pick < 3: // ingest
			b := genBatch()
			live.AddAll(b)
			added = append(added, b...)
		case pick < 5: // delete
			if len(added) > 0 {
				k := rng.Intn(len(added))
				live.Delete(added[k])
				added = append(added[:k], added[k+1:]...)
			}
		case pick < 6: // reopen (disk mode) — fresh instance, epoch reset
			if !disk {
				continue
			}
			if err := live.Close(); err != nil {
				t.Fatalf("step %d: close: %v", step, err)
			}
			live, err = strabon.Open(dir, segment.Options{FlushEvery: 25, CompactAt: 3})
			if err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			src.setLive(live)
		case pick < 7: // clock tick: every entry outlives its TTL
			clock.Advance(61 * time.Second)
		default:
			queryBatch(t, rng, cache, src, workers)
		}
		if err := live.Err(); err != nil {
			t.Fatalf("step %d: store error: %v", step, err)
		}
	}

	// Two quiescent identical batches at the end guarantee the run
	// exercised the hit path at least once.
	queryBatch(t, rand.New(rand.NewSource(seed)), cache, src, workers)
	queryBatch(t, rand.New(rand.NewSource(seed)), cache, src, workers)
	if hits := reg.Counter("rescache_hits_total").Value(); hits == 0 {
		t.Error("schedule never exercised the cache hit path")
	}
	if capacity < len(oracleQueries) && reg.Counter("rescache_deferred_total").Value() == 0 {
		t.Error("a cache smaller than the query pool never deferred an answer")
	}
	t.Logf("hits=%d misses=%d stale=%d fills=%d deferred=%d",
		reg.Counter("rescache_hits_total").Value(),
		reg.Counter("rescache_misses_total").Value(),
		reg.Counter("rescache_stale_total").Value(),
		reg.Counter("rescache_fills_total").Value(),
		reg.Counter("rescache_deferred_total").Value())
}

func TestCacheOracle(t *testing.T) {
	modes := []struct {
		name     string
		disk     bool
		capacity int
	}{{"memory", false, 32}, {"disk", true, 32}, {"memory-small", false, 3}, {"disk-small", true, 3}}
	for _, mode := range modes {
		for _, workers := range []int{1, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				mode, workers, seed := mode, workers, seed
				t.Run(fmt.Sprintf("%s-w%d-seed%d", mode.name, workers, seed), func(t *testing.T) {
					runOracle(t, seed, workers, mode.disk, mode.capacity)
				})
			}
		}
	}
}
