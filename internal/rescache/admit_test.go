package rescache

// Admission tests: while the cache has room every answer is stored; once
// it is full, a key is stored on its second sighting, a resident key's
// re-fill is stored at once, and a first sighting costs no copy of the
// answer.

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// fullCache returns a cache of capacity 2 holding the answers of two
// queries other than qBase over src.
func fullCache(t *testing.T, src *memSource) *Cache {
	t.Helper()
	c := New(2, 0)
	c.Metrics = telemetry.NewRegistry()
	evalThrough(t, c, src, `SELECT ?s WHERE { ?s <http://ex/q> ?o }`)
	evalThrough(t, c, src, `SELECT ?s WHERE { ?s <http://ex/r> ?o }`)
	if c.Len() != 2 {
		t.Fatalf("setup: %d entries, want 2", c.Len())
	}
	return c
}

// cells lists the term pointers of res's rows in order.
func cells(res *sparql.Results) []*rdf.Term {
	var out []*rdf.Term
	for _, r := range res.Bindings {
		out = append(out, r...)
	}
	return out
}

// offer looks text up over src, evaluates it and offers the answer to
// the cache, as the endpoint does on a miss; it returns the answer.
func offer(t *testing.T, c *Cache, src *memSource, text string) *sparql.Results {
	t.Helper()
	_, fill, st := c.LookupText(text, src)
	if st != Miss && st != Stale {
		t.Fatalf("lookup of %q: %v, want a miss", text, st)
	}
	res, err := parseQ(t, text).Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	fill.Store(res)
	return res
}

// TestFirstSightingIsNotStored: in a full cache a key seen for the first
// time stores nothing, and the answer is not copied — its cells still
// point where the engine put them. The second sighting stores it.
func TestFirstSightingIsNotStored(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := fullCache(t, src)

	_, fill, st := c.LookupText(qBase, src)
	if st != Miss {
		t.Fatalf("first lookup: %v, want Miss", st)
	}
	res, err := parseQ(t, qBase).Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	before := cells(res)
	fill.Store(res)
	if got := cells(res); !slices.Equal(got, before) {
		t.Fatal("a first sighting copied the answer it did not keep")
	}
	if _, _, st := c.LookupText(qBase, src); st != Miss {
		t.Fatalf("after the first sighting: %v, want Miss", st)
	}
	if c.Len() != 2 {
		t.Fatalf("a first sighting changed the residency: %d entries", c.Len())
	}
	if got := c.Metrics.Counter("rescache_deferred_total").Value(); got != 1 {
		t.Fatalf("rescache_deferred_total = %d, want 1", got)
	}

	second := offer(t, c, src, qBase)
	got, _, st := c.LookupText(qBase, src)
	if st != Hit || got != second {
		t.Fatalf("after the second sighting: %v, want a Hit on the stored answer", st)
	}
	if c.Len() != 2 {
		t.Fatalf("capacity not enforced: %d entries", c.Len())
	}
	if fills := c.Metrics.Counter("rescache_fills_total").Value(); fills != 3 {
		t.Fatalf("rescache_fills_total = %d, want 3", fills)
	}
}

// TestStaleRefillStoresAtOnce: a resident key whose entry went stale is
// re-filled on its next miss, full cache or not.
func TestStaleRefillStoresAtOnce(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := fullCache(t, src)
	resident := `SELECT ?s WHERE { ?s <http://ex/r> ?o }`
	src.Add(triple("http://ex/b", "http://ex/p", "2"))
	if _, _, st := c.LookupText(resident, src); st != Stale {
		t.Fatalf("after an ingest: %v, want Stale", st)
	}
	offer(t, c, src, resident)
	if _, _, st := c.LookupText(resident, src); st != Hit {
		t.Fatalf("stale re-fill: %v, want Hit", st)
	}
	if got := c.Metrics.Counter("rescache_deferred_total").Value(); got != 0 {
		t.Fatalf("rescache_deferred_total = %d, want 0", got)
	}
}

// TestPartialAnswerIsNoSighting: a partial answer is neither stored nor
// remembered, so the full answer after it is still a first sighting.
func TestPartialAnswerIsNoSighting(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := fullCache(t, src)
	_, fill, _ := c.LookupText(qBase, src)
	fill.Store(&sparql.Results{Vars: []string{"s"}, Partial: true})
	offer(t, c, src, qBase)
	if _, _, st := c.LookupText(qBase, src); st != Miss {
		t.Fatalf("after a partial and one full answer: %v, want Miss", st)
	}
	offer(t, c, src, qBase)
	if _, _, st := c.LookupText(qBase, src); st != Hit {
		t.Fatalf("after two full answers: %v, want Hit", st)
	}
}

// TestDoorkeeperBoundedByCapacity: the doorkeeper remembers at most as
// many keys as the cache holds entries, forgetting the oldest first.
func TestDoorkeeperBoundedByCapacity(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := fullCache(t, src)
	text := func(i int) string { return fmt.Sprintf(`SELECT ?s WHERE { ?s <http://ex/p> ?o } LIMIT %d`, i+1) }
	for i := 0; i < 10; i++ {
		offer(t, c, src, text(i))
		if n := len(c.door.fifo); n > c.capacity || len(c.door.seen) != n {
			t.Fatalf("after %d sightings the doorkeeper holds %d hashes (%d in its set); capacity is %d",
				i+1, n, len(c.door.seen), c.capacity)
		}
	}
	// The two newest sightings are remembered, the older ones are not.
	offer(t, c, src, text(0))
	if _, _, st := c.LookupText(text(0), src); st != Miss {
		t.Fatalf("a forgotten key was stored: %v", st)
	}
	offer(t, c, src, text(9))
	if _, _, st := c.LookupText(text(9), src); st != Hit {
		t.Fatalf("a remembered key was not stored: %v", st)
	}
}

// TestPurgeForgetsDoorkeeper: after Purge a key sighted before it is a
// first sighting again.
func TestPurgeForgetsDoorkeeper(t *testing.T) {
	src := newMemSource()
	src.Add(triple("http://ex/a", "http://ex/p", "1"))
	c := fullCache(t, src)
	offer(t, c, src, qBase)
	c.Purge()
	if len(c.door.fifo) != 0 || len(c.door.seen) != 0 {
		t.Fatalf("Purge kept %d doorkeeper hashes", len(c.door.fifo))
	}
	evalThrough(t, c, src, `SELECT ?s WHERE { ?s <http://ex/q> ?o }`)
	evalThrough(t, c, src, `SELECT ?s WHERE { ?s <http://ex/r> ?o }`)
	offer(t, c, src, qBase)
	if _, _, st := c.LookupText(qBase, src); st != Miss {
		t.Fatalf("a key sighted before Purge was stored on its first sighting after it: %v", st)
	}
}

// TestFirstSightingAllocations pins the cost of declining an answer: in
// a full cache, a first sighting of a 1,000-row answer allocates no more
// than one of a 1-row answer, and at most a small constant (copying the
// 1,000 rows would cost ~100 KB).
func TestFirstSightingAllocations(t *testing.T) {
	src := constSource{newMemSource()}
	c := New(4, 0)
	for i := 0; i < 4; i++ {
		_, fill, _ := c.LookupText(fmt.Sprintf("resident %d", i), src)
		fill.Store(&sparql.Results{Vars: []string{"s"}})
	}
	answer := func(rows int) *sparql.Results {
		res := &sparql.Results{Vars: []string{"s", "o"}, Cols: []string{"s", "o"}}
		bs := make([]sparql.Binding, rows)
		for i := range bs {
			bs[i] = sparql.Binding{"s": rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)), "o": rdf.NewLiteral("x")}
		}
		res.Bindings = sparql.Table(res.Cols, bs)
		return res
	}
	const runs = 1000
	perStore := func(res *sparql.Results, prefix string) (uint64, float64) {
		fills := make([]Fill, runs)
		for i := range fills {
			_, fills[i], _ = c.LookupText(fmt.Sprintf("%s %d", prefix, i), src)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, f := range fills {
			f.Store(res)
		}
		runtime.ReadMemStats(&after)
		if c.Len() != 4 {
			t.Fatalf("a first sighting was stored: %d entries", c.Len())
		}
		return (after.TotalAlloc - before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
	}
	smallB, smallA := perStore(answer(1), "small")
	bigB, bigA := perStore(answer(1000), "big")
	t.Logf("first sighting: 1 row %d B, %.2f allocs; 1,000 rows %d B, %.2f allocs", smallB, smallA, bigB, bigA)
	if bigB > 64 || bigA > 1 {
		t.Fatalf("a first sighting of 1,000 rows costs %d B and %.2f allocs; ceiling is 64 B and 1 alloc", bigB, bigA)
	}
}
