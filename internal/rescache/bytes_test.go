package rescache

// Byte-budget eviction tests: entry cost is the encoded answer size,
// the summed cost never exceeds the budget after a fill, eviction is
// LRU-ordered, shrinking the budget evicts immediately, and an answer
// larger than the whole budget is refused residency rather than pinned.

import (
	"fmt"
	"strings"
	"testing"

	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// fillDistinct evaluates nq distinct queries through the cache, each
// answered with a payload of roughly payload bytes and each sighted
// twice, so a full cache stores it too.
func fillDistinct(t *testing.T, c *Cache, src *memSource, nq, payload int) []string {
	t.Helper()
	queries := make([]string, nq)
	for i := 0; i < nq; i++ {
		p := fmt.Sprintf("http://ex/p%d", i)
		src.Add(triple("http://ex/s", p, strings.Repeat("x", payload)))
		queries[i] = fmt.Sprintf(`SELECT ?o WHERE { ?s <%s> ?o }`, p)
		if _, st := evalThrough(t, c, src, queries[i]); st != Miss && st != Stale {
			t.Fatalf("query %d: status %v", i, st)
		}
		evalThrough(t, c, src, queries[i])
	}
	return queries
}

func TestEncodedSize(t *testing.T) {
	if EncodedSize(nil) != 0 {
		t.Fatal("nil result has nonzero size")
	}
	small := &sparql.Results{Vars: []string{"o"}, Cols: []string{"o"}}
	big := &sparql.Results{Vars: []string{"o"}, Cols: []string{"o"}}
	big.Bindings = sparql.Table(big.Cols, []sparql.Binding{{"o": triple("a", "b", strings.Repeat("x", 1000)).O}})
	if EncodedSize(big) <= EncodedSize(small)+1000 {
		t.Fatalf("cost not payload-proportional: big=%d small=%d", EncodedSize(big), EncodedSize(small))
	}
}

func TestByteBudgetEviction(t *testing.T) {
	src := newMemSource()
	reg := telemetry.NewRegistry()
	c := New(100, 0) // count capacity far above what the byte budget allows
	c.Metrics = reg
	c.SetMaxBytes(2000)

	queries := fillDistinct(t, c, src, 8, 400)
	if c.Bytes() > 2000 {
		t.Fatalf("resident bytes %d exceed the 2000 budget", c.Bytes())
	}
	if c.Len() >= 8 {
		t.Fatalf("no eviction: %d entries resident", c.Len())
	}
	snap := reg.Snapshot()
	if snap.Counters["rescache_evictions_total"] == 0 {
		t.Fatal("evictions not counted")
	}
	if snap.Gauges["rescache_bytes"] != float64(c.Bytes()) {
		t.Fatalf("rescache_bytes gauge %v != %d", snap.Gauges["rescache_bytes"], c.Bytes())
	}
	// LRU order: the oldest query is gone, the newest still hits.
	if _, _, st := c.Lookup(parseQ(t, queries[0]), src); st != Miss {
		t.Fatalf("oldest entry survived a byte eviction: %v", st)
	}
	if _, _, st := c.Lookup(parseQ(t, queries[7]), src); st != Hit {
		t.Fatalf("newest entry evicted: %v", st)
	}
}

func TestByteBudgetShrinkAndOversized(t *testing.T) {
	src := newMemSource()
	c := New(100, 0)
	fillDistinct(t, c, src, 4, 100)
	resident := c.Len()
	if resident != 4 {
		t.Fatalf("setup: %d entries", resident)
	}
	// Shrinking evicts immediately, without waiting for the next fill.
	c.SetMaxBytes(c.Bytes() / 2)
	if c.Len() >= resident || c.Bytes() > c.MaxBytes() {
		t.Fatalf("shrink did not evict: %d entries, %d bytes", c.Len(), c.Bytes())
	}
	// An answer bigger than the whole budget is refused: it is not
	// pinned, and it evicts none of the resident entries.
	resident = c.Len()
	src.Add(triple("http://ex/s", "http://ex/huge", strings.Repeat("y", 4096)))
	huge := `SELECT ?o WHERE { ?s <http://ex/huge> ?o }`
	evalThrough(t, c, src, huge)
	evalThrough(t, c, src, huge)
	if c.Bytes() > c.MaxBytes() {
		t.Fatalf("oversized answer pinned: %d bytes > budget %d", c.Bytes(), c.MaxBytes())
	}
	if _, _, st := c.Lookup(parseQ(t, huge), src); st == Hit {
		t.Fatal("oversized answer resident")
	}
	if c.Len() != resident {
		t.Fatalf("an oversized answer emptied the cache: %d of %d entries left", c.Len(), resident)
	}
	// Removing the bound restores count-only behaviour.
	c.SetMaxBytes(0)
	evalThrough(t, c, src, huge)
	if _, _, st := c.Lookup(parseQ(t, huge), src); st != Hit {
		t.Fatalf("unbounded cache refused the entry: %v", st)
	}
}
