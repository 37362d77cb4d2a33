package rtree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"applab/internal/geom"
)

func ptEnv(x, y float64) geom.Envelope { return geom.Envelope{MinX: x, MinY: y, MaxX: x, MaxY: y} }

// searchIDs is the sorted ids of every item Search finds for q.
func searchIDs(tr *Tree, q geom.Envelope) []int {
	var out []int
	tr.Search(q, func(it Item) bool {
		out = append(out, it.Data.(int))
		return true
	})
	sort.Ints(out)
	return out
}

func bruteForce(items []Item, q geom.Envelope) []int {
	var out []int
	for _, it := range items {
		if it.Env.Intersects(q) {
			out = append(out, it.Data.(int))
		}
	}
	sort.Ints(out)
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := Bulk(nil)
	if tr.Len() != 0 {
		t.Fatal("empty tree Len != 0")
	}
	if got := searchIDs(tr, geom.Envelope{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}); len(got) != 0 {
		t.Fatalf("empty tree returned %v", got)
	}
}

func TestBulkSearch(t *testing.T) {
	var items []Item
	for i := 0; i < 100; i++ {
		items = append(items, Item{ptEnv(float64(i%10), float64(i/10)), i})
	}
	tr := Bulk(items)
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := searchIDs(tr, geom.Envelope{MinX: 2.5, MinY: 2.5, MaxX: 5.5, MaxY: 5.5}); len(got) != 9 { // x,y in {3,4,5}
		t.Fatalf("window query returned %d items, want 9", len(got))
	}
	if hit := searchIDs(tr, ptEnv(7, 3)); !slices.Equal(hit, []int{37}) {
		t.Fatalf("point query = %v", hit)
	}
	if m := searchIDs(tr, geom.Envelope{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101}); len(m) != 0 {
		t.Fatalf("miss query = %v", m)
	}
}

// A bulk-loaded tree of a few levels answers every window query exactly as
// a linear scan over the same items does.
func TestBulkMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var items []Item
	for i := 0; i < 500; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		w, h := rng.Float64()*10, rng.Float64()*10
		items = append(items, Item{geom.Envelope{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, i})
	}
	bulk := Bulk(items)
	if bulk.Len() != 500 {
		t.Fatalf("Len = %d, want 500", bulk.Len())
	}
	for q := 0; q < 50; q++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		query := geom.Envelope{MinX: x, MinY: y, MaxX: x + 50, MaxY: y + 50}
		if got, want := searchIDs(bulk, query), bruteForce(items, query); !slices.Equal(got, want) {
			t.Fatalf("query %d: got %v want %v", q, got, want)
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	var items []Item
	for i := 0; i < 50; i++ {
		items = append(items, Item{ptEnv(float64(i), 0), i})
	}
	count := 0
	Bulk(items).Search(geom.Envelope{MinX: -1, MinY: -1, MaxX: 100, MaxY: 1}, func(Item) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

// Property: tree search is exactly brute force for random rectangles,
// over trees of one to several levels.
func TestSearchEquivalenceProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + 2*int(nRaw)
		var items []Item
		for i := 0; i < n; i++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			e := geom.Envelope{MinX: x, MinY: y, MaxX: x + rng.Float64()*5, MaxY: y + rng.Float64()*5}
			items = append(items, Item{e, i})
		}
		tr := Bulk(items)
		q := geom.Envelope{MinX: rng.Float64() * 80, MinY: rng.Float64() * 80, MaxX: 0, MaxY: 0}
		q.MaxX = q.MinX + rng.Float64()*30
		q.MaxY = q.MinY + rng.Float64()*30
		return tr.Len() == n && slices.Equal(searchIDs(tr, q), bruteForce(items, q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
