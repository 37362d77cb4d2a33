package rtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"applab/internal/geom"
)

func ptEnv(x, y float64) geom.Envelope { return geom.Envelope{MinX: x, MinY: y, MaxX: x, MaxY: y} }

// searchIDs is the sorted ids Search finds for q.
func searchIDs(tr *Tree, q geom.Envelope) []int32 {
	out := tr.Search(q, nil)
	slices.Sort(out)
	return out
}

func bruteForce(envs []geom.Envelope, q geom.Envelope) []int32 {
	var out []int32
	for i, e := range envs {
		if e.Intersects(q) {
			out = append(out, int32(i))
		}
	}
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

// TestDegenerateInputs: inputs with no extent to partition, and probes
// that cover nothing.
func TestDegenerateInputs(t *testing.T) {
	pt := ptEnv(5, 5)
	empty := geom.EmptyEnvelope()
	cases := []struct {
		name  string
		envs  []geom.Envelope
		probe geom.Envelope
		want  []int32
		size  int
	}{
		{"no envelopes", []geom.Envelope{}, geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, nil, 0},
		{"only empty envelopes", []geom.Envelope{empty, empty}, geom.Envelope{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}, nil, 0},
		{"identical points", []geom.Envelope{pt, pt, pt}, geom.Envelope{MinX: 4, MinY: 4, MaxX: 6, MaxY: 6}, []int32{0, 1, 2}, 3},
		{"identical points, point probe", []geom.Envelope{pt, pt, pt}, pt, []int32{0, 1, 2}, 3},
		{"empty probe", []geom.Envelope{pt, pt, pt}, empty, nil, 3},
		// A NaN bound compares false, as in Envelope.Intersects: the
		// envelope is open on that side, and so is every node above it.
		{"NaN bound, near probe", []geom.Envelope{pt, {MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1}}, geom.Envelope{MinX: -9, MinY: 0, MaxX: -8, MaxY: 9}, []int32{1}, 2},
		{"NaN bound, far probe", []geom.Envelope{pt, {MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1}}, geom.Envelope{MinX: 2, MinY: 2, MaxX: 9, MaxY: 9}, []int32{0}, 2},
	}
	for _, c := range cases {
		tr := Bulk(c.envs)
		if tr.Len() != c.size {
			t.Errorf("%s: Len = %d, want %d", c.name, tr.Len(), c.size)
		}
		if got := searchIDs(tr, c.probe); !slices.Equal(got, c.want) {
			t.Errorf("%s: Search = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBulkSearch(t *testing.T) {
	var envs []geom.Envelope
	for i := 0; i < 100; i++ {
		envs = append(envs, ptEnv(float64(i%10), float64(i/10)))
	}
	tr := Bulk(envs)
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := searchIDs(tr, geom.Envelope{MinX: 2.5, MinY: 2.5, MaxX: 5.5, MaxY: 5.5}); len(got) != 9 { // x,y in {3,4,5}
		t.Fatalf("window query returned %d items, want 9", len(got))
	}
	if hit := searchIDs(tr, ptEnv(7, 3)); !slices.Equal(hit, []int32{37}) {
		t.Fatalf("point query = %v", hit)
	}
	if m := searchIDs(tr, geom.Envelope{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101}); len(m) != 0 {
		t.Fatalf("miss query = %v", m)
	}
	// Search appends after what dst holds.
	if got := tr.Search(ptEnv(7, 3), []int32{-1}); !slices.Equal(got, []int32{-1, 37}) {
		t.Fatalf("Search onto a prefix = %v", got)
	}
}

// A bulk-loaded tree of a few levels answers every window query exactly as
// a linear scan over the same envelopes does, reporting each id once,
// with empty, point-sized and world-spanning envelopes mixed in.
func TestBulkMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var envs []geom.Envelope
	indexed := 0
	for i := 0; i < 500; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		w, h := rng.Float64()*10, rng.Float64()*10
		switch i % 50 {
		case 0:
			envs = append(envs, geom.EmptyEnvelope())
			continue
		case 1:
			w, h = 0, 0
		case 2:
			x, y, w, h = -50, -50, 1100, 1100
		}
		envs = append(envs, geom.Envelope{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
		indexed++
	}
	bulk := Bulk(envs)
	if bulk.Len() != indexed {
		t.Fatalf("Len = %d, want %d", bulk.Len(), indexed)
	}
	for q := 0; q < 50; q++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		query := geom.Envelope{MinX: x, MinY: y, MaxX: x + 50, MaxY: y + 50}
		if got, want := searchIDs(bulk, query), bruteForce(envs, query); !slices.Equal(got, want) {
			t.Fatalf("query %d: got %v want %v", q, got, want)
		}
	}
}

// TestSearchMatchesBruteForce differentially checks Search against the
// O(n) envelope scan over trees of one to several levels, with empty,
// point-sized and world-spanning envelopes injected and probes that reach
// past the data's extent.
func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randomEnv := func(world, maxSize float64) geom.Envelope {
		x, y := rng.Float64()*world, rng.Float64()*world
		return geom.Envelope{MinX: x, MinY: y, MaxX: x + rng.Float64()*maxSize, MaxY: y + rng.Float64()*maxSize}
	}
	for _, n := range []int{1, maxEntries, maxEntries + 1, 200, 2000} {
		for trial := 0; trial < 5; trial++ {
			envs := make([]geom.Envelope, 0, n+3)
			for i := 0; i < n; i++ {
				envs = append(envs, randomEnv(100, 12))
			}
			envs = append(envs, geom.EmptyEnvelope(), ptEnv(50, 50), geom.Envelope{MinX: -5, MinY: -5, MaxX: 200, MaxY: 200})
			tr := Bulk(envs)
			if tr.Len() != n+2 {
				t.Fatalf("n=%d: Len = %d, want %d", n, tr.Len(), n+2)
			}
			for probe := 0; probe < 30; probe++ {
				q := randomEnv(110, 25)
				if got, want := searchIDs(tr, q), bruteForce(envs, q); !slices.Equal(got, want) {
					t.Fatalf("n=%d: probe %v: got %v want %v", n, q, got, want)
				}
			}
		}
	}
}

// TestSearchReportsOnce: a probe that covers every envelope, over
// envelopes that overlap every node of a multi-level tree, reports each
// id exactly once.
func TestSearchReportsOnce(t *testing.T) {
	envs := []geom.Envelope{
		{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, // spans the whole extent
		{MinX: 10, MinY: 10, MaxX: 90, MaxY: 90},
		{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5},
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		envs = append(envs, geom.Envelope{MinX: x, MinY: y, MaxX: x + 40, MaxY: y + 40})
	}
	tr := Bulk(envs)
	counts := map[int32]int{}
	for _, id := range tr.Search(geom.Envelope{MinX: -10, MinY: -10, MaxX: 150, MaxY: 150}, nil) {
		counts[id]++
	}
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("id %d reported %d times", id, c)
		}
	}
	if len(counts) != len(envs) {
		t.Fatalf("got %d ids, want %d", len(counts), len(envs))
	}
}

// Property: tree search is exactly brute force for random rectangles,
// over trees of one to several levels.
func TestSearchEquivalenceProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + 2*int(nRaw)
		var envs []geom.Envelope
		for i := 0; i < n; i++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			envs = append(envs, geom.Envelope{MinX: x, MinY: y, MaxX: x + rng.Float64()*5, MaxY: y + rng.Float64()*5})
		}
		tr := Bulk(envs)
		q := geom.Envelope{MinX: rng.Float64() * 80, MinY: rng.Float64() * 80, MaxX: 0, MaxY: 0}
		q.MaxX = q.MinX + rng.Float64()*30
		q.MaxY = q.MinY + rng.Float64()*30
		return tr.Len() == n && slices.Equal(searchIDs(tr, q), bruteForce(envs, q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzRTreeSearch differentially checks Search against brute force. The
// input is read as 4-byte envelopes (min x, min y, width, height on a
// small integer grid, so ties and shared edges are common; a width byte
// of 255 makes the envelope empty); the last envelope is the probe.
func FuzzRTreeSearch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 2, 2})
	f.Add([]byte{0, 0, 255, 0, 3, 3, 1, 1, 0, 0, 9, 9})
	seed := make([]byte, 4*300) // a tree of three levels
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var envs []geom.Envelope
		for ; len(data) >= 4; data = data[4:] {
			x, y := float64(data[0]%64), float64(data[1]%64)
			e := geom.Envelope{MinX: x, MinY: y, MaxX: x + float64(data[2]%16), MaxY: y + float64(data[3]%16)}
			if data[2] == 255 {
				e = geom.EmptyEnvelope()
			}
			envs = append(envs, e)
		}
		if len(envs) == 0 {
			return
		}
		probe := envs[len(envs)-1]
		envs = envs[:len(envs)-1]
		tr := Bulk(envs)
		indexed := 0
		for _, e := range envs {
			if !e.IsEmpty() {
				indexed++
			}
		}
		if tr.Len() != indexed {
			t.Fatalf("Len = %d, want %d", tr.Len(), indexed)
		}
		if got, want := searchIDs(tr, probe), bruteForce(envs, probe); !slices.Equal(got, want) {
			t.Fatalf("probe %v over %d envelopes: got %v want %v", probe, len(envs), got, want)
		}
	})
}
