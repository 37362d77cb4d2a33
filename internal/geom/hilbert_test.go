package geom

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHilbertDIsPermutation(t *testing.T) {
	const order = 4
	n := uint32(1) << order
	seen := make(map[uint64]bool, n*n)
	for y := uint32(0); y < n; y++ {
		for x := uint32(0); x < n; x++ {
			d := hilbertD(order, x, y)
			if d >= uint64(n)*uint64(n) {
				t.Fatalf("hilbertD(%d,%d) = %d out of range", x, y, d)
			}
			if seen[d] {
				t.Fatalf("hilbertD(%d,%d) = %d duplicated", x, y, d)
			}
			seen[d] = true
		}
	}
}

// TestHilbertLocality pins the property the index exists for: cells
// adjacent along the curve are adjacent in the grid.
func TestHilbertLocality(t *testing.T) {
	const order = 5
	n := uint32(1) << order
	byD := make(map[uint64][2]uint32)
	for y := uint32(0); y < n; y++ {
		for x := uint32(0); x < n; x++ {
			byD[hilbertD(order, x, y)] = [2]uint32{x, y}
		}
	}
	for d := uint64(1); d < uint64(n)*uint64(n); d++ {
		a, b := byD[d-1], byD[d]
		dx := int64(a[0]) - int64(b[0])
		dy := int64(a[1]) - int64(b[1])
		if dx*dx+dy*dy != 1 {
			t.Fatalf("curve jumps from %v to %v at d=%d", a, b, d)
		}
	}
}

func randomEnvs(rng *rand.Rand, n int, world float64, maxSize float64) []Envelope {
	envs := make([]Envelope, n)
	for i := range envs {
		x := rng.Float64() * world
		y := rng.Float64() * world
		w := rng.Float64() * maxSize
		h := rng.Float64() * maxSize
		envs[i] = Envelope{x, y, x + w, y + h}
	}
	return envs
}

// TestCellIndexProbeMatchesBruteForce differentially checks Probe
// against the O(n) envelope scan, across grid orders and skews.
func TestCellIndexProbeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, order := range []uint{1, 3, 6, 8} {
		for trial := 0; trial < 5; trial++ {
			envs := randomEnvs(rng, 200, 100, 12)
			// Inject degenerates: empty, point-sized, and world-spanning.
			envs = append(envs, EmptyEnvelope(), Envelope{50, 50, 50, 50}, Envelope{-5, -5, 200, 200})
			ci := buildCellIndex(envs, order)
			for probe := 0; probe < 30; probe++ {
				q := randomEnvs(rng, 1, 110, 25)[0]
				var got []int32
				ci.Probe(q, func(id int32) bool { got = append(got, id); return true })
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				var want []int32
				for id, e := range envs {
					if q.Intersects(e) {
						want = append(want, int32(id))
					}
				}
				if len(got) != len(want) {
					t.Fatalf("order %d: probe %v: got %d candidates, want %d", order, q, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("order %d: probe %v: candidate sets differ at %d: %d vs %d",
							order, q, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCellIndexReportsOnce guards the reference-point deduplication: a
// probe whose envelope and candidates span many cells must still report
// each candidate exactly once.
func TestCellIndexReportsOnce(t *testing.T) {
	envs := []Envelope{
		{0, 0, 100, 100}, // spans the whole grid
		{10, 10, 90, 90},
		{0, 0, 0.5, 0.5},
	}
	ci := BuildCellIndex(envs)
	counts := map[int32]int{}
	ci.Probe(Envelope{-10, -10, 110, 110}, func(id int32) bool { counts[id]++; return true })
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("candidate %d reported %d times", id, c)
		}
	}
	if len(counts) != len(envs) {
		t.Fatalf("got %d candidates, want %d", len(counts), len(envs))
	}
}

func TestCellIndexEarlyStop(t *testing.T) {
	envs := randomEnvs(rand.New(rand.NewSource(9)), 50, 10, 10)
	ci := buildCellIndex(envs, 4)
	calls := 0
	ci.Probe(Envelope{0, 0, 20, 20}, func(int32) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("Probe continued after fn returned false (%d calls)", calls)
	}
}

func TestCellIndexDegenerate(t *testing.T) {
	// No envelopes at all.
	ci := BuildCellIndex(nil)
	ci.Probe(Envelope{0, 0, 1, 1}, func(int32) bool { t.Fatal("candidate from empty index"); return false })
	if ci.Cells() != 0 {
		t.Fatalf("empty index has %d cells", ci.Cells())
	}
	// All envelopes identical points: degenerate world extent.
	pt := Envelope{5, 5, 5, 5}
	ci = BuildCellIndex([]Envelope{pt, pt, pt})
	n := 0
	ci.Probe(Envelope{4, 4, 6, 6}, func(int32) bool { n++; return true })
	if n != 3 {
		t.Fatalf("degenerate-world probe found %d of 3", n)
	}
	// Empty probe envelope finds nothing.
	ci.Probe(EmptyEnvelope(), func(int32) bool { t.Fatal("candidate for empty probe"); return false })
}
