package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"applab/internal/rdf"
)

func TestRingBalanceAndDeterminism(t *testing.T) {
	r1 := NewRing(3)
	r2 := NewRing(3)
	counts := make([]int, 3)
	const keys = 3000
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("<http://example.org/subject/%d>", i)
		g := r1.Lookup(k)
		if g2 := r2.Lookup(k); g2 != g {
			t.Fatalf("lookup not deterministic: %d vs %d for %q", g, g2, k)
		}
		counts[g]++
	}
	for g, n := range counts {
		if n < keys/10 {
			t.Errorf("group %d badly underloaded: %d of %d keys", g, n, keys)
		}
	}
}

func TestRingConsistency(t *testing.T) {
	// Consistent hashing: growing 3 -> 4 groups must keep most keys in
	// place (naive modulo would move ~75%).
	r3, r4 := NewRing(3), NewRing(4)
	const keys = 3000
	moved := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("<http://example.org/subject/%d>", i)
		if r3.Lookup(k) != r4.Lookup(k) {
			moved++
		}
	}
	if moved > keys/2 {
		t.Fatalf("adding one group moved %d of %d keys", moved, keys)
	}
}

func TestRingSingleGroup(t *testing.T) {
	r := NewRing(1)
	if g := r.Lookup("anything"); g != 0 {
		t.Fatalf("single-group lookup = %d", g)
	}
	if NewRing(0).Groups() != 1 {
		t.Fatal("zero groups should clamp to 1")
	}
}

// referenceLookup is the placement Lookup used to compute with
// hash/fnv: the key copied to a []byte and fed to a 64-bit FNV-1a
// hasher.
func referenceLookup(r *Ring, key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	v := h.Sum64()
	pts := r.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= v })
	if i == len(pts) {
		i = 0
	}
	return pts[i].group
}

// TestRingLookupUnchanged: the inline FNV-1a places 10k subjects of
// every term kind — long ones too, past LookupTerm's stack buffer —
// exactly where the hash/fnv Lookup placed them, by key and by term,
// and LookupTerm allocates nothing for a subject of ordinary length.
func TestRingLookupUnchanged(t *testing.T) {
	terms := make([]rdf.Term, 0, 10000)
	for i := 0; len(terms) < cap(terms); i++ {
		switch i % 5 {
		case 0:
			terms = append(terms, rdf.NewIRI(testSubjectIRI(i)))
		case 1:
			terms = append(terms, rdf.NewBlank(fmt.Sprintf("b%d", i)))
		case 2:
			terms = append(terms, rdf.NewLangLiteral(fmt.Sprintf("v%d", i), "en"))
		case 3:
			terms = append(terms, rdf.NewInteger(int64(i)))
		default:
			terms = append(terms, rdf.NewIRI("http://example.org/"+strings.Repeat("x", i%300)))
		}
	}
	for _, groups := range []int{1, 2, 3, 4, 7} {
		r := NewRing(groups)
		for _, term := range terms {
			want := referenceLookup(r, term.Key())
			if got := r.Lookup(term.Key()); got != want {
				t.Fatalf("%d groups: Lookup(%q) = %d, hash/fnv placed it on %d", groups, term.Key(), got, want)
			}
			if got := r.LookupTerm(term); got != want {
				t.Fatalf("%d groups: LookupTerm(%v) = %d, hash/fnv placed it on %d", groups, term, got, want)
			}
		}
	}
	r := NewRing(3)
	s := rdf.NewIRI(testSubjectIRI(42))
	if allocs := testing.AllocsPerRun(100, func() { r.LookupTerm(s) }); allocs != 0 {
		t.Fatalf("LookupTerm allocates %.0f times per call", allocs)
	}
}
