package cluster

import (
	"sort"

	"applab/internal/rdf"
)

// ringVnodes is how many virtual points each replica group projects
// onto the hash ring. 128 keeps the worst-case imbalance between groups
// within a few percent while the ring stays tiny enough to rebuild on
// any topology change.
const ringVnodes = 128

// Ring places subject keys on replica groups by consistent hashing:
// every group owns the arc preceding each of its virtual points, so
// adding or removing one group moves only the keys on its arcs. Shard
// IDs and group indexes coincide — shard i is the data owned by replica
// group i.
//
// Placement hashes the *subject* term key, which is what makes the
// exchange operator's routed scans provable: a pattern with a bound
// subject can only match triples that placement sent to that subject's
// group.
type Ring struct {
	groups int
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	group int
}

// NewRing builds a ring over the given number of replica groups.
func NewRing(groups int) *Ring {
	if groups < 1 {
		groups = 1
	}
	r := &Ring{groups: groups, points: make([]ringPoint, 0, groups*ringVnodes)}
	for g := 0; g < groups; g++ {
		for v := 0; v < ringVnodes; v++ {
			h := mix64(uint64(g)<<32 | uint64(v))
			r.points = append(r.points, ringPoint{hash: h, group: g})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].group < r.points[j].group
	})
	return r
}

// mix64 is the splitmix64 finalizer; group/vnode indexes are too
// regular to place on the ring without a strong bit mix.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Groups reports the replica-group count.
func (r *Ring) Groups() int { return r.groups }

// Lookup maps a subject key to its owning replica group.
func (r *Ring) Lookup(subjectKey string) int {
	return r.owner(fnv1a(subjectKey))
}

// LookupTerm is Lookup(s.Key()) without building the key: the key's
// bytes are appended to a stack buffer and hashed in place, so routing
// a row allocates nothing.
func (r *Ring) LookupTerm(s rdf.Term) int {
	var buf [128]byte
	return r.owner(fnv1a(s.AppendKey(buf[:0])))
}

// FNV-1a, 64-bit: the placement hash. Changing it moves every subject.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a[K string | []byte](key K) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// owner is the group of the first ring point at or after hash v,
// wrapping past the last.
func (r *Ring) owner(v uint64) int {
	pts := r.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= v })
	if i == len(pts) {
		i = 0
	}
	return pts[i].group
}
