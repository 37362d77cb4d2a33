// Package rtree provides an R-tree over a column of geometry envelopes.
// A tree is bulk loaded (sort-tile-recursive packing) from a slice of
// envelopes and answers envelope-intersection queries with the slice
// positions of the envelopes that intersect. The Strabon store, the
// evaluator's spatial join and the spatial linker build on it.
package rtree

import (
	"cmp"
	"math"
	"slices"

	"applab/internal/geom"
)

const maxEntries = 16

// entry is one indexed envelope and its position in the input column.
type entry struct {
	env geom.Envelope
	id  int32
}

// node is a leaf when it holds entries, an internal node when it holds
// children.
type node struct {
	env      geom.Envelope
	entries  []entry
	children []*node
}

// Tree is an R-tree. The zero value is not usable; call Bulk.
type Tree struct {
	root *node
	size int
}

// Bulk builds a tree over envs using sort-tile-recursive packing: the
// id of envs[i] is i. Empty envelopes cover nothing and are not indexed.
func Bulk(envs []geom.Envelope) *Tree {
	entries := make([]entry, 0, len(envs))
	for i, e := range envs {
		if !e.IsEmpty() {
			entries = append(entries, entry{e, int32(i)})
		}
	}
	t := &Tree{size: len(entries)}
	if len(entries) == 0 {
		t.root = &node{env: geom.EmptyEnvelope()}
		return t
	}
	level := packLeaves(entries)
	for len(level) > 1 {
		level = packNodes(level)
	}
	t.root = level[0]
	return t
}

// packLeaves sorts entries into vertical slices by centre x, each slice
// by centre y, and cuts them into leaves that alias entries.
func packLeaves(entries []entry) []*node {
	nLeaves := (len(entries) + maxEntries - 1) / maxEntries
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceCap := nSlices * maxEntries
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.env.Center().X, b.env.Center().X) })
	leaves := make([]*node, 0, nLeaves)
	for start := 0; start < len(entries); start += sliceCap {
		slice := entries[start:min(start+sliceCap, len(entries))]
		slices.SortFunc(slice, func(a, b entry) int { return cmp.Compare(a.env.Center().Y, b.env.Center().Y) })
		for s := 0; s < len(slice); s += maxEntries {
			e := min(s+maxEntries, len(slice))
			n := &node{env: geom.EmptyEnvelope(), entries: slice[s:e:e]}
			for _, it := range n.entries {
				n.env = n.env.Extend(it.env)
			}
			leaves = append(leaves, n)
		}
	}
	return leaves
}

func packNodes(nodes []*node) []*node {
	slices.SortFunc(nodes, func(a, b *node) int { return cmp.Compare(a.env.Center().X, b.env.Center().X) })
	out := make([]*node, 0, (len(nodes)+maxEntries-1)/maxEntries)
	for start := 0; start < len(nodes); start += maxEntries {
		end := min(start+maxEntries, len(nodes))
		n := &node{env: geom.EmptyEnvelope(), children: nodes[start:end:end]}
		for _, c := range n.children {
			n.env = n.env.Extend(c.env)
		}
		out = append(out, n)
	}
	return out
}

// Len returns the number of indexed envelopes.
func (t *Tree) Len() int { return t.size }

// Search appends to dst the id of every indexed envelope that intersects
// q, each once and in tree order, and returns the extended slice.
func (t *Tree) Search(q geom.Envelope, dst []int32) []int32 {
	return search(t.root, q, dst)
}

func search(n *node, q geom.Envelope, dst []int32) []int32 {
	if !n.env.Intersects(q) {
		return dst
	}
	for _, e := range n.entries {
		if e.env.Intersects(q) {
			dst = append(dst, e.id)
		}
	}
	for _, c := range n.children {
		dst = search(c, q, dst)
	}
	return dst
}
