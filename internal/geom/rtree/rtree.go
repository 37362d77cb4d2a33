// Package rtree provides an R-tree spatial index over geometry envelopes.
// Trees are bulk loaded (sort-tile-recursive packing) and answer
// envelope-intersection queries. The Strabon store and the evaluator's
// spatial join build on it.
package rtree

import (
	"math"
	"sort"

	"applab/internal/geom"
)

const maxEntries = 16

// Item is a value stored in the tree together with its envelope.
type Item struct {
	Env  geom.Envelope
	Data any
}

type node struct {
	leaf     bool
	env      geom.Envelope
	items    []Item  // leaf payload
	children []*node // internal children
}

// Tree is an R-tree. The zero value is not usable; call Bulk.
type Tree struct {
	root *node
	size int
}

// Bulk builds a tree from items using sort-tile-recursive packing.
func Bulk(items []Item) *Tree {
	t := &Tree{}
	if len(items) == 0 {
		t.root = &node{leaf: true, env: geom.EmptyEnvelope()}
		return t
	}
	leaves := packLeaves(items)
	t.size = len(items)
	for len(leaves) > 1 {
		leaves = packNodes(leaves)
	}
	t.root = leaves[0]
	return t
}

func packLeaves(items []Item) []*node {
	sorted := make([]Item, len(items))
	copy(sorted, items)
	nLeaves := (len(sorted) + maxEntries - 1) / maxEntries
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceCap := nSlices * maxEntries
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Env.Center().X < sorted[j].Env.Center().X
	})
	var leaves []*node
	for start := 0; start < len(sorted); start += sliceCap {
		end := start + sliceCap
		if end > len(sorted) {
			end = len(sorted)
		}
		slice := sorted[start:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Env.Center().Y < slice[j].Env.Center().Y
		})
		for s := 0; s < len(slice); s += maxEntries {
			e := s + maxEntries
			if e > len(slice) {
				e = len(slice)
			}
			n := &node{leaf: true, env: geom.EmptyEnvelope()}
			n.items = append(n.items, slice[s:e]...)
			for _, it := range n.items {
				n.env = n.env.Extend(it.Env)
			}
			leaves = append(leaves, n)
		}
	}
	return leaves
}

func packNodes(nodes []*node) []*node {
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].env.Center().X < nodes[j].env.Center().X
	})
	var out []*node
	for start := 0; start < len(nodes); start += maxEntries {
		end := start + maxEntries
		if end > len(nodes) {
			end = len(nodes)
		}
		n := &node{env: geom.EmptyEnvelope()}
		n.children = append(n.children, nodes[start:end]...)
		for _, c := range n.children {
			n.env = n.env.Extend(c.env)
		}
		out = append(out, n)
	}
	return out
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Search calls fn for every item whose envelope intersects query. Returning
// false from fn stops the search early.
func (t *Tree) Search(query geom.Envelope, fn func(Item) bool) {
	searchNode(t.root, query, fn)
}

func searchNode(n *node, q geom.Envelope, fn func(Item) bool) bool {
	if !n.env.Intersects(q) {
		return true
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Env.Intersects(q) {
				if !fn(it) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !searchNode(c, q, fn) {
			return false
		}
	}
	return true
}
