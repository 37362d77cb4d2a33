package geom

import (
	"math"
	"sort"
)

// The cell index partitions the plane into a 2^order × 2^order grid over
// the indexed envelopes' extent and stores, for every cell a geometry's
// envelope covers, one (cell, id) entry. Cells are keyed by their
// distance along the Hilbert space-filling curve and the entry list is
// sorted by that key, so spatially close cells sit close together in
// one flat array: a probe touches a handful of contiguous buckets
// instead of descending a pointer-linked tree. This is the classic
// space-partitioning trick of PBSM-style spatial joins (and of the
// Geo-L / JedAI-spatial linkers), sitting alongside the STR-packed
// R-tree as the second candidate generator.

// cellOrder is the grid order BuildCellIndex uses (64 × 64 cells).
const cellOrder = 6

// hilbertD returns the distance of grid cell (x, y) along the Hilbert
// curve of the given order (grid side 1<<order).
func hilbertD(order uint, x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant so the curve stays continuous.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// CellIndex is a Hilbert-keyed grid over a batch of envelopes.
type CellIndex struct {
	order  uint
	nside  uint32
	world  Envelope
	sx, sy float64 // cells per world unit (0 on a degenerate axis)

	// Sorted distinct Hilbert keys with their id buckets: bucket k holds
	// ids[starts[k]:starts[k+1]].
	keys   []uint64
	starts []int32
	ids    []int32

	envs []Envelope // the indexed envelope column, by id
}

// BuildCellIndex indexes the envelope column (ids are positions in the
// slice; empty envelopes are skipped) on a grid of order cellOrder.
func BuildCellIndex(envs []Envelope) *CellIndex {
	return buildCellIndex(envs, cellOrder)
}

// buildCellIndex is BuildCellIndex on a 2^order × 2^order grid
// (1 <= order <= 8; tests build other orders).
func buildCellIndex(envs []Envelope, order uint) *CellIndex {
	ci := &CellIndex{order: order, envs: envs}
	ci.nside = uint32(1) << ci.order
	world := EmptyEnvelope()
	for _, e := range envs {
		world = world.Extend(e)
	}
	ci.world = world
	if world.IsEmpty() {
		return ci
	}
	if w := world.MaxX - world.MinX; w > 0 {
		ci.sx = float64(ci.nside) / w
	}
	if h := world.MaxY - world.MinY; h > 0 {
		ci.sy = float64(ci.nside) / h
	}
	type entry struct {
		key uint64
		id  int32
	}
	var entries []entry
	for id, e := range envs {
		if e.IsEmpty() {
			continue
		}
		x0, y0, x1, y1 := ci.cellRange(e)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				entries = append(entries, entry{hilbertD(ci.order, x, y), int32(id)})
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].key != entries[j].key {
			return entries[i].key < entries[j].key
		}
		return entries[i].id < entries[j].id
	})
	for _, en := range entries {
		if n := len(ci.keys); n == 0 || ci.keys[n-1] != en.key {
			ci.keys = append(ci.keys, en.key)
			ci.starts = append(ci.starts, int32(len(ci.ids)))
		}
		ci.ids = append(ci.ids, en.id)
	}
	ci.starts = append(ci.starts, int32(len(ci.ids)))
	return ci
}

// Cells returns the number of non-empty grid cells.
func (ci *CellIndex) Cells() int { return len(ci.keys) }

// cell maps a coordinate to a grid column/row, clamped into the grid.
// The same mapping is used when inserting and when deduplicating by
// reference point, so the two always agree on boundary coordinates.
func cellCoord(v, min, scale float64, nside uint32) uint32 {
	c := int64(math.Floor((v - min) * scale))
	if c < 0 {
		return 0
	}
	if c >= int64(nside) {
		return nside - 1
	}
	return uint32(c)
}

func (ci *CellIndex) cellRange(e Envelope) (x0, y0, x1, y1 uint32) {
	x0 = cellCoord(e.MinX, ci.world.MinX, ci.sx, ci.nside)
	x1 = cellCoord(e.MaxX, ci.world.MinX, ci.sx, ci.nside)
	y0 = cellCoord(e.MinY, ci.world.MinY, ci.sy, ci.nside)
	y1 = cellCoord(e.MaxY, ci.world.MinY, ci.sy, ci.nside)
	return
}

// Probe calls fn once for every indexed envelope intersecting env (in
// cell-scan order; each candidate is reported exactly once). fn returns
// false to stop the probe.
func (ci *CellIndex) Probe(env Envelope, fn func(id int32) bool) {
	if env.IsEmpty() || len(ci.keys) == 0 {
		return
	}
	x0, y0, x1, y1 := ci.cellRange(env)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			key := hilbertD(ci.order, x, y)
			k := sort.Search(len(ci.keys), func(i int) bool { return ci.keys[i] >= key })
			if k == len(ci.keys) || ci.keys[k] != key {
				continue
			}
			for _, id := range ci.ids[ci.starts[k]:ci.starts[k+1]] {
				e := ci.envs[id]
				if !env.Intersects(e) {
					continue
				}
				// Reference-point deduplication: the intersection's
				// lower-left corner lies in exactly one cell; report the
				// pair only from that cell, so candidates covering many
				// cells come out once.
				rx := math.Max(env.MinX, e.MinX)
				ry := math.Max(env.MinY, e.MinY)
				if cellCoord(rx, ci.world.MinX, ci.sx, ci.nside) != x ||
					cellCoord(ry, ci.world.MinY, ci.sy, ci.nside) != y {
					continue
				}
				if !fn(id) {
					return
				}
			}
		}
	}
}
