package geosparql

import (
	"sync"
	"sync/atomic"

	"applab/internal/geom"
)

// The memo is the only place a WKT literal is decoded: the FILTER/BIND
// path, the spatial join's build and probe sides and the store-pushdown
// path all look lexical forms up here, so a stored geometry is parsed
// once per process, not once per query. It is a second-chance (CLOCK)
// table: a hit sets the slot's reference bit under the read lock and
// copies nothing; an insert into a full table advances the hand,
// clearing set bits, and evicts the first slot whose bit was clear. A
// geometry touched at least once per sweep of the hand never leaves.
//
// Memoized geometries are shared by every goroutine that decodes the same
// literal, so they are immutable: insert clips every slice to its length,
// so an append by any caller reallocates instead of writing into a
// shared backing array.

// DefaultGeometryCacheCap bounds the memo (tests swap in smaller caps
// through setGeometryCacheCap). The benchmark data holds 4,720 distinct
// WKT literals and the browse pool adds 2,048 query constants, which
// the compiled engine decodes without the memo.
const DefaultGeometryCacheCap = 8192

type memoSlot struct {
	key string
	g   geom.Geometry
	env geom.Envelope
	// ref is set by hits under the read lock, hence atomic.
	ref   atomic.Bool
	bytes int
}

type boundedGeomCache struct {
	mu    sync.RWMutex
	cap   int
	index map[string]int32
	slots []memoSlot
	hand  int
	bytes int
}

func newBoundedGeomCache(capacity int) *boundedGeomCache {
	if capacity <= 0 {
		capacity = DefaultGeometryCacheCap
	}
	return &boundedGeomCache{cap: capacity, index: map[string]int32{}}
}

func (c *boundedGeomCache) get(wkt string) (geom.Geometry, geom.Envelope, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.index[wkt]
	if !ok {
		return nil, geom.Envelope{}, false
	}
	s := &c.slots[i]
	if !s.ref.Load() {
		s.ref.Store(true)
	}
	return s.g, s.env, true
}

// insert memoizes a geometry the caller parsed outside the lock and
// returns the memoized value (another inserter's, if it won a race).
func (c *boundedGeomCache) insert(wkt string, g geom.Geometry) (geom.Geometry, geom.Envelope) {
	bytes := freeze(g) + len(wkt)
	c.mu.Lock()
	if i, ok := c.index[wkt]; ok {
		g, env := c.slots[i].g, c.slots[i].env
		c.mu.Unlock()
		return g, env
	}
	var i int
	if len(c.slots) < c.cap {
		i = len(c.slots)
		c.slots = append(c.slots, memoSlot{})
	} else {
		i = c.victim()
		delete(c.index, c.slots[i].key)
		c.bytes -= c.slots[i].bytes
	}
	s := &c.slots[i]
	s.key, s.g, s.env, s.bytes = wkt, g, g.Envelope(), bytes
	s.ref.Store(false)
	c.index[wkt] = int32(i)
	c.bytes += bytes
	total, env := c.bytes, s.env
	c.mu.Unlock()
	noteMemoBytes(total)
	return g, env
}

// victim advances the hand past referenced slots, giving each a second
// chance, and returns the first unreferenced one. Callers hold the write
// lock on a full table.
func (c *boundedGeomCache) victim() int {
	for {
		i := c.hand
		c.hand = (c.hand + 1) % len(c.slots)
		if !c.slots[i].ref.Swap(false) {
			return i
		}
	}
}

func (c *boundedGeomCache) stats() (entries, bytes int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.index), c.bytes
}

// freeze clips every slice of a freshly parsed geometry to its length and
// returns the geometry's approximate size in bytes.
func freeze(g geom.Geometry) int {
	const (
		ptSize   = 16 // 2 × float64
		partSize = 48 // rough cost of a part's header and slice
	)
	n := partSize
	switch t := g.(type) {
	case *geom.MultiPoint:
		t.Points = clipped(t.Points)
		n += len(t.Points) * ptSize
	case *geom.LineString:
		t.Points = clipped(t.Points)
		n += len(t.Points) * ptSize
	case *geom.MultiLineString:
		t.Lines = clipped(t.Lines)
		for _, l := range t.Lines {
			n += freeze(l)
		}
	case *geom.Polygon:
		t.Rings = clipped(t.Rings)
		for i := range t.Rings {
			t.Rings[i] = clipped(t.Rings[i])
			n += partSize + len(t.Rings[i])*ptSize
		}
	case *geom.MultiPolygon:
		t.Polygons = clipped(t.Polygons)
		for _, p := range t.Polygons {
			n += freeze(p)
		}
	case *geom.Collection:
		t.Members = clipped(t.Members)
		for _, m := range t.Members {
			n += freeze(m)
		}
	}
	return n
}

func clipped[T any](s []T) []T { return s[:len(s):len(s)] }

var geomCache atomic.Pointer[boundedGeomCache]

func activeGeomCache() *boundedGeomCache {
	if c := geomCache.Load(); c != nil {
		return c
	}
	c := newBoundedGeomCache(0)
	if geomCache.CompareAndSwap(nil, c) {
		return c
	}
	return geomCache.Load()
}

// GeometryCacheStats reports the live entry count and the approximate
// bytes of the memoized geometries.
func GeometryCacheStats() (entries, bytes int) {
	return activeGeomCache().stats()
}
