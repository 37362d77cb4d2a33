package geosparql

import (
	"sync"
	"sync/atomic"

	"applab/internal/geom"
)

// The seed memoized every geometry literal it ever parsed in an
// unbounded sync.Map — a slow leak on churny workloads (each OBDA
// refresh or store reload brings a fresh set of WKT lexical forms).
// boundedGeomCache replaces it with a two-generation cache backed by
// columnar geom.Arenas: entries land in the current generation's arena,
// and when the generation fills, it becomes the previous one and the
// oldest arena is dropped wholesale. Hits in the previous generation
// are promoted (re-added to the current arena), so the working set
// survives rotation while abandoned literals age out after two
// generations. Live entries never exceed the cap.

// DefaultGeometryCacheCap bounds the parsed-geometry cache (tests swap
// in smaller caps through setGeometryCacheCap).
const DefaultGeometryCacheCap = 8192

type boundedGeomCache struct {
	mu       sync.RWMutex
	cap      int
	cur      map[string]geom.Geometry
	prev     map[string]geom.Geometry
	curArena *geom.Arena
	prevAren *geom.Arena
}

func newBoundedGeomCache(capacity int) *boundedGeomCache {
	if capacity <= 0 {
		capacity = DefaultGeometryCacheCap
	}
	return &boundedGeomCache{
		cap:      capacity,
		cur:      map[string]geom.Geometry{},
		curArena: geom.NewArena(),
	}
}

func (c *boundedGeomCache) get(wkt string) (geom.Geometry, bool) {
	c.mu.RLock()
	if g, ok := c.cur[wkt]; ok {
		c.mu.RUnlock()
		return g, true
	}
	g, ok := c.prev[wkt]
	c.mu.RUnlock()
	if !ok {
		return nil, false
	}
	// Promote: hot entries must outlive the generation they landed in.
	return c.insert(wkt, g), true
}

// add parses nothing itself — the caller parses outside the lock.
func (c *boundedGeomCache) add(wkt string, g geom.Geometry) geom.Geometry {
	return c.insert(wkt, g)
}

func (c *boundedGeomCache) insert(wkt string, g geom.Geometry) geom.Geometry {
	c.mu.Lock()
	if cur, ok := c.cur[wkt]; ok { // raced with another inserter
		c.mu.Unlock()
		return cur
	}
	id := c.curArena.Add(g)
	v := c.curArena.Geometry(id)
	c.cur[wkt] = v
	// Each generation holds at most cap/2 entries, so cur+prev <= cap.
	if len(c.cur) >= (c.cap+1)/2 {
		c.prev, c.prevAren = c.cur, c.curArena
		c.cur, c.curArena = map[string]geom.Geometry{}, geom.NewArena()
	}
	bytes := c.curArena.Bytes()
	if c.prevAren != nil {
		bytes += c.prevAren.Bytes()
	}
	c.mu.Unlock()
	noteArenaBytes(bytes)
	return v
}

func (c *boundedGeomCache) stats() (entries, bytes int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	entries = len(c.cur) + len(c.prev)
	bytes = c.curArena.Bytes()
	if c.prevAren != nil {
		bytes += c.prevAren.Bytes()
	}
	return entries, bytes
}

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

// GeometryCacheStats reports the live entry count and approximate
// arena bytes of the parsed-geometry cache.
func GeometryCacheStats() (entries, bytes int) {
	return activeGeomCache().stats()
}
