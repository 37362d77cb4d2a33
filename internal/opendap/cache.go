package opendap

import (
	"sync"

	"applab/internal/netcdf"
)

// CacheStats reports cache effectiveness.
type CacheStats struct {
	Hits   int64
	Misses int64
}

// HitRatio returns hits / (hits+misses), 0 for an unused cache.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Fetcher retrieves a constrained subset of a named dataset. Client
// implements it; the caches wrap any Fetcher.
type Fetcher interface {
	Fetch(name string, constraint Constraint) (*netcdf.Dataset, error)
}

// TileCache is the index-aligned cache of the paper's §5 discussion:
// "OPeNDAP allows for the caching of datasets by serialization based on
// internal array indices. This increases cache-hits for recurrent requests
// of a specific subpart of the dataset" (the mobile viewport scenario).
//
// Requests are decomposed into fixed-size index tiles per dimension; tiles
// are fetched at most once and requests are served from the tile store.
// Contrast with a WCS-style bbox cache that only hits on byte-identical
// requests.
type TileCache struct {
	inner    Fetcher
	tileSize int

	mu     sync.Mutex
	tiles  map[string]*netcdf.Dataset
	shapes map[string][]int // name/var -> full array shape, when declared
	stats  CacheStats
}

// SetShape declares the full shape of a variable so tile requests at the
// array edge can be clamped instead of rejected by the server.
func (c *TileCache) SetShape(name, varName string, shape []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shapes[name+"/"+varName] = append([]int(nil), shape...)
}

// NewTileCache wraps inner with an index-aligned tile cache.
func NewTileCache(inner Fetcher, tileSize int) *TileCache {
	if tileSize < 1 {
		tileSize = 1
	}
	return &TileCache{inner: inner, tileSize: tileSize,
		tiles: map[string]*netcdf.Dataset{}, shapes: map[string][]int{}}
}

// Fetch implements Fetcher. The constraint must use stride 1 (viewport
// requests do); other strides bypass the cache.
func (c *TileCache) Fetch(name string, constraint Constraint) (*netcdf.Dataset, error) {
	for _, r := range constraint.Ranges {
		if r.Stride != 1 {
			return c.inner.Fetch(name, constraint)
		}
	}
	if len(constraint.Ranges) == 0 {
		return c.inner.Fetch(name, constraint)
	}
	// Enumerate covering tiles.
	type tileCoord []int
	var tiles []tileCoord
	var enumerate func(depth int, cur tileCoord)
	enumerate = func(depth int, cur tileCoord) {
		if depth == len(constraint.Ranges) {
			cp := make(tileCoord, len(cur))
			copy(cp, cur)
			tiles = append(tiles, cp)
			return
		}
		r := constraint.Ranges[depth]
		for t := r.Start / c.tileSize; t <= r.Stop/c.tileSize; t++ {
			enumerate(depth+1, append(cur, t))
		}
	}
	enumerate(0, nil)

	// Ensure every tile is cached.
	for _, tc := range tiles {
		key := tileKey(name, constraint.Var, tc)
		c.mu.Lock()
		_, ok := c.tiles[key]
		c.mu.Unlock()
		if ok {
			c.mu.Lock()
			c.stats.Hits++
			c.mu.Unlock()
			continue
		}
		ranges := make([]netcdf.Range, len(tc))
		c.mu.Lock()
		shape := c.shapes[name+"/"+constraint.Var]
		c.mu.Unlock()
		for i, t := range tc {
			stop := (t+1)*c.tileSize - 1
			if i < len(shape) && stop >= shape[i] {
				stop = shape[i] - 1
			}
			ranges[i] = netcdf.Range{Start: t * c.tileSize, Stride: 1, Stop: stop}
		}
		ds, err := c.inner.Fetch(name, Constraint{Var: constraint.Var, Ranges: ranges})
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.stats.Misses++
		c.tiles[key] = ds
		c.mu.Unlock()
	}
	// Assemble the requested window directly from the origin dataset shape:
	// fetch per-tile subsets and stitch. For simplicity and correctness we
	// re-slice each requested cell from its tile.
	return c.assemble(name, constraint)
}

// assemble serves the requested constraint from cached tiles.
func (c *TileCache) assemble(name string, constraint Constraint) (*netcdf.Dataset, error) {
	out := netcdf.NewDataset(name)
	shape := make([]int, len(constraint.Ranges))
	for i, r := range constraint.Ranges {
		shape[i] = r.Count()
		out.AddDim(dimName(i), r.Count())
	}
	n := 1
	for _, s := range shape {
		n *= s
	}
	data := make([]float64, 0, n)
	idx := make([]int, len(constraint.Ranges))
	var walk func(depth int) error
	walk = func(depth int) error {
		if depth == len(constraint.Ranges) {
			v, err := c.cellValue(name, constraint.Var, idx)
			if err != nil {
				return err
			}
			data = append(data, v)
			return nil
		}
		r := constraint.Ranges[depth]
		for ix := r.Start; ix <= r.Stop; ix++ {
			idx[depth] = ix
			if err := walk(depth + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	dims := make([]string, len(shape))
	for i := range dims {
		dims[i] = dimName(i)
	}
	if err := out.AddVar(&netcdf.Variable{Name: constraint.Var, Dims: dims, Data: data}); err != nil {
		return nil, err
	}
	return out, nil
}

// cellValue reads one cell from its cached tile.
func (c *TileCache) cellValue(name, varName string, idx []int) (float64, error) {
	tc := make([]int, len(idx))
	local := make([]int, len(idx))
	for i, ix := range idx {
		tc[i] = ix / c.tileSize
		local[i] = ix % c.tileSize
	}
	c.mu.Lock()
	ds := c.tiles[tileKey(name, varName, tc)]
	c.mu.Unlock()
	v, _ := ds.Var(varName)
	// Clamp local indices to the (possibly trimmed) tile shape.
	shape := v.Shape(ds)
	for i := range local {
		if local[i] >= shape[i] {
			local[i] = shape[i] - 1
		}
	}
	return v.At(ds, local...)
}

func tileKey(name, varName string, tc []int) string {
	key := name + "/" + varName
	for _, t := range tc {
		key += "/" + itoa(t)
	}
	return key
}

func dimName(i int) string { return "d" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}

// Stats returns a snapshot of the hit/miss counters.
func (c *TileCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ExactCache is the WCS-style baseline: responses are keyed by the exact
// request string, so only byte-identical repeats hit.
type ExactCache struct {
	inner Fetcher

	mu      sync.Mutex
	entries map[string]*netcdf.Dataset
	stats   CacheStats
}

// NewExactCache wraps inner with an exact-request cache.
func NewExactCache(inner Fetcher) *ExactCache {
	return &ExactCache{inner: inner, entries: map[string]*netcdf.Dataset{}}
}

// Fetch implements Fetcher.
func (c *ExactCache) Fetch(name string, constraint Constraint) (*netcdf.Dataset, error) {
	key := name + "?" + constraint.String()
	c.mu.Lock()
	if ds, ok := c.entries[key]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		return ds, nil
	}
	c.mu.Unlock()
	ds, err := c.inner.Fetch(name, constraint)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.Misses++
	c.entries[key] = ds
	c.mu.Unlock()
	return ds, nil
}

// Stats returns a snapshot of the hit/miss counters.
func (c *ExactCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
