package obda

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"applab/internal/madis"
	"applab/internal/netcdf"
	"applab/internal/opendap"
	"applab/internal/telemetry"
)

// OpendapAdapter registers the `opendap` virtual table function with a
// MadIS database — the paper's §3.2 extension ("We used MadIS to create a
// new UDF, named Opendap, that is able to create and populate a virtual
// table on-the-fly with data retrieved from an OPeNDAP server").
//
// FROM-clause usage (the paper's Listing 2):
//
//	SELECT id, LAI, ts, loc FROM (ordered opendap url:<dataset>/<var>/, 10) WHERE LAI > 0
//
// The first argument names the dataset and variable (any URL prefix before
// the last two path segments is ignored, so the paper's full THREDDS URLs
// work). The optional second argument is the cache window w in minutes:
// identical OPeNDAP calls within the window reuse cached results.
//
// The produced relation has schema (id, <VAR>, ts, loc):
//
//	id   synthesized from location and time ("the column id was not
//	     originally in the dataset but it is constructed from the location
//	     and the time of observation")
//	VAR  the variable value as float64
//	ts   the observation time converted from the dataset's CF units to
//	     xsd:dateTime format ("the Opendap virtual table operator converts
//	     these values to a standard format")
//	loc  a WKT POINT from the lon/lat coordinate variables
type OpendapAdapter struct {
	client *opendap.Client

	// ServeStale enables stale-while-error on every window cache the
	// adapter creates: when the OPeNDAP upstream is down, an expired
	// cached window is served flagged with opendap.StaleAttr instead of
	// failing the query. Set before the first query; caches created
	// earlier keep their setting.
	ServeStale bool

	// Metrics, when set, counts physical fetches and flows into every
	// window cache the adapter creates (set before the first query, like
	// ServeStale).
	Metrics *telemetry.Registry

	// OnTable, when set, observes every virtual-table materialization
	// with its region key "<dataset>/<var>?w=<window>" — the hot-region
	// feed of the adaptive promoter (rescache.Promoter.Note). Set before
	// the first query; called outside the adapter lock.
	OnTable func(region string)

	mu     sync.Mutex
	caches map[time.Duration]*opendap.WindowCache
	// slots holds, per region key (so at most one per distinct FROM
	// clause in the mappings), the dataset last fetched for it and the
	// relation derived from that dataset.
	slots map[string]tableSlot
	// Now overrides the cache clock in tests.
	Now func() time.Time
	// Calls counts physical fetches through the adapter (per window cache
	// misses are visible via CacheStats; Calls spans all windows).
	calls int64
}

// NewOpendapAdapter returns an adapter that fetches from client.
func NewOpendapAdapter(client *opendap.Client) *OpendapAdapter {
	return &OpendapAdapter{client: client, caches: map[time.Duration]*opendap.WindowCache{}, slots: map[string]tableSlot{}}
}

// Register installs the adapter as the "opendap" virtual table of db.
func (a *OpendapAdapter) Register(db *madis.DB) {
	db.RegisterVirtualTable("opendap", a.Table)
}

// cacheFor returns (creating if needed) the window cache for w.
func (a *OpendapAdapter) cacheFor(w time.Duration) *opendap.WindowCache {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.caches[w]
	if !ok {
		c = opendap.NewWindowCache(countingFetcher{a}, w)
		c.StaleWhileError = a.ServeStale
		c.Metrics = a.Metrics
		if a.Now != nil {
			c.Now = a.Now
		}
		a.caches[w] = c
	}
	return c
}

// countingFetcher counts physical fetches.
type countingFetcher struct{ a *OpendapAdapter }

// Fetch implements opendap.Fetcher.
func (f countingFetcher) Fetch(name string, c opendap.Constraint) (*netcdf.Dataset, error) {
	f.a.mu.Lock()
	f.a.calls++
	f.a.mu.Unlock()
	f.a.notePhysicalFetch()
	return f.a.client.Fetch(name, c)
}

// InvalidateCaches drops every window cache entry (used by benchmarks to
// force cold-cache behaviour).
func (a *OpendapAdapter) InvalidateCaches() {
	a.mu.Lock()
	caches := make([]*opendap.WindowCache, 0, len(a.caches))
	for _, c := range a.caches {
		caches = append(caches, c)
	}
	a.mu.Unlock()
	for _, c := range caches {
		c.Invalidate()
	}
}

// PhysicalCalls reports how many fetches reached the OPeNDAP server.
func (a *OpendapAdapter) PhysicalCalls() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.calls
}

// Generation returns a counter that moves whenever upstream content may
// have entered the serving path: the physical fetch count plus every
// window cache's content generation. Result caches over OBDA sources
// fold it into their data epoch.
func (a *OpendapAdapter) Generation() uint64 {
	a.mu.Lock()
	gen := uint64(a.calls)
	caches := make([]*opendap.WindowCache, 0, len(a.caches))
	for _, c := range a.caches {
		caches = append(caches, c)
	}
	a.mu.Unlock()
	for _, c := range caches {
		gen += c.Generation()
	}
	return gen
}

// Stats returns the cache statistics for window w.
func (a *OpendapAdapter) Stats(w time.Duration) opendap.CacheStats {
	return a.cacheFor(w).Stats()
}

// tableSlot pairs a fetched dataset with the relation GridToTable derived
// from it.
type tableSlot struct {
	ds    *netcdf.Dataset
	grid  grid
	table *madis.Table
}

// Table is the virtual table function. Every call goes to the fetcher;
// the relation is derived again only when what came back is not the grid
// the region's slot was built from. A window-cache hit hands back the
// same dataset pointer; an un-windowed fetch of an unchanged upstream,
// or the flagged copy ServeStale hands out, is compared field by field.
// Callers can therefore tell an unchanged source by the returned pointer.
func (a *OpendapAdapter) Table(args []string) (*madis.Table, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("opendap: missing dataset argument")
	}
	dataset, varName, err := parseDatasetArg(args[0])
	if err != nil {
		return nil, err
	}
	window := time.Duration(0)
	if len(args) > 1 {
		mins, err := strconv.ParseFloat(strings.TrimSpace(args[1]), 64)
		if err != nil || mins < 0 {
			return nil, fmt.Errorf("opendap: bad cache window %q", args[1])
		}
		window = time.Duration(mins * float64(time.Minute))
	}
	region := dataset + "/" + varName + "?w=" + strconv.FormatFloat(window.Minutes(), 'g', -1, 64)
	if hook := a.OnTable; hook != nil {
		hook(region)
	}
	fetcher := opendap.Fetcher(countingFetcher{a})
	if window > 0 {
		fetcher = a.cacheFor(window)
	}
	ds, err := fetcher.Fetch(dataset, opendap.Constraint{Var: varName})
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	slot := a.slots[region]
	a.mu.Unlock()
	if slot.ds == ds {
		return slot.table, nil
	}
	g, err := readGrid(ds, varName)
	if err != nil {
		return nil, err
	}
	if slot.ds != nil && slot.grid.equal(g) {
		return slot.table, nil
	}
	table := g.table(ds, varName)
	a.mu.Lock()
	a.slots[region] = tableSlot{ds: ds, grid: g, table: table}
	a.mu.Unlock()
	return table, nil
}

// parseDatasetArg extracts "<dataset>/<var>" from the argument, tolerating
// full URLs and trailing slashes.
func parseDatasetArg(arg string) (dataset, varName string, err error) {
	s := strings.Trim(strings.TrimSpace(arg), "/")
	parts := strings.Split(s, "/")
	if len(parts) < 2 {
		return "", "", fmt.Errorf("opendap: dataset argument %q needs <dataset>/<variable>", arg)
	}
	return parts[len(parts)-2], parts[len(parts)-1], nil
}

// grid is everything GridToTable reads of a dataset for one variable.
// The table slots compare it and UpstreamStamp hashes it, so the two
// cannot disagree on what "the same grid" means.
type grid struct {
	nt, nlat, nlon int
	data           []float64
	// Coordinate axes; nil where the dataset has none of the right
	// length and GridToTable falls back to index coordinates (lat, lon)
	// or daily steps from 2018-01-01 (time; always nil for 2-D grids).
	lat, lon, time []float64
	timeUnits      string
}

func readGrid(ds *netcdf.Dataset, varName string) (grid, error) {
	v, ok := ds.Var(varName)
	if !ok {
		return grid{}, fmt.Errorf("opendap: fetched dataset lacks %q", varName)
	}
	if len(v.Dims) != 3 && len(v.Dims) != 2 {
		return grid{}, fmt.Errorf("opendap: variable %s has rank %d, want 2 or 3", varName, len(v.Dims))
	}
	axis := func(name string, n int) []float64 {
		if cv, ok := ds.Var(name); ok && len(cv.Data) == n {
			return cv.Data
		}
		return nil
	}
	size := func(dim string) int {
		d, _ := ds.Dim(dim)
		return d.Size
	}
	rank := len(v.Dims)
	g := grid{nt: 1, nlat: size(v.Dims[rank-2]), nlon: size(v.Dims[rank-1]), data: v.Data}
	if rank == 3 {
		g.nt = size(v.Dims[0])
		if g.time = axis("time", g.nt); g.time != nil {
			tv, _ := ds.Var("time")
			g.timeUnits = tv.Attrs["units"]
		}
	}
	g.lat, g.lon = axis("lat", g.nlat), axis("lon", g.nlon)
	return g, nil
}

// equal reports whether GridToTable derives the same relation from both
// grids. Values compare by bit pattern, so NaN fill values match.
func (g grid) equal(o grid) bool {
	if g.nt != o.nt || g.nlat != o.nlat || g.nlon != o.nlon || g.timeUnits != o.timeUnits {
		return false
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	others := o.arrays()
	for i, fs := range g.arrays() {
		if !slices.EqualFunc(fs, others[i], sameBits) {
			return false
		}
	}
	return true
}

// stamp hashes exactly what equal compares.
func (g grid) stamp() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(bits uint64) {
		binary.LittleEndian.PutUint64(buf[:], bits)
		h.Write(buf[:])
	}
	put(uint64(g.nt))
	put(uint64(g.nlat))
	put(uint64(g.nlon))
	for _, fs := range g.arrays() {
		put(uint64(len(fs)))
		for _, f := range fs {
			put(math.Float64bits(f))
		}
	}
	h.Write([]byte(g.timeUnits))
	return fmt.Sprintf("%016x", h.Sum64())
}

func (g grid) arrays() [4][]float64 { return [4][]float64{g.data, g.lat, g.lon, g.time} }

// GridToTable flattens a CF grid (VAR[time][lat][lon], with coordinate
// variables) into the (id, VAR, ts, loc) relation of the paper's Listing 2.
// 2-D grids (lat, lon) produce a single unnamed time of the zero instant.
func GridToTable(ds *netcdf.Dataset, varName string) (*madis.Table, error) {
	g, err := readGrid(ds, varName)
	if err != nil {
		return nil, err
	}
	return g.table(ds, varName), nil
}

// table is GridToTable over a grid already read from ds.
func (g grid) table(ds *netcdf.Dataset, varName string) *madis.Table {
	coord := func(axis []float64, n int) []float64 {
		if axis != nil {
			return axis
		}
		axis = make([]float64, n)
		for i := range axis {
			axis[i] = float64(i)
		}
		return axis
	}
	lats, lons := coord(g.lat, g.nlat), coord(g.lon, g.nlon)
	var times []time.Time
	if g.time != nil {
		times, _ = ds.TimeValues() // nil on unparsable units
	}
	if times == nil {
		times = make([]time.Time, g.nt)
		base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
		for i := range times {
			times[i] = base.AddDate(0, 0, i)
		}
	}

	tb := &madis.Table{Name: "opendap", Cols: []string{"id", varName, "ts", "loc"}}
	for ti := 0; ti < g.nt; ti++ {
		ts := times[ti].UTC().Format("2006-01-02T15:04:05Z")
		for yi := 0; yi < g.nlat; yi++ {
			for xi := 0; xi < g.nlon; xi++ {
				off := (ti*g.nlat+yi)*g.nlon + xi
				val := g.data[off]
				id := fmt.Sprintf("obs_%s_%s_%s",
					fnum(lons[xi]), fnum(lats[yi]), times[ti].UTC().Format("20060102T150405"))
				loc := fmt.Sprintf("POINT (%s %s)", fnum(lons[xi]), fnum(lats[yi]))
				tb.Rows = append(tb.Rows, madis.Row{id, val, ts, loc})
			}
		}
	}
	return tb
}

func fnum(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
