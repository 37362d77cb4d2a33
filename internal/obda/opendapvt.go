package obda

import (
	"context"
	"fmt"
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
// identical OPeNDAP calls within the window reuse the last response.
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

	// ServeStale enables stale-while-error on windowed regions: when the
	// OPeNDAP upstream is down, the relation of an expired window is
	// served instead of failing the query, and opendap_cache_stale_total
	// counts it. An un-windowed region (w = 0) has nothing to fall back
	// to. Set before the first query.
	ServeStale bool

	// Metrics, when set, counts window hits, misses and stale serves and
	// the fetches that reach the server. Set before the first query.
	Metrics *telemetry.Registry

	// OnTable, when set, observes every virtual-table materialization
	// with its region key "<dataset>/<var>?w=<window>" — the hot-region
	// feed of the adaptive promoter (rescache.Promoter.Note). Set before
	// the first query; called outside the adapter lock.
	OnTable func(region string)

	// Now overrides the window clock in tests.
	Now func() time.Time

	mu sync.Mutex
	// regions holds one entry per region key, so at most one per distinct
	// FROM clause in the mappings.
	regions map[string]region
	calls   int64 // fetches that reached the server
}

// region is what one opendap(url, w) call site last fetched: the
// dataset, its validator, when, the grid read from it and the relation
// derived from that grid. The relation is kept for as long as the
// server answers 304 or the fetched grids stay equal, so an unchanged
// source keeps handing back the same table.
type region struct {
	ds      *netcdf.Dataset // nil after InvalidateCaches: no window hit, no stale serve
	etag    string          // the server's validator of ds; "" when it sent none or after InvalidateCaches
	fetched time.Time
	grid    netcdf.Grid
	table   *madis.Table
}

// NewOpendapAdapter returns an adapter that fetches from client.
func NewOpendapAdapter(client *opendap.Client) *OpendapAdapter {
	return &OpendapAdapter{client: client, regions: map[string]region{}}
}

// Register installs the adapter as the "opendap" virtual table of db.
func (a *OpendapAdapter) Register(db *madis.DB) {
	db.RegisterVirtualTable("opendap", a.Table)
}

// InvalidateCaches closes every window (used by benchmarks to force
// cold-cache behaviour): the next call of each region fetches
// unconditionally, and none is served stale before it has fetched
// again.
func (a *OpendapAdapter) InvalidateCaches() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for key, r := range a.regions {
		r.ds, r.etag = nil, ""
		a.regions[key] = r
	}
}

// PhysicalCalls reports how many fetches reached the OPeNDAP server.
func (a *OpendapAdapter) PhysicalCalls() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.calls
}

func (a *OpendapAdapter) now() time.Time {
	if a.Now != nil {
		return a.Now()
	}
	return time.Now()
}

// Table is the virtual table function. Inside the region's window it
// returns the region's relation without a fetch. Otherwise it fetches,
// conditionally on the region's validator: a 304 keeps the region's
// relation, and a full answer derives it again only when the grid that
// came back is not the one the region's relation was built from. After
// InvalidateCaches the fetch is unconditional. When that fetch
// fails on a windowed region under ServeStale, the region's relation is
// served stale. Callers can therefore tell an unchanged source by the
// returned pointer.
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
	key := dataset + "/" + varName + "?w=" + strconv.FormatFloat(window.Minutes(), 'g', -1, 64)
	if hook := a.OnTable; hook != nil {
		hook(key)
	}
	now := a.now()
	a.mu.Lock()
	r := a.regions[key]
	if window > 0 && r.ds != nil && now.Sub(r.fetched) < window {
		a.mu.Unlock()
		a.noteWindowHit()
		return r.table, nil
	}
	a.calls++
	a.mu.Unlock()
	a.notePhysicalFetch()
	ds, etag, err := a.client.FetchIfChanged(context.Background(), dataset, opendap.Constraint{Var: varName}, r.etag)
	if err != nil {
		if a.ServeStale && window > 0 {
			a.mu.Lock()
			r = a.regions[key]
			a.mu.Unlock()
			if r.ds != nil {
				a.noteStaleServe()
				return r.table, nil
			}
		}
		return nil, err
	}
	if window > 0 {
		a.noteWindowMiss()
	}
	if ds != nil {
		g, err := netcdf.ReadGrid(ds, varName)
		if err != nil {
			return nil, err
		}
		if r.table == nil || !r.grid.Equal(g) {
			r.grid, r.table = g, gridTable(g, varName)
		}
		r.ds, r.etag = ds, etag
	}
	r.fetched = now
	a.mu.Lock()
	a.regions[key] = r
	a.mu.Unlock()
	return r.table, nil
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

// GridToTable flattens a CF grid (VAR[time][lat][lon], with coordinate
// variables) into the (id, VAR, ts, loc) relation of the paper's Listing 2.
// 2-D grids (lat, lon) produce a single time, 2018-01-01.
func GridToTable(ds *netcdf.Dataset, varName string) (*madis.Table, error) {
	g, err := netcdf.ReadGrid(ds, varName)
	if err != nil {
		return nil, err
	}
	return gridTable(g, varName), nil
}

func gridTable(g netcdf.Grid, varName string) *madis.Table {
	tb := &madis.Table{Name: "opendap", Cols: []string{"id", varName, "ts", "loc"}}
	g.Cells(func(id string, v float64, ts, loc string) {
		tb.Rows = append(tb.Rows, madis.Row{id, v, ts, loc})
	})
	return tb
}
