package netcdf

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
)

// Grid is everything the (id, VAR, ts, loc) relation of the paper's
// Listing 2 is derived from for one variable of a CF grid
// (VAR[time][lat][lon] or VAR[lat][lon]). Both workflows flatten a grid
// through Cells, so the on-the-fly view and the materialized graph mint
// the same resource for one cell. The virtual table compares grids with
// Equal to tell a changed product from an unchanged one re-sent in full.
type Grid struct {
	nt, nlat, nlon int
	data           []float64
	// Coordinate axes; nil where the dataset has none of the right
	// length and Cells falls back to index coordinates (lat, lon) or
	// daily steps from 2018-01-01 (time; always nil for 2-D grids).
	lat, lon, time []float64
	timeUnits      string
}

// ReadGrid reads varName and its coordinate variables out of ds. The
// grid shares the dataset's arrays.
func ReadGrid(ds *Dataset, varName string) (Grid, error) {
	v, ok := ds.Var(varName)
	if !ok {
		return Grid{}, fmt.Errorf("netcdf: dataset lacks variable %q", varName)
	}
	if len(v.Dims) != 3 && len(v.Dims) != 2 {
		return Grid{}, fmt.Errorf("netcdf: variable %s has rank %d, want 2 or 3", varName, len(v.Dims))
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
	g := Grid{nt: 1, nlat: size(v.Dims[rank-2]), nlon: size(v.Dims[rank-1]), data: v.Data}
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

// Equal reports whether Cells yields the same rows for both grids.
// Values compare by bit pattern, so NaN fill values match.
func (g Grid) Equal(o Grid) bool {
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

func (g Grid) arrays() [4][]float64 { return [4][]float64{g.data, g.lat, g.lon, g.time} }

// Cells calls fn once per cell, time outermost, with the cell's row: an
// id built from its location and time ("the column id was not originally
// in the dataset but it is constructed from the location and the time of
// observation"), its value, its time as an xsd:dateTime and its location
// as a WKT point.
func (g Grid) Cells(fn func(id string, v float64, ts, loc string)) {
	lats, lons := axisText(g.lat, g.nlat), axisText(g.lon, g.nlon)
	for ti, t := range g.times() {
		ts, tid := t.Format("2006-01-02T15:04:05Z"), t.Format("20060102T150405")
		for yi, lat := range lats {
			for xi, lon := range lons {
				fn("obs_"+lon+"_"+lat+"_"+tid, g.data[(ti*g.nlat+yi)*g.nlon+xi], ts, "POINT ("+lon+" "+lat+")")
			}
		}
	}
}

// times decodes the time axis, or steps a day from 2018-01-01 per index
// when there is none or its units do not parse.
func (g Grid) times() []time.Time {
	axis := g.time
	base, step, err := ParseCFTimeUnits(g.timeUnits) // "" without an axis
	if err != nil {
		axis, base, step = nil, time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC), 24*time.Hour
	}
	out := make([]time.Time, g.nt)
	for i := range out {
		out[i] = base.Add(time.Duration(at(axis, i) * float64(step)))
	}
	return out
}

// axisText formats each coordinate of an axis.
func axisText(axis []float64, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strconv.FormatFloat(at(axis, i), 'g', -1, 64)
	}
	return out
}

// at is axis[i], or the index itself where the axis is missing.
func at(axis []float64, i int) float64 {
	if axis == nil {
		return float64(i)
	}
	return axis[i]
}
