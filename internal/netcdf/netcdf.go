// Package netcdf implements the gridded scientific-data model the OPeNDAP
// layer serves: a simplified NetCDF-like dataset with named dimensions,
// variables carrying attributes and float64 data, CF-style coordinate
// variables (time/lat/lon) and hyperslab subsetting. A compact binary
// encoding allows datasets to be stored and streamed.
//
// This is the substitution for the Copernicus global land service NetCDF
// products (LAI, NDVI, BA300): the stack exercises structure discovery,
// metadata harvesting, subsetting and RDF-ization, which depend only on the
// grid model, not on real radiometry.
package netcdf

import (
	"fmt"
	"strings"
	"time"
)

// Dimension is a named axis with a fixed size.
type Dimension struct {
	Name string
	Size int
}

// Variable is an n-dimensional float64 array over named dimensions.
type Variable struct {
	Name  string
	Dims  []string          // dimension names, outermost first
	Attrs map[string]string // variable attributes (units, long_name, ...)
	Data  []float64         // row-major
}

// Dataset is a collection of dimensions, variables and global attributes.
type Dataset struct {
	Name  string
	Dims  []Dimension
	Vars  []*Variable
	Attrs map[string]string
}

// NewDataset returns an empty dataset with the given name.
func NewDataset(name string) *Dataset {
	return &Dataset{Name: name, Attrs: map[string]string{}}
}

// AddDim appends a dimension.
func (d *Dataset) AddDim(name string, size int) {
	d.Dims = append(d.Dims, Dimension{Name: name, Size: size})
}

// Dim returns the named dimension.
func (d *Dataset) Dim(name string) (Dimension, bool) {
	for _, dim := range d.Dims {
		if dim.Name == name {
			return dim, true
		}
	}
	return Dimension{}, false
}

// AddVar appends a variable after validating its shape.
func (d *Dataset) AddVar(v *Variable) error {
	want := 1
	for _, dn := range v.Dims {
		dim, ok := d.Dim(dn)
		if !ok {
			return fmt.Errorf("netcdf: variable %s references unknown dimension %q", v.Name, dn)
		}
		want *= dim.Size
	}
	if len(v.Data) != want {
		return fmt.Errorf("netcdf: variable %s has %d values, shape wants %d", v.Name, len(v.Data), want)
	}
	if v.Attrs == nil {
		v.Attrs = map[string]string{}
	}
	d.Vars = append(d.Vars, v)
	return nil
}

// Var returns the named variable.
func (d *Dataset) Var(name string) (*Variable, bool) {
	for _, v := range d.Vars {
		if v.Name == name {
			return v, true
		}
	}
	return nil, false
}

// Shape returns the variable's dimension sizes within ds.
func (v *Variable) Shape(ds *Dataset) []int {
	shape := make([]int, len(v.Dims))
	for i, dn := range v.Dims {
		dim, _ := ds.Dim(dn)
		shape[i] = dim.Size
	}
	return shape
}

// At returns the value at the given indices (one per dimension).
func (v *Variable) At(ds *Dataset, idx ...int) (float64, error) {
	shape := v.Shape(ds)
	if len(idx) != len(shape) {
		return 0, fmt.Errorf("netcdf: %s has rank %d, got %d indices", v.Name, len(shape), len(idx))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= shape[i] {
			return 0, fmt.Errorf("netcdf: index %d out of range for %s[%d]", ix, v.Dims[i], shape[i])
		}
		off = off*shape[i] + ix
	}
	return v.Data[off], nil
}

// Range selects a hyperslab along one dimension: [Start, Stop] inclusive
// with Stride (DAP constraint semantics: var[start:stride:stop]).
type Range struct {
	Start, Stride, Stop int
}

// Count returns the number of selected indices.
func (r Range) Count() int {
	if r.Stride <= 0 || r.Stop < r.Start {
		return 0
	}
	return (r.Stop-r.Start)/r.Stride + 1
}

// FullRange selects every index of a dimension of the given size.
func FullRange(size int) Range { return Range{Start: 0, Stride: 1, Stop: size - 1} }

// CheckRanges reports why ranges select no hyperslab of a variable of
// the given shape, or nil when Subset would accept them: one non-empty,
// in-bounds range per dimension.
func CheckRanges(varName string, shape []int, ranges []Range) error {
	if len(ranges) != len(shape) {
		return fmt.Errorf("netcdf: %s has rank %d, got %d ranges", varName, len(shape), len(ranges))
	}
	for i, r := range ranges {
		if r.Start < 0 || r.Stop >= shape[i] || r.Count() == 0 {
			return fmt.Errorf("netcdf: range %d [%d:%d:%d] invalid for size %d",
				i, r.Start, r.Stride, r.Stop, shape[i])
		}
	}
	return nil
}

// Subset extracts a hyperslab of v as a standalone dataset containing the
// subset variable and shrunken dimensions. ranges must have one entry per
// dimension of v.
func (d *Dataset) Subset(varName string, ranges []Range) (*Dataset, error) {
	v, ok := d.Var(varName)
	if !ok {
		return nil, fmt.Errorf("netcdf: no variable %q", varName)
	}
	shape := v.Shape(d)
	if err := CheckRanges(varName, shape, ranges); err != nil {
		return nil, err
	}
	out := NewDataset(d.Name)
	for k, val := range d.Attrs {
		out.Attrs[k] = val
	}
	outShape := make([]int, len(ranges))
	for i, r := range ranges {
		outShape[i] = r.Count()
		out.AddDim(v.Dims[i], r.Count())
	}
	n := 1
	for _, s := range outShape {
		n *= s
	}
	data := make([]float64, 0, n)
	idx := make([]int, len(ranges))
	var walk func(depth, off int)
	strides := rowStrides(shape)
	walk = func(depth, off int) {
		if depth == len(ranges) {
			data = append(data, v.Data[off])
			return
		}
		r := ranges[depth]
		for ix := r.Start; ix <= r.Stop; ix += r.Stride {
			walk(depth+1, off+ix*strides[depth])
		}
	}
	_ = idx
	walk(0, 0)
	nv := &Variable{Name: v.Name, Dims: append([]string(nil), v.Dims...), Data: data,
		Attrs: copyAttrs(v.Attrs)}
	if err := out.AddVar(nv); err != nil {
		return nil, err
	}
	// Subset the coordinate variables (1-D vars named after a dimension).
	for i, dn := range v.Dims {
		cv, ok := d.Var(dn)
		if !ok || len(cv.Dims) != 1 || cv.Dims[0] != dn {
			continue
		}
		r := ranges[i]
		cd := make([]float64, 0, r.Count())
		for ix := r.Start; ix <= r.Stop; ix += r.Stride {
			cd = append(cd, cv.Data[ix])
		}
		if err := out.AddVar(&Variable{Name: dn, Dims: []string{dn}, Data: cd, Attrs: copyAttrs(cv.Attrs)}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func rowStrides(shape []int) []int {
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	return strides
}

func copyAttrs(a map[string]string) map[string]string {
	out := make(map[string]string, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// TimeValues decodes the CF-style time coordinate variable ("units" like
// "days since 2018-01-01") into concrete instants.
func (d *Dataset) TimeValues() ([]time.Time, error) {
	tv, ok := d.Var("time")
	if !ok {
		return nil, fmt.Errorf("netcdf: dataset has no time variable")
	}
	units := tv.Attrs["units"]
	base, step, err := ParseCFTimeUnits(units)
	if err != nil {
		return nil, err
	}
	out := make([]time.Time, len(tv.Data))
	for i, v := range tv.Data {
		out[i] = base.Add(time.Duration(v * float64(step)))
	}
	return out, nil
}

// ParseCFTimeUnits parses a CF time-units string such as
// "days since 2018-01-01" or "hours since 2018-01-01T00:00:00Z".
func ParseCFTimeUnits(units string) (base time.Time, step time.Duration, err error) {
	parts := strings.SplitN(units, " since ", 2)
	if len(parts) != 2 {
		return time.Time{}, 0, fmt.Errorf("netcdf: bad time units %q", units)
	}
	switch strings.TrimSpace(parts[0]) {
	case "days":
		step = 24 * time.Hour
	case "hours":
		step = time.Hour
	case "minutes":
		step = time.Minute
	case "seconds":
		step = time.Second
	default:
		return time.Time{}, 0, fmt.Errorf("netcdf: unknown time unit %q", parts[0])
	}
	stamp := strings.TrimSpace(parts[1])
	for _, layout := range []string{"2006-01-02", "2006-01-02T15:04:05Z", time.RFC3339} {
		if t, perr := time.Parse(layout, stamp); perr == nil {
			return t.UTC(), step, nil
		}
	}
	return time.Time{}, 0, fmt.Errorf("netcdf: bad time origin %q", stamp)
}
