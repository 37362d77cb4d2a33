// Package geotriples implements the GeoTriples tool of the App Lab stack
// [Kyzirakos et al., JWS 2018]: an R2RML mapping processor that transforms
// tabular geospatial data — CSV files, GeoJSON feature collections and
// NetCDF grids — into RDF graphs using the GeoSPARQL vocabulary. Mappings
// are written in (a subset of) the W3C R2RML vocabulary serialized as
// Turtle. The processor runs sequentially or with a worker pool (the
// laptop-scale analogue of the paper's Hadoop mapping processor).
package geotriples

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"applab/internal/netcdf"
)

// Table is the tabular intermediate representation every source is read
// into: a header plus string-valued records.
type Table struct {
	Cols []string
	Rows [][]string
}

// ColIndex returns the index of a column (case-insensitive).
func (t *Table) ColIndex(name string) (int, bool) {
	for i, c := range t.Cols {
		if strings.EqualFold(c, name) {
			return i, true
		}
	}
	return 0, false
}

// ReadCSV reads a CSV document with a header row.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("geotriples: csv: %v", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("geotriples: csv: empty document")
	}
	return &Table{Cols: records[0], Rows: records[1:]}, nil
}

// geoJSON mirrors the GeoJSON FeatureCollection structure.
type geoJSON struct {
	Type     string `json:"type"`
	Features []struct {
		Type       string          `json:"type"`
		Properties map[string]any  `json:"properties"`
		Geometry   json.RawMessage `json:"geometry"`
	} `json:"features"`
}

type geoJSONGeom struct {
	Type        string          `json:"type"`
	Coordinates json.RawMessage `json:"coordinates"`
}

// ReadGeoJSON reads a GeoJSON FeatureCollection. Feature properties become
// columns; the geometry becomes a "geometry" column holding WKT.
func ReadGeoJSON(r io.Reader) (*Table, error) {
	var doc geoJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("geotriples: geojson: %v", err)
	}
	if doc.Type != "FeatureCollection" {
		return nil, fmt.Errorf("geotriples: geojson: type %q is not FeatureCollection", doc.Type)
	}
	// Collect the union of property keys for the header.
	keySet := map[string]bool{}
	for _, f := range doc.Features {
		for k := range f.Properties {
			keySet[k] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t := &Table{Cols: append(keys, "geometry")}
	for i, f := range doc.Features {
		row := make([]string, 0, len(keys)+1)
		for _, k := range keys {
			row = append(row, propString(f.Properties[k]))
		}
		wkt, err := geoJSONToWKT(f.Geometry)
		if err != nil {
			return nil, fmt.Errorf("geotriples: geojson feature %d: %v", i, err)
		}
		row = append(row, wkt)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func propString(v any) string {
	switch t := v.(type) {
	case nil:
		return ""
	case string:
		return t
	case float64:
		return strconv.FormatFloat(t, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(t)
	}
	b, _ := json.Marshal(v)
	return string(b)
}

// geoJSONToWKT converts a GeoJSON geometry object into WKT.
func geoJSONToWKT(raw json.RawMessage) (string, error) {
	if len(raw) == 0 {
		return "", fmt.Errorf("missing geometry")
	}
	var g geoJSONGeom
	if err := json.Unmarshal(raw, &g); err != nil {
		return "", err
	}
	switch g.Type {
	case "Point":
		var c []float64
		if err := json.Unmarshal(g.Coordinates, &c); err != nil || len(c) < 2 {
			return "", fmt.Errorf("bad Point coordinates")
		}
		return fmt.Sprintf("POINT (%g %g)", c[0], c[1]), nil
	case "LineString":
		var c [][]float64
		if err := json.Unmarshal(g.Coordinates, &c); err != nil {
			return "", fmt.Errorf("bad LineString coordinates")
		}
		return "LINESTRING " + coordList(c), nil
	case "Polygon":
		var c [][][]float64
		if err := json.Unmarshal(g.Coordinates, &c); err != nil {
			return "", fmt.Errorf("bad Polygon coordinates")
		}
		return "POLYGON " + ringList(c), nil
	case "MultiPolygon":
		var c [][][][]float64
		if err := json.Unmarshal(g.Coordinates, &c); err != nil {
			return "", fmt.Errorf("bad MultiPolygon coordinates")
		}
		parts := make([]string, len(c))
		for i, poly := range c {
			parts[i] = ringList(poly)
		}
		return "MULTIPOLYGON (" + strings.Join(parts, ", ") + ")", nil
	}
	return "", fmt.Errorf("unsupported geometry type %q", g.Type)
}

func coordList(c [][]float64) string {
	parts := make([]string, len(c))
	for i, p := range c {
		parts[i] = fmt.Sprintf("%g %g", p[0], p[1])
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func ringList(rings [][][]float64) string {
	parts := make([]string, len(rings))
	for i, r := range rings {
		parts[i] = coordList(r)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// FromNetCDF flattens a CF grid variable into a table with columns
// (id, <var>, ts, loc) — the same relation shape the paper's custom Python
// script produced for the LAI product ("Since GeoTriples does not support
// NetCDF files as input, the translation was done by writing a custom
// Python script"; this method removes that gap, one of the paper's §5
// open problems). The rows are the ones the on-the-fly workflow's opendap
// virtual table derives from the same grid, so both workflows mint the
// same resource for one cell.
func FromNetCDF(ds *netcdf.Dataset, varName string) (*Table, error) {
	g, err := netcdf.ReadGrid(ds, varName)
	if err != nil {
		return nil, err
	}
	t := &Table{Cols: []string{"id", varName, "ts", "loc"}}
	g.Cells(func(id string, v float64, ts, loc string) {
		t.Rows = append(t.Rows, []string{id, strconv.FormatFloat(v, 'g', -1, 64), ts, loc})
	})
	return t, nil
}
