package schemaorg

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"applab/internal/geom"
	"applab/internal/netcdf"
	"applab/internal/opendap"
)

// Harvest walks an OPeNDAP server's catalog, reads each dataset's NcML
// metadata, and converts it into schema.org EO dataset records — the
// paper's §3.1 metadata-harvesting pipeline ("the publishing and then
// harvesting of metadata from CSPs is recurrent by design") feeding the
// §5 dataset-search contribution.
//
// Recognized (ACDD-style) attributes: title, summary, keywords, license,
// institution/creator_name, platform/source, processing_level,
// geospatial_{lat,lon}_{min,max}, time_coverage_{start,end}. Every
// request runs under ctx.
func Harvest(ctx context.Context, client *opendap.Client) ([]EODataset, error) {
	names, err := client.Catalog(ctx)
	if err != nil {
		return nil, fmt.Errorf("schemaorg: harvest: %v", err)
	}
	var out []EODataset
	for _, name := range names {
		doc, err := client.NcML(ctx, name)
		if err != nil {
			return nil, fmt.Errorf("schemaorg: harvest %s: %v", name, err)
		}
		skel, err := opendap.ParseNcML(doc)
		if err != nil {
			return nil, fmt.Errorf("schemaorg: harvest %s: %v", name, err)
		}
		out = append(out, DatasetFromMetadata(name, skel))
	}
	return out, nil
}

// DatasetFromMetadata builds an EO dataset record from a dataset's
// metadata skeleton.
func DatasetFromMetadata(name string, ds *netcdf.Dataset) EODataset {
	attr := func(keys ...string) string {
		for _, k := range keys {
			if v := strings.TrimSpace(ds.Attrs[k]); v != "" {
				return v
			}
		}
		return ""
	}
	d := EODataset{
		ID:              "urn:opendap:" + name,
		Name:            attr("title"),
		Description:     attr("summary", "comment"),
		Publisher:       attr("institution", "creator_name"),
		License:         attr("license"),
		Platform:        attr("platform", "source"),
		Instrument:      attr("instrument"),
		ProcessingLevel: attr("processing_level"),
		ProductType:     attr("product_type"),
	}
	if d.Name == "" {
		d.Name = name
	}
	if kw := attr("keywords"); kw != "" {
		for _, k := range strings.Split(kw, ",") {
			if k = strings.TrimSpace(k); k != "" {
				d.Keywords = append(d.Keywords, k)
			}
		}
	}
	num := func(k string) (float64, bool) {
		v, err := strconv.ParseFloat(strings.TrimSpace(ds.Attrs[k]), 64)
		return v, err == nil
	}
	if latMin, ok1 := num("geospatial_lat_min"); ok1 {
		if latMax, ok2 := num("geospatial_lat_max"); ok2 {
			if lonMin, ok3 := num("geospatial_lon_min"); ok3 {
				if lonMax, ok4 := num("geospatial_lon_max"); ok4 {
					d.SpatialCoverage = geom.Envelope{
						MinX: lonMin, MinY: latMin, MaxX: lonMax, MaxY: latMax,
					}
				}
			}
		}
	}
	parseT := func(k string) time.Time {
		for _, layout := range []string{"2006-01-02T15:04:05Z", time.RFC3339, "2006-01-02"} {
			if t, err := time.Parse(layout, strings.TrimSpace(ds.Attrs[k])); err == nil {
				return t
			}
		}
		return time.Time{}
	}
	d.TemporalStart = parseT("time_coverage_start")
	d.TemporalEnd = parseT("time_coverage_end")
	return d
}
