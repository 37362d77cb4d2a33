package schemaorg

import (
	"context"
	"net/http/httptest"
	"testing"

	"applab/internal/drs"
	"applab/internal/geom"
	"applab/internal/opendap"
	"applab/internal/workload"
)

func TestHarvestFromOPeNDAP(t *testing.T) {
	srv := opendap.NewServer()
	// Two auto-augmented products with ACDD coverage attributes.
	for _, spec := range []struct {
		name, varName string
	}{{"lai", "LAI"}, {"ndvi", "NDVI"}} {
		opts := workload.DefaultLAIOptions()
		opts.Name, opts.VarName = spec.name, spec.varName
		srv.Publish(drs.AutoAugment(workload.LAIGrid(opts)))
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	datasets, err := Harvest(context.Background(), opendap.NewClient(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if len(datasets) != 2 {
		t.Fatalf("harvested %d datasets", len(datasets))
	}
	ix := NewIndex()
	for _, d := range datasets {
		if d.Publisher == "" {
			t.Errorf("%s: publisher missing", d.ID)
		}
		if d.SpatialCoverage.IsEmpty() {
			t.Errorf("%s: spatial coverage missing (AutoAugment attrs lost)", d.ID)
		}
		if d.TemporalStart.IsZero() {
			t.Errorf("%s: temporal coverage missing", d.ID)
		}
		// The annotation round-trips through JSON-LD.
		doc, err := JSONLD(d)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseJSONLD(doc)
		if err != nil {
			t.Fatal(err)
		}
		ix.Add(parsed)
	}
	// Paris-area search finds the harvested products.
	hits := ix.Search(Query{Text: "Copernicus LAI", Area: workload.ParisExtent})
	if len(hits) == 0 {
		t.Fatal("harvested index returned nothing for a Paris LAI search")
	}
}

func TestDatasetFromMetadataDefaults(t *testing.T) {
	skel, err := opendap.ParseNcML(`<netcdf location="bare"></netcdf>`)
	if err != nil {
		t.Fatal(err)
	}
	d := DatasetFromMetadata("bare", skel)
	if d.Name != "bare" {
		t.Errorf("fallback name = %q", d.Name)
	}
	if !d.SpatialCoverage.IsEmpty() && d.SpatialCoverage != (geom.Envelope{}) {
		t.Errorf("coverage = %+v", d.SpatialCoverage)
	}
}

func TestHarvestErrors(t *testing.T) {
	if _, err := Harvest(context.Background(), opendap.NewClient("http://127.0.0.1:1")); err == nil {
		t.Error("harvest of dead server must fail")
	}
}
