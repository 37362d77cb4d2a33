package sextant

import (
	"strings"
	"testing"
	"time"

	"applab/internal/geom"
	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/workload"
)

func TestMapRenderSVG(t *testing.T) {
	m := NewMap("greenness of Paris")
	gadm := m.AddLayer("GADM", Style{Stroke: "#ff00ff", Fill: "none", FillOpacity: 0})
	for _, f := range workload.GADMAreas(workload.ParisExtent, 2, 3) {
		gadm.Features = append(gadm.Features, Feature{ID: f.ID, Geom: f.Geom, Label: f.Name})
	}
	parks := m.AddLayer("OSM parks", Style{Stroke: "#006600", Fill: "#00cc00", FillOpacity: 0.4})
	for _, f := range workload.OSMParks(workload.VectorOptions{Extent: workload.ParisExtent, N: 5, Seed: 1}) {
		parks.Features = append(parks.Features, Feature{ID: f.ID, Geom: f.Geom, Label: f.Name})
	}

	svg := m.RenderSVG(800)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatalf("not an SVG document:\n%.200s", svg)
	}
	if !strings.Contains(svg, `<g id="GADM"`) || !strings.Contains(svg, `<g id="OSM parks"`) {
		t.Error("layer groups missing")
	}
	if strings.Count(svg, "<polygon") < 11 { // 6 GADM cells + 5 parks
		t.Errorf("too few polygons:\n%.400s", svg)
	}
	if !strings.Contains(svg, "Bois de Boulogne") {
		t.Error("feature label missing")
	}
}

func TestTemporalFrames(t *testing.T) {
	m := NewMap("lai over time")
	l := m.AddLayer("LAI", Style{Fill: "#00aa00", Radius: 2})
	t1 := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	t2 := time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)
	l.Features = append(l.Features,
		Feature{ID: "a", Geom: pt(2.25, 48.85), Value: 3, HasValue: true, Time: t1},
		Feature{ID: "b", Geom: pt(2.26, 48.86), Value: 5, HasValue: true, Time: t2},
		Feature{ID: "c", Geom: pt(2.27, 48.87)}, // timeless, always rendered
	)
	times := m.Times()
	if len(times) != 2 || !times[0].Equal(t1) {
		t.Fatalf("times = %v", times)
	}
	frame1 := m.RenderSVGAt(400, t1)
	if strings.Count(frame1, "<circle") != 2 { // a + timeless c
		t.Errorf("frame1 circles = %d:\n%s", strings.Count(frame1, "<circle"), frame1)
	}
	all := m.RenderSVG(400)
	if strings.Count(all, "<circle") != 3 {
		t.Errorf("full render circles = %d", strings.Count(all, "<circle"))
	}
}

func pt(x, y float64) *geom.PointGeom { return geom.NewPoint(x, y) }

func TestLayerFromResults(t *testing.T) {
	s := strabon.New()
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 4, 4, 2
	ds := workload.LAIGrid(opts)
	triples, err := workload.LAIGridToRDF(ds, "LAI")
	if err != nil {
		t.Fatal(err)
	}
	s.AddAll(triples)
	res, err := s.Query(`SELECT ?wkt ?lai ?t WHERE {
	  ?o lai:lai ?lai ; geo:hasGeometry ?g ; time:hasTime ?t .
	  ?g geo:asWKT ?wkt }`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMap("test")
	layer, err := m.LayerFromResults("LAI", Style{Radius: 2}, res, "wkt", "lai", "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(layer.Features) != len(res.Bindings) {
		t.Fatalf("features = %d, rows = %d", len(layer.Features), len(res.Bindings))
	}
	for _, f := range layer.Features {
		if !f.HasValue || f.Time.IsZero() {
			t.Fatalf("feature missing value/time: %+v", f)
		}
	}
	svg := m.RenderSVG(400)
	if strings.Count(svg, "<circle") != len(layer.Features) {
		t.Error("every observation must render as a circle")
	}
}

func TestLayerFromResultsBadWKT(t *testing.T) {
	res := &sparql.Results{Vars: []string{"wkt"}, Cols: []string{"wkt"},
		Bindings: sparql.Table([]string{"wkt"}, []sparql.Binding{{"wkt": rdf.NewWKT("JUNK")}})}
	m := NewMap("x")
	if _, err := m.LayerFromResults("l", DefaultStyle, res, "wkt", "", ""); err == nil {
		t.Error("bad WKT must error")
	}
}

func TestMapToRDF(t *testing.T) {
	m := NewMap("Greenness of Paris")
	m.AddLayer("LAI", DefaultStyle)
	m.AddLayer("CORINE", DefaultStyle)
	triples := m.ToRDF()
	g := rdf.NewGraph()
	g.AddAll(triples)
	maps := g.Subjects(rdf.NewIRI(rdf.RDFType), rdf.NewIRI(NSMap+"Map"))
	if len(maps) != 1 {
		t.Fatalf("maps = %v", maps)
	}
	layers := g.Objects(maps[0], rdf.NewIRI(NSMap+"hasLayer"))
	if len(layers) != 2 {
		t.Fatalf("layers = %v", layers)
	}
}

func TestEmptyMapRender(t *testing.T) {
	m := NewMap("empty")
	svg := m.RenderSVG(100)
	if !strings.HasPrefix(svg, "<svg") {
		t.Error("empty map must still render an SVG document")
	}
}

func TestSlug(t *testing.T) {
	if slug("Greenness of Paris!") != "greenness-of-paris" {
		t.Errorf("slug = %q", slug("Greenness of Paris!"))
	}
}

func TestRenderSVGWithLegend(t *testing.T) {
	m := NewMap("with legend")
	m.AddLayer("LAI", Style{Fill: "#004d40", Stroke: "none", FillOpacity: 0.8})
	m.AddLayer("Parks", Style{Fill: "#a5d6a7", Stroke: "#1b5e20", FillOpacity: 0.5})
	l := m.Layers[0]
	l.Features = append(l.Features, Feature{ID: "a", Geom: pt(1, 1)})
	svg := m.RenderSVGWithLegend(400)
	if !strings.Contains(svg, `<g id="legend">`) {
		t.Fatal("legend group missing")
	}
	for _, name := range []string{"LAI", "Parks"} {
		if !strings.Contains(svg, ">"+name+"</text>") {
			t.Errorf("legend label %q missing", name)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Error("legend injection broke the document")
	}
}

func TestRenderFrames(t *testing.T) {
	m := NewMap("frames")
	l := m.AddLayer("LAI", Style{Radius: 2})
	t1 := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	t2 := time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)
	l.Features = append(l.Features,
		Feature{ID: "a", Geom: pt(0, 0), Time: t1},
		Feature{ID: "b", Geom: pt(1, 1), Time: t2},
	)
	frames := m.RenderFrames(200)
	if len(frames) != 2 {
		t.Fatalf("frames = %d", len(frames))
	}
	for i, f := range frames {
		if strings.Count(f, "<circle") != 1 {
			t.Errorf("frame %d circles = %d", i, strings.Count(f, "<circle"))
		}
	}
	// No temporal features: one frame.
	m2 := NewMap("static")
	m2.AddLayer("x", DefaultStyle)
	if got := m2.RenderFrames(100); len(got) != 1 {
		t.Errorf("static frames = %d", len(got))
	}
}
