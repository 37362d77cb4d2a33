// Package sextant implements the visualization tool of the App Lab stack
// [Nikolaou et al., JWS 2015]: layered thematic maps over time-evolving
// linked geospatial data. A Map combines layers whose features come from
// GeoSPARQL query results (or are added directly); it is described in RDF
// using the tool's map ontology and rendered to SVG — the medium of the
// paper's Figure 4 ("the greenness of Paris").
package sextant

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"applab/internal/geom"
	"applab/internal/geosparql"
	"applab/internal/rdf"
	"applab/internal/sparql"
)

// NSMap is the namespace of the Sextant map ontology.
const NSMap = "http://www.app-lab.eu/sextant/ont/"

// Style configures the rendering of a layer.
type Style struct {
	Stroke      string
	Fill        string
	FillOpacity float64
	Radius      float64 // point marker radius in pixels
}

// DefaultStyle is used when a layer has no explicit style.
var DefaultStyle = Style{Stroke: "#333333", Fill: "#88aa88", FillOpacity: 0.5, Radius: 3}

// Feature is one feature on a layer.
type Feature struct {
	ID   string
	Geom geom.Geometry
	// Value is an optional thematic value (e.g. the LAI reading) used for
	// value-scaled rendering.
	Value float64
	// HasValue marks Value as meaningful.
	HasValue bool
	// Time is the optional observation instant (temporal layers).
	Time time.Time
	// Label is an optional tooltip/label.
	Label string
}

// Layer is a named collection of features with a style.
type Layer struct {
	Name     string
	Style    Style
	Features []Feature
}

// Map is a layered thematic map.
type Map struct {
	Name   string
	Layers []*Layer
}

// NewMap returns an empty map.
func NewMap(name string) *Map { return &Map{Name: name} }

// AddLayer appends a layer and returns it.
func (m *Map) AddLayer(name string, style Style) *Layer {
	l := &Layer{Name: name, Style: style}
	m.Layers = append(m.Layers, l)
	return l
}

// LayerFromResults builds a layer from a SPARQL result set: wktVar names
// the geometry variable; valueVar (optional) a numeric variable; timeVar
// (optional) an xsd:dateTime variable.
func (m *Map) LayerFromResults(name string, style Style, res *sparql.Results,
	wktVar, valueVar, timeVar string) (*Layer, error) {
	l := m.AddLayer(name, style)
	for i := range res.Bindings {
		b := res.Binding(i)
		wkt, ok := b[wktVar]
		if !ok {
			continue
		}
		g, err := geosparql.ParseGeometryTerm(wkt)
		if err != nil {
			return nil, fmt.Errorf("sextant: row %d: %v", i, err)
		}
		f := Feature{ID: fmt.Sprintf("%s-%d", name, i), Geom: g}
		if valueVar != "" {
			if v, ok := b[valueVar]; ok {
				if fv, ok := v.Float(); ok {
					f.Value = fv
					f.HasValue = true
				}
			}
		}
		if timeVar != "" {
			if v, ok := b[timeVar]; ok {
				if tv, ok := v.Time(); ok {
					f.Time = tv
				}
			}
		}
		l.Features = append(l.Features, f)
	}
	return l, nil
}

// Envelope returns the bounding box of all features.
func (m *Map) Envelope() geom.Envelope {
	e := geom.EmptyEnvelope()
	for _, l := range m.Layers {
		for _, f := range l.Features {
			e = e.Extend(f.Geom.Envelope())
		}
	}
	return e
}

// Times returns the sorted distinct feature times (temporal maps).
func (m *Map) Times() []time.Time {
	set := map[int64]time.Time{}
	for _, l := range m.Layers {
		for _, f := range l.Features {
			if !f.Time.IsZero() {
				set[f.Time.UnixNano()] = f.Time
			}
		}
	}
	keys := make([]int64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]time.Time, len(keys))
	for i, k := range keys {
		out[i] = set[k]
	}
	return out
}

// RenderSVG renders the map (all features; temporal features of every
// instant) to an SVG document of the given pixel width.
func (m *Map) RenderSVG(width int) string {
	return m.renderSVG(width, time.Time{}, false)
}

// RenderSVGAt renders only features whose time matches at (non-temporal
// features always render) — one frame of the paper's time-slider.
func (m *Map) RenderSVGAt(width int, at time.Time) string {
	return m.renderSVG(width, at, true)
}

// RenderSVGWithLegend renders the map with a legend box listing the layers
// (the legend of the paper's Figure 4).
func (m *Map) RenderSVGWithLegend(width int) string {
	svg := m.RenderSVG(width)
	legend := m.legendSVG()
	// Inject the legend group before the closing tag.
	return strings.Replace(svg, "</svg>\n", legend+"</svg>\n", 1)
}

func (m *Map) legendSVG() string {
	var b strings.Builder
	rowH := 18
	pad := 6
	w := 10 + 16 + 6
	maxLabel := 0
	for _, l := range m.Layers {
		if len(l.Name) > maxLabel {
			maxLabel = len(l.Name)
		}
	}
	w += maxLabel * 7
	h := pad*2 + rowH*len(m.Layers)
	b.WriteString(`<g id="legend">` + "\n")
	fmt.Fprintf(&b, `<rect x="8" y="8" width="%d" height="%d" fill="white" fill-opacity="0.85" stroke="#666" />`+"\n", w, h)
	for i, l := range m.Layers {
		st := l.Style
		if st == (Style{}) {
			st = DefaultStyle
		}
		y := 8 + pad + i*rowH
		fmt.Fprintf(&b, `<rect x="14" y="%d" width="16" height="12" fill=%q stroke=%q fill-opacity="%g" />`+"\n",
			y, st.Fill, st.Stroke, st.FillOpacity)
		fmt.Fprintf(&b, `<text x="36" y="%d" font-size="12" font-family="sans-serif">%s</text>`+"\n",
			y+10, escapeXML(l.Name))
	}
	b.WriteString("</g>\n")
	return b.String()
}

func (m *Map) renderSVG(width int, at time.Time, filter bool) string {
	env := m.Envelope()
	if env.IsEmpty() {
		env = geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	w := env.MaxX - env.MinX
	h := env.MaxY - env.MinY
	if w == 0 {
		w = 1
	}
	if h == 0 {
		h = 1
	}
	height := int(float64(width) * h / w)
	if height < 1 {
		height = 1
	}
	sx := float64(width) / w
	sy := float64(height) / h
	// SVG y grows downward; flip latitude.
	px := func(p geom.Point) (float64, float64) {
		return (p.X - env.MinX) * sx, float64(height) - (p.Y-env.MinY)*sy
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, "<title>%s</title>\n", escapeXML(m.Name))
	for _, l := range m.Layers {
		st := l.Style
		if st == (Style{}) {
			st = DefaultStyle
		}
		fmt.Fprintf(&b, `<g id=%q stroke=%q fill=%q fill-opacity="%g">`+"\n",
			escapeXML(l.Name), st.Stroke, st.Fill, st.FillOpacity)
		for _, f := range l.Features {
			if filter && !f.Time.IsZero() && !f.Time.Equal(at) {
				continue
			}
			b.WriteString(renderGeom(f, st, px))
		}
		b.WriteString("</g>\n")
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func renderGeom(f Feature, st Style, px func(geom.Point) (float64, float64)) string {
	var b strings.Builder
	var emit func(g geom.Geometry)
	emit = func(g geom.Geometry) {
		switch t := g.(type) {
		case *geom.PointGeom:
			x, y := px(t.P)
			r := st.Radius
			if r <= 0 {
				r = DefaultStyle.Radius
			}
			if f.HasValue {
				// Scale the marker by the thematic value (LAI 0-10).
				r = r * (0.5 + f.Value/4)
			}
			fmt.Fprintf(&b, `<circle cx="%.2f" cy="%.2f" r="%.2f"><title>%s</title></circle>`+"\n",
				x, y, r, escapeXML(f.Label))
		case *geom.MultiPoint:
			for _, p := range t.Points {
				emit(&geom.PointGeom{P: p})
			}
		case *geom.LineString:
			b.WriteString(`<polyline fill="none" points="`)
			for i, p := range t.Points {
				if i > 0 {
					b.WriteByte(' ')
				}
				x, y := px(p)
				fmt.Fprintf(&b, "%.2f,%.2f", x, y)
			}
			b.WriteString("\" />\n")
		case *geom.MultiLineString:
			for _, l := range t.Lines {
				emit(l)
			}
		case *geom.Polygon:
			for _, ring := range t.Rings {
				b.WriteString(`<polygon points="`)
				for i, p := range ring {
					if i > 0 {
						b.WriteByte(' ')
					}
					x, y := px(p)
					fmt.Fprintf(&b, "%.2f,%.2f", x, y)
				}
				if f.Label != "" {
					fmt.Fprintf(&b, "\"><title>%s</title></polygon>\n", escapeXML(f.Label))
				} else {
					b.WriteString("\" />\n")
				}
			}
		case *geom.MultiPolygon:
			for _, p := range t.Polygons {
				emit(p)
			}
		case *geom.Collection:
			for _, m := range t.Members {
				emit(m)
			}
		}
	}
	emit(f.Geom)
	return b.String()
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// ToRDF describes the map in the Sextant map ontology ("each thematic map
// is represented using a map ontology that assists on modelling these maps
// in RDF and allow for easy sharing, editing and search").
func (m *Map) ToRDF() []rdf.Triple {
	var out []rdf.Triple
	mapIRI := rdf.NewIRI(NSMap + "map/" + slug(m.Name))
	out = append(out,
		rdf.NewTriple(mapIRI, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(NSMap+"Map")),
		rdf.NewTriple(mapIRI, rdf.NewIRI(rdf.RDFSLabel), rdf.NewLiteral(m.Name)),
	)
	for i, l := range m.Layers {
		layerIRI := rdf.NewIRI(fmt.Sprintf("%slayer/%s/%d", NSMap, slug(m.Name), i))
		out = append(out,
			rdf.NewTriple(mapIRI, rdf.NewIRI(NSMap+"hasLayer"), layerIRI),
			rdf.NewTriple(layerIRI, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(NSMap+"Layer")),
			rdf.NewTriple(layerIRI, rdf.NewIRI(rdf.RDFSLabel), rdf.NewLiteral(l.Name)),
			rdf.NewTriple(layerIRI, rdf.NewIRI(NSMap+"order"), rdf.NewInteger(int64(i))),
			rdf.NewTriple(layerIRI, rdf.NewIRI(NSMap+"featureCount"), rdf.NewInteger(int64(len(l.Features)))),
		)
	}
	return out
}

func slug(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		} else if b.Len() > 0 && !strings.HasSuffix(b.String(), "-") {
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}

// RenderFrames renders one SVG per temporal instant of the map — the
// animation frames behind the paper's time slider. Maps with no temporal
// features yield a single full render.
func (m *Map) RenderFrames(width int) []string {
	times := m.Times()
	if len(times) == 0 {
		return []string{m.RenderSVG(width)}
	}
	out := make([]string, len(times))
	for i, at := range times {
		out[i] = m.RenderSVGAt(width, at)
	}
	return out
}
