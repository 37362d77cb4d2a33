package geographica

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"applab/internal/geom"
	"applab/internal/obda"
	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/workload"
)

func sources(t testing.TB, w *Workload) (*strabon.Store, *obda.VirtualGraph) {
	t.Helper()
	st, err := LoadStore(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	vg, err := NewView(w)
	if err != nil {
		t.Fatal(err)
	}
	return st, vg
}

// rows renders results order-independently, one line per binding.
func rows(res *sparql.Results) string {
	out := make([]string, len(res.Bindings))
	for i := range res.Bindings {
		b := res.Binding(i)
		var row []string
		for _, v := range res.Vars {
			row = append(row, v+"="+b[v].String())
		}
		out[i] = strings.Join(row, " ")
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

func nTriples(t *testing.T, ts []rdf.Triple) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, ts); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	sort.Strings(lines)
	return []byte(strings.Join(lines, ""))
}

// The view's mappings produce exactly the triples the store is loaded
// with.
func TestViewGraphEqualsFeaturesToRDF(t *testing.T) {
	w := NewWorkload(40, 11)
	_, vg := sources(t, w)
	g, err := vg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var want []rdf.Triple
	for _, d := range datasets {
		want = append(want, workload.FeaturesToRDF(d.ns, d.classProp, d.feats(w))...)
	}
	if got, want := nTriples(t, g.Triples()), nTriples(t, want); !bytes.Equal(got, want) {
		t.Fatalf("view graph (%d bytes) differs from FeaturesToRDF (%d bytes)", len(got), len(want))
	}
}

// agree evaluates one parsed query on both sources, fails unless their
// bindings are identical, and returns the store's.
func agree(t *testing.T, st *strabon.Store, vg *obda.VirtualGraph, id, q string) *sparql.Results {
	t.Helper()
	parsed, err := sparql.Parse(q)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	a, err := parsed.Eval(st)
	if err != nil {
		t.Fatalf("%s on the store: %v", id, err)
	}
	b, err := parsed.Eval(vg)
	if err != nil {
		t.Fatalf("%s over the view: %v", id, err)
	}
	if ra, rb := rows(a), rows(b); ra != rb {
		t.Fatalf("%s: store\n%s\nview\n%s", id, ra, rb)
	}
	return a
}

// count reads the single ?n of a COUNT query.
func count(t *testing.T, res *sparql.Results) int64 {
	t.Helper()
	if len(res.Bindings) != 1 {
		t.Fatalf("%d rows, want 1", len(res.Bindings))
	}
	n, ok := res.Binding(0)["n"].Int()
	if !ok {
		t.Fatalf("?n = %v", res.Binding(0)["n"])
	}
	return n
}

func TestSuiteRunsOnBothSystems(t *testing.T) {
	st, vg := sources(t, NewWorkload(60, 11))
	for _, q := range Suite() {
		if res := agree(t, st, vg, q.ID, q.SPARQL); len(res.Bindings) != 1 {
			t.Errorf("%s: %d rows, want 1", q.ID, len(res.Bindings))
		}
	}
}

func TestSystemsAgreeOnSelections(t *testing.T) {
	st, vg := sources(t, NewWorkload(60, 11))
	center := workload.ParisExtent.Center()
	sel := geom.NewRect(center.X-0.05, center.Y-0.02, center.X+0.05, center.Y+0.02).WKT()
	for _, rel := range []string{"sfIntersects", "sfWithin", "sfContains", "sfTouches"} {
		for _, d := range datasets {
			agree(t, st, vg, d.name+"/"+rel, selection(d, rel, sel))
		}
	}
}

func TestSystemsAgreeOnJoin(t *testing.T) {
	st, vg := sources(t, NewWorkload(40, 11))
	if n := count(t, agree(t, st, vg, "osm x clc", join(osm, clc, "sfIntersects"))); n == 0 {
		t.Error("join found no pairs; workload too sparse")
	}
}

func TestSystemsAgreeOnAggregate(t *testing.T) {
	st, vg := sources(t, NewWorkload(50, 11))
	for _, q := range Suite() {
		if q.Kind != "aggregate" {
			continue
		}
		res := agree(t, st, vg, q.ID, q.SPARQL)
		if total, _ := res.Binding(0)["total"].Float(); total == 0 {
			t.Errorf("%s: no area aggregated", q.ID)
		}
	}
}

func TestSystemsAgreeOnThematicSelection(t *testing.T) {
	st, vg := sources(t, NewWorkload(80, 11))
	center := workload.ParisExtent.Center()
	viewport := geom.NewRect(center.X-0.06, center.Y-0.03, center.X+0.06, center.Y+0.03).WKT()
	for _, c := range []struct {
		ds    dataset
		class string
	}{
		{ua, "greenUrbanAreas"},
		{clc, "continuousUrbanFabric"},
		{osm, "park"},
	} {
		q := fmt.Sprintf(`SELECT ?f WHERE {
  ?f <%s> <%s%s> .
  ?f geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
  FILTER(geof:sfIntersects(?w, "%s"^^geo:wktLiteral))
}`, c.ds.classProp, c.ds.ns, c.class, viewport)
		agree(t, st, vg, c.ds.name+"/"+c.class, q)
	}
}

// NN1's SPARQL returns exactly k features of the dataset on both
// sources: the k nearest by the distance geof:distance computes, equal
// distances by IRI.
func TestNearest(t *testing.T) {
	const k, steps = 3, 11
	w := NewWorkload(120, 17)
	st, vg := sources(t, w)
	ext := workload.ParisExtent
	for _, d := range []dataset{gadm, osm} {
		type ranked struct {
			iri  string
			dist float64
		}
		feats := d.feats(w)
		geoms := make([]geom.Geometry, len(feats))
		for i, f := range feats {
			g, err := geom.ParseWKT(f.Geom.WKT()) // the store's literal
			if err != nil {
				t.Fatal(err)
			}
			geoms[i] = g
		}
		for i := 0; i < steps; i++ {
			for j := 0; j < steps; j++ {
				p := geom.Point{X: ext.MinX + (ext.MaxX-ext.MinX)*float64(i)/(steps-1),
					Y: ext.MinY + (ext.MaxY-ext.MinY)*float64(j)/(steps-1)}
				pg, err := geom.ParseWKT(geom.NewPoint(p.X, p.Y).WKT()) // the query's constant
				if err != nil {
					t.Fatal(err)
				}
				all := make([]ranked, len(feats))
				for n, f := range feats {
					all[n] = ranked{d.ns + f.ID, geom.Distance(geoms[n], pg)}
				}
				sort.Slice(all, func(a, b int) bool {
					if all[a].dist != all[b].dist {
						return all[a].dist < all[b].dist
					}
					return all[a].iri < all[b].iri
				})
				var want []string
				for _, r := range all[:k] {
					want = append(want, r.iri)
				}
				parsed, err := sparql.Parse(nearest(d, p, k))
				if err != nil {
					t.Fatal(err)
				}
				for _, src := range []sparql.Source{st, vg} {
					res, err := parsed.Eval(src)
					if err != nil {
						t.Fatal(err)
					}
					var got []string
					for r := range res.Bindings {
						b := res.Binding(r)
						got = append(got, b["f"].Value)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s near %v on %T: got %v, want %v", d.name, p, src, got, want)
					}
				}
			}
		}
	}
}
