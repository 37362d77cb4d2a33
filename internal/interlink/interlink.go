// Package interlink implements the interlinking tools of the App Lab
// stack: spatial and temporal link discovery in the style of the
// Silk extension of [Smeros & Koubarakis, LDOW 2016], and name-based
// entity resolution with token blocking in the style of JedAI
// [Papadakis et al., SEMANTICS 2017], including the multi-core mode the
// paper cites as "scalable to very large datasets".
//
// Both tools avoid the O(n*m) comparison explosion with blocking: spatial
// discovery probes an STR R-tree (internal/geom/rtree) over the
// destination envelopes and verifies only pairs whose envelopes
// intersect; entity resolution compares only entities sharing a name
// token.
package interlink

import (
	"sort"
	"strings"
	"sync"
	"time"

	"applab/internal/geom"
	"applab/internal/geom/rtree"
	"applab/internal/rdf"
)

// Entity is one interlinking subject with its comparable attributes.
type Entity struct {
	ID   rdf.Term
	Geom geom.Geometry // nil when the entity has no geometry
	Name string
	From time.Time // valid-time / observation interval (optional)
	To   time.Time
}

// Link is a discovered link between two entities.
type Link struct {
	Source    rdf.Term
	Target    rdf.Term
	Predicate string
	// Score is 1 for boolean relations, the similarity for sameAs links.
	Score float64
}

// EntitiesFromGraph extracts entities from an RDF graph: every subject
// with geo:hasGeometry/geo:asWKT becomes an entity; nameProp (optional)
// fills Name. Geometries that fail to parse are skipped.
func EntitiesFromGraph(g *rdf.Graph, nameProp string) []Entity {
	hasGeom := rdf.NewIRI(rdf.NSGeo + "hasGeometry")
	asWKT := rdf.NewIRI(rdf.NSGeo + "asWKT")
	var out []Entity
	for _, t := range g.Match(rdf.Term{}, hasGeom, rdf.Term{}) {
		wkt, ok := g.FirstObject(t.O, asWKT)
		if !ok {
			continue
		}
		gm, err := geom.ParseWKT(wkt.Value)
		if err != nil {
			continue
		}
		e := Entity{ID: t.S, Geom: gm}
		if nameProp != "" {
			if n, ok := g.FirstObject(t.S, rdf.NewIRI(nameProp)); ok {
				e.Name = n.Value
			}
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Key() < out[j].ID.Key() })
	return out
}

// ObservationEntitiesFromGraph extracts spatio-temporal entities: subjects
// with a geometry and a time:hasTime instant (the observation shape of the
// LAI datasets). The instant becomes a degenerate [t, t] interval, making
// the entities usable with TemporalLinks.
func ObservationEntitiesFromGraph(g *rdf.Graph) []Entity {
	hasTime := rdf.NewIRI(rdf.NSTime + "hasTime")
	byKey := map[string]int{}
	ents := EntitiesFromGraph(g, "")
	for i, e := range ents {
		byKey[e.ID.Key()] = i
	}
	var out []Entity
	for _, t := range g.Match(rdf.Term{}, hasTime, rdf.Term{}) {
		tm, ok := t.O.Time()
		if !ok {
			continue
		}
		i, ok := byKey[t.S.Key()]
		if !ok {
			continue
		}
		e := ents[i]
		e.From, e.To = tm, tm
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].From.Equal(out[j].From) {
			return out[i].From.Before(out[j].From)
		}
		return out[i].ID.Key() < out[j].ID.Key()
	})
	return out
}

// SpatialLinker discovers links between geometric entities.
type SpatialLinker struct {
	// Relation is the geometric predicate (geom.Intersects, geom.Touches,
	// ...). Blocking assumes it holds only for pairs whose envelopes
	// intersect, as every geo:sf* relation but sfDisjoint does.
	Relation func(a, b geom.Geometry) bool
	// Predicate is the IRI of emitted links (e.g. geo:sfIntersects).
	Predicate string
	// Workers is the number of parallel verification workers (1 = serial).
	Workers int
}

// Discover returns all (src, dst) pairs satisfying the relation — the
// links DiscoverNaive returns, in the same order — with JedAI-spatial's
// blocking → verification split: an R-tree over the destination
// envelopes reports each envelope-intersecting candidate once per
// source geometry, and only those pairs are verified with Relation.
// Entities without a geometry take part in no link.
func (l *SpatialLinker) Discover(src, dst []Entity) []Link {
	if len(src) == 0 || len(dst) == 0 {
		return nil
	}
	envs := make([]geom.Envelope, len(dst))
	for i, d := range dst {
		envs[i] = geom.EmptyEnvelope() // rtree.Bulk indexes no empty envelope
		if d.Geom != nil {
			envs[i] = d.Geom.Envelope()
		}
	}
	index := rtree.Bulk(envs)

	workers := max(l.Workers, 1)
	results := make([][]Link, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var links []Link
			var cand []int32
			for i := w; i < len(src); i += workers {
				e := src[i]
				if e.Geom == nil {
					continue
				}
				cand = index.Search(e.Geom.Envelope(), cand[:0])
				for _, di := range cand {
					d := dst[di]
					if !e.ID.Equal(d.ID) && l.Relation(e.Geom, d.Geom) {
						links = append(links, Link{Source: e.ID, Target: d.ID,
							Predicate: l.Predicate, Score: 1})
					}
				}
			}
			results[w] = links
		}(w)
	}
	wg.Wait()
	var out []Link
	for _, r := range results {
		out = append(out, r...)
	}
	sortLinks(out)
	return out
}

// DiscoverNaive is the blocking-free baseline: all pairs with a
// geometry on both sides are verified.
func DiscoverNaive(src, dst []Entity, rel func(a, b geom.Geometry) bool, predicate string) []Link {
	var out []Link
	for _, e := range src {
		if e.Geom == nil {
			continue
		}
		for _, d := range dst {
			if d.Geom == nil || e.ID.Equal(d.ID) {
				continue
			}
			if rel(e.Geom, d.Geom) {
				out = append(out, Link{Source: e.ID, Target: d.ID, Predicate: predicate, Score: 1})
			}
		}
	}
	sortLinks(out)
	return out
}

func sortLinks(links []Link) {
	sort.Slice(links, func(i, j int) bool {
		if links[i].Source.Value != links[j].Source.Value {
			return links[i].Source.Value < links[j].Source.Value
		}
		return links[i].Target.Value < links[j].Target.Value
	})
}

// ---- entity resolution ----

// ResolveEntities links entities of a and b whose names are similar
// (Jaccard token similarity >= threshold), emitting owl:sameAs links. It
// uses token blocking: only pairs sharing at least one token are compared.
// workers parallelizes the comparison phase.
func ResolveEntities(a, b []Entity, threshold float64, workers int) []Link {
	if workers < 1 {
		workers = 1
	}
	// Token blocking over b.
	blocks := map[string][]int{}
	for i, e := range b {
		for _, tok := range nameTokens(e.Name) {
			blocks[tok] = append(blocks[tok], i)
		}
	}
	results := make([][]Link, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen := map[[2]string]bool{}
			var links []Link
			for i := w; i < len(a); i += workers {
				e := a[i]
				toksA := nameTokens(e.Name)
				if len(toksA) == 0 {
					continue
				}
				for _, tok := range toksA {
					for _, bi := range blocks[tok] {
						d := b[bi]
						key := [2]string{e.ID.Key(), d.ID.Key()}
						if seen[key] || e.ID.Equal(d.ID) {
							continue
						}
						seen[key] = true
						s := jaccard(toksA, nameTokens(d.Name))
						if s >= threshold {
							links = append(links, Link{Source: e.ID, Target: d.ID,
								Predicate: rdf.OWLSameAs, Score: s})
						}
					}
				}
			}
			results[w] = links
		}(w)
	}
	wg.Wait()
	var out []Link
	for _, r := range results {
		out = append(out, r...)
	}
	sortLinks(out)
	return out
}

func nameTokens(name string) []string {
	fields := strings.FieldsFunc(strings.ToLower(name), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
	seen := map[string]bool{}
	var out []string
	for _, f := range fields {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

func jaccard(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := map[string]bool{}
	for _, t := range a {
		set[t] = true
	}
	inter := 0
	for _, t := range b {
		if set[t] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// ---- temporal links ----

// TemporalRelation names the supported interval relations.
type TemporalRelation string

// Temporal relations.
const (
	RelBefore   TemporalRelation = "before"
	RelAfter    TemporalRelation = "after"
	RelDuring   TemporalRelation = "during"
	RelOverlaps TemporalRelation = "overlaps"
)

// TemporalLinks links entities of src to entities of dst whose intervals
// satisfy rel. Entities without valid intervals are skipped.
func TemporalLinks(src, dst []Entity, rel TemporalRelation) []Link {
	pred := rdf.NSTime + string(rel)
	var out []Link
	for _, e := range src {
		if e.From.IsZero() && e.To.IsZero() {
			continue
		}
		eFrom, eTo := normInterval(e)
		for _, d := range dst {
			if (d.From.IsZero() && d.To.IsZero()) || e.ID.Equal(d.ID) {
				continue
			}
			dFrom, dTo := normInterval(d)
			ok := false
			switch rel {
			case RelBefore:
				ok = eTo.Before(dFrom)
			case RelAfter:
				ok = eFrom.After(dTo)
			case RelDuring:
				ok = !eFrom.Before(dFrom) && !eTo.After(dTo)
			case RelOverlaps:
				ok = !eFrom.After(dTo) && !dFrom.After(eTo)
			}
			if ok {
				out = append(out, Link{Source: e.ID, Target: d.ID, Predicate: pred, Score: 1})
			}
		}
	}
	sortLinks(out)
	return out
}

func normInterval(e Entity) (time.Time, time.Time) {
	from, to := e.From, e.To
	if from.IsZero() {
		from = to
	}
	if to.IsZero() {
		to = from
	}
	return from, to
}

// LinksToRDF converts links to triples.
func LinksToRDF(links []Link) []rdf.Triple {
	out := make([]rdf.Triple, len(links))
	for i, l := range links {
		out[i] = rdf.NewTriple(l.Source, rdf.NewIRI(l.Predicate), l.Target)
	}
	return out
}
