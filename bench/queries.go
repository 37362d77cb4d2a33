package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"applab/internal/geom"
	"applab/internal/rdf"
	"applab/internal/workload"
)

// rnd is splitmix64: seeding costs nothing, so every pool entry and
// every request index gets its own generator and the stream is a pure
// function of (seed, index) whatever the clients' interleaving.
type rnd struct{ s uint64 }

func newRnd(seed int64, salt, i uint64) *rnd {
	r := &rnd{s: uint64(seed)*0x9E3779B97F4A7C15 ^ salt*0xBF58476D1CE4E5B9 ^ i*0x94D049BB133111EB}
	r.next()
	return r
}

func (r *rnd) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rnd) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rnd) intn(n int) int { return int(r.next() % uint64(n)) }

// slots spreads a mix over a repeating pattern: entry i of a stream gets
// class pattern[i%len(pattern)]. Drawing the class at random instead
// would let one seed put an expensive query at the head of the Zipf
// distribution and the next seed a cheap one; with a fixed pattern every
// seed has the same mix at every rank and only the constants differ.
type slots []int

func (p slots) at(i int) int { return p[i%len(p)] }

// rect draws a rectangle inside the Paris extent whose sides are the
// given share of the extent's.
func (r *rnd) rect(share float64) geom.Envelope {
	ext := workload.ParisExtent
	w, h := (ext.MaxX-ext.MinX)*share, (ext.MaxY-ext.MinY)*share
	x := ext.MinX + r.float()*(ext.MaxX-ext.MinX-w)
	y := ext.MinY + r.float()*(ext.MaxY-ext.MinY-h)
	return geom.Envelope{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

func wktLiteral(env geom.Envelope) string {
	return rdf.NewWKT(env.ToPolygon().WKT()).String()
}

// request is one operation of a workload's stream.
type request struct {
	query string
	key   int // pool index, -1 when the stream never repeats
}

// stream yields the i-th request of a workload. Pooled streams draw pool
// entries Zipf-distributed; distinct streams build a fresh query per
// index.
type stream struct {
	seed     int64
	pool     []string
	cdf      []float64
	distinct func(r *rnd, i int) string
}

func (s *stream) at(i int) request {
	r := newRnd(s.seed, 1, uint64(i))
	if s.pool == nil {
		return request{query: s.distinct(r, i), key: -1}
	}
	k := sort.SearchFloat64s(s.cdf, r.float())
	if k >= len(s.pool) {
		k = len(s.pool) - 1
	}
	return request{query: s.pool[k], key: k}
}

// hash fingerprints the first n requests, for the determinism test.
func (s *stream) hash(n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		h.Write([]byte(s.at(i).query))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// pooledStream builds n distinct queries with gen and a Zipf(exponent)
// distribution over them, rank = pool index.
func pooledStream(seed int64, n int, exponent float64, gen func(r *rnd, j int) string) *stream {
	s := &stream{seed: seed, pool: make([]string, 0, n), cdf: make([]float64, n)}
	seen := map[string]bool{}
	for j := 0; len(s.pool) < n; j++ {
		q := gen(newRnd(seed, 2, uint64(j)), len(s.pool))
		if !seen[q] {
			seen[q] = true
			s.pool = append(s.pool, q)
		}
	}
	total := 0.0
	for k := range s.cdf {
		total += 1 / math.Pow(float64(k+1), exponent)
		s.cdf[k] = total
	}
	for k := range s.cdf {
		s.cdf[k] /= total
	}
	return s
}

// ---- query shapes ----

// laiInPolygon is the paper's Listing 3 over materialized observations,
// narrowed to one time step and one polygon the way the case study's
// map client asks for it.
func laiInPolygon(step int, env geom.Envelope) string {
	at := rdf.NewDateTime(laiStart.Add(time.Duration(step) * laiStep))
	return fmt.Sprintf(`SELECT DISTINCT ?s ?wkt ?lai WHERE {
  ?s time:hasTime %s .
  ?s lai:lai ?lai .
  ?s geo:hasGeometry ?g .
  ?g geo:asWKT ?wkt .
  FILTER(geof:sfWithin(?wkt, %s))
}`, at, wktLiteral(env))
}

// selection is the Geographica SC*/MB1 shape (geographica.StrabonSystem
// builds the same text): features of one dataset, optionally of one
// class, whose geometry satisfies rel against a constant.
func selection(vs vectorSet, class, projection, rel string, env geom.Envelope) string {
	cls := "?cls"
	if class != "" {
		cls = "<" + vs.ns + class + ">"
	}
	return fmt.Sprintf(`SELECT %s WHERE {
  ?f <%s> %s .
  ?f geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
  FILTER(geof:%s(?w, %s))
}`, projection, vs.classProp, cls, rel, wktLiteral(env))
}

// nearest is Geographica NN1 (reverse geocoding) as GeoSPARQL: the
// endpoint has no nearest-neighbour verb, so it orders by distance.
func nearest(vs vectorSet, p geom.Point) string {
	pt := rdf.NewWKT(fmt.Sprintf("POINT (%g %g)", p.X, p.Y))
	return fmt.Sprintf(`SELECT ?f ?d WHERE {
  ?f <%s> ?cls .
  ?f geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
  BIND(geof:distance(?w, %s) AS ?d)
} ORDER BY ?d ?f LIMIT 1`, vs.classProp, pt)
}

const countStar = "(COUNT(*) AS ?n)"

var (
	osmSet, clcSet, uaSet, gadmSet = vectorSets[0], vectorSets[1], vectorSets[2], vectorSets[3]
)

// browseMix: of every 20 pool entries 6 are Listing 3, 4 MB1, 3 each
// SC1, SC2 and SC3, 1 NN1.
var browseMix = slots{0, 1, 2, 3, 4, 0, 1, 0, 2, 3, 4, 1, 0, 5, 0, 1, 2, 3, 4, 0}

// browseQuery builds entry j of the mat-browse / mat-ingest pool.
func browseQuery(sz sizes) func(r *rnd, j int) string {
	return func(r *rnd, j int) string {
		switch browseMix.at(j) {
		case 0:
			return laiInPolygon(r.intn(sz.laiTimes), r.rect(0.25))
		case 1: // MB1
			class := workload.UrbanAtlasClasses[j/len(browseMix)%len(workload.UrbanAtlasClasses)]
			return selection(uaSet, class, "?f ?w", "sfIntersects", r.rect(0.45))
		case 2: // SC1
			return selection(clcSet, "", countStar, "sfIntersects", r.rect(0.4))
		case 3: // SC2
			return selection(uaSet, "", countStar, "sfWithin", r.rect(0.4))
		case 4: // SC3
			return selection(osmSet, "", "?f ?w", "sfIntersects", r.rect(0.08))
		default: // NN1
			ext := workload.ParisExtent
			return nearest(gadmSet, geom.Point{
				X: ext.MinX + r.float()*(ext.MaxX-ext.MinX),
				Y: ext.MinY + r.float()*(ext.MaxY-ext.MinY)})
		}
	}
}

// spatialJoin is Geographica SJ1/SJ2: pairs between two classes whose
// geometries satisfy rel, restricted to a viewport so no two requests
// are the same query.
func spatialJoin(a vectorSet, classA string, b vectorSet, classB, rel string, env geom.Envelope) string {
	return fmt.Sprintf(`SELECT (COUNT(*) AS ?n) WHERE {
  ?a <%s> <%s%s> .
  ?a geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?b <%s> <%s%s> .
  ?b geo:hasGeometry ?gb .
  ?gb geo:asWKT ?wb .
  FILTER(geof:%s(?wa, ?wb))
  FILTER(geof:sfIntersects(?wa, %s))
}`, a.classProp, a.ns, classA, b.classProp, b.ns, classB, rel, wktLiteral(env))
}

// analyticMix: of every 20 requests 10 are BGP, star and filter-bind
// joins (3, 4, 3), 6 spatial joins (SJ1, SJ2), 4 AG1 aggregates.
var analyticMix = slots{0, 3, 1, 5, 2, 4, 1, 5, 0, 3, 1, 4, 2, 5, 0, 3, 1, 4, 2, 5}

// analyticQuery builds the i-th mat-analytic request. Every shape
// carries a constant derived from i, so no plan key ever repeats.
func analyticQuery(sz sizes) func(r *rnd, i int) string {
	return func(r *rnd, i int) string {
		city := cityName(r.intn(sz.cities))
		switch analyticMix.at(i) {
		case 0: // Engine_BGPJoin
			return fmt.Sprintf(`PREFIX ex: <%s>
SELECT ?s ?n ?a ?req WHERE { ?s a ex:Person . ?s ex:city %q . ?s ex:name ?n . ?s ex:age ?a . BIND(%d AS ?req) }`, nsEx, city, i)
		case 1: // Engine_StarJoin
			return fmt.Sprintf(`PREFIX ex: <%s>
SELECT ?s ?o ?n ?req WHERE { ?s ex:city %q . ?s ex:knows ?o . ?o ex:name ?n . BIND(%d AS ?req) }`, nsEx, city, i)
		case 2: // Engine_FilterBind, narrowed to one city
			return fmt.Sprintf(`PREFIX ex: <%s>
SELECT ?s ?b WHERE { ?s ex:city %q . ?s ex:age ?a . FILTER(?a > %d) BIND(?a + %d AS ?b) }`, nsEx, city, 20+r.intn(40), i)
		case 3: // SJ1
			return spatialJoin(osmSet, workload.OSMPoiTypes[r.intn(len(workload.OSMPoiTypes))],
				clcSet, workload.CorineClasses[r.intn(5)], "sfIntersects", r.rect(0.6))
		case 4: // SJ2
			return spatialJoin(uaSet, workload.UrbanAtlasClasses[r.intn(4)],
				gadmSet, "AdministrativeArea", "sfWithin", r.rect(0.6))
		default: // AG1
			env := r.rect(0.5)
			return fmt.Sprintf(`SELECT (SUM(geof:area(?w)) AS ?total) WHERE {
  ?f <%s> <%s%s> .
  ?f geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
  FILTER(geof:sfWithin(?w, %s))
}`, clcSet.classProp, clcSet.ns, workload.CorineClasses[r.intn(5)], wktLiteral(env))
		}
	}
}

// scatterQuery builds the i-th cluster-scatter request: two in five are
// subject-bound lookups the ring routes to one fragment, three in five
// BGP joins whose first pattern has no bound subject and fans out. (Not
// half and half: the two cost 0.3 ms and 4 ms, and a median that sits in
// the gap between them jumps from one to the other.)
func scatterQuery(sz sizes) func(r *rnd, i int) string {
	return func(r *rnd, i int) string {
		if i%5 < 2 {
			return fmt.Sprintf(`PREFIX ex: <%s>
SELECT ?p ?o ?req WHERE { <%sp%d> ?p ?o . BIND(%d AS ?req) }`, nsEx, nsEx, r.intn(sz.clusterPersons), i)
		}
		return fmt.Sprintf(`PREFIX ex: <%s>
SELECT ?s ?n ?a ?req WHERE { ?s ex:city %q . ?s ex:name ?n . ?s ex:age ?a . BIND(%d AS ?req) }`,
			nsEx, cityName(r.intn(sz.clusterCities)), i)
	}
}

// otfQuery builds entry j of the otf-opendap pool: Listing 3 over one
// demo dataset (each in turn), one polygon and one time window.
func otfQuery(sz sizes) func(r *rnd, j int) string {
	return func(r *rnd, j int) string {
		g := otfGrids[j%len(otfGrids)]
		from := r.intn(sz.otfTimes)
		lo := rdf.NewDateTime(laiStart.Add(time.Duration(from) * laiStep))
		hi := rdf.NewDateTime(laiStart.Add(time.Duration(from+1+r.intn(sz.otfTimes-from)) * laiStep))
		return fmt.Sprintf(`SELECT DISTINCT ?s ?wkt ?v WHERE {
  ?s lai:%s ?v .
  ?s time:hasTime ?t .
  ?s geo:hasGeometry ?g .
  ?g geo:asWKT ?wkt .
  FILTER(?t >= %s && ?t < %s)
  FILTER(geof:sfWithin(?wkt, %s))
}`, g.predicate, lo, hi, wktLiteral(r.rect(0.5)))
	}
}
