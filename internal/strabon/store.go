// Package strabon implements the spatiotemporal RDF store of the App Lab
// stack, modeled on Strabon [Kyzirakos et al., ISWC 2012; Bereta et al.,
// ESWC 2013]: a triple store with
//
//   - hash indexes on S/P/O (via rdf.Graph),
//   - an R-tree over every geo:wktLiteral reachable through geo:asWKT,
//   - a valid-time interval index over triples carrying valid time and over
//     time:hasTime observation timestamps.
//
// It implements sparql.Source, so the full query engine (including the
// geof:* functions) runs on top of it, and exposes direct spatial and
// spatio-temporal query APIs that the Geographica-style benchmarks use.
package strabon

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"applab/internal/geom"
	"applab/internal/geom/rtree"
	"applab/internal/geosparql"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/segment"
	"applab/internal/sparql"
)

// GeometryEntry is one spatially indexed geometry.
type GeometryEntry struct {
	// Node is the geometry node (the subject of geo:asWKT).
	Node rdf.Term
	// WKT is the geometry literal.
	WKT rdf.Term
	// Geom is the parsed geometry.
	Geom geom.Geometry
	// Features are the subjects linked to Node via geo:hasGeometry.
	Features []rdf.Term
}

// Observation is a spatio-temporally indexed entity: a subject carrying a
// geometry and a time:hasTime instant (the LAI observations of the paper's
// case study have exactly this shape).
type Observation struct {
	Subject rdf.Term
	Geom    geom.Geometry
	Time    time.Time
}

// Store is the spatiotemporal RDF store. Build it with New, fill it with
// Add/AddAll/Load, then Freeze (or just query: freezing is automatic and
// incremental indexing is handled lazily).
//
// A Store is safe for concurrent use: writes and index rebuilds take the
// write lock, queries share the read lock. A query racing a write may
// observe the indexes from just before the write — consistent, possibly
// one batch stale — which is the semantics the concurrent endpoint
// (internal/endpoint over one store) needs.
type Store struct {
	mu  sync.RWMutex
	eng *segment.Engine

	dirty bool
	// writeErr records the first storage-engine write failure (WAL
	// append, flush); see Err.
	writeErr error
	// indexErr records the first geometry error of the last index build;
	// queries proceed over the parseable subset (see IndexErr).
	indexErr error
	spatial  *rtree.Tree
	geoms    map[string]*GeometryEntry // geometry-node key -> entry
	obs      []Observation             // sorted by Time
	// validTime holds triples with attached valid-time, sorted by ValidFrom.
	validTime []rdf.Triple

	// epoch counts mutations that changed data; fingerprint identifies
	// this store instance (see DataEpoch / Fingerprint).
	epoch       uint64
	fingerprint string
}

// New returns an empty in-memory store and ensures the geof:* functions
// are registered with the SPARQL engine. An in-memory store behaves
// exactly like the pre-engine seed store (the differential tests pin
// this); use Open for a disk-backed store.
func New() *Store {
	geosparql.Register()
	return &Store{eng: segment.New(), dirty: true, fingerprint: rescache.NextFingerprint("strabon")}
}

// Open opens (creating if needed) a disk-backed store in dir: the
// segment engine reads the manifest, the run footers, and the WAL tail
// — not the dataset — so the store answers its first query within
// milliseconds of boot regardless of data volume.
//
// A directory written by the removed -shards mode (data only in
// shard-NN/ subdirectories, no MANIFEST of its own) is refused: the
// engine ignores subdirectories, so opening it would answer every query
// from an empty store.
func Open(dir string, opts segment.Options) (*Store, error) {
	geosparql.Register()
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); errors.Is(err, fs.ErrNotExist) {
		// A ReadDir error is segment.Open's to report (or, for a
		// missing dir, to fix by creating it).
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
				return nil, fmt.Errorf("strabon: %s holds shard-* directories from the removed -shards mode and no store of its own; re-ingest the data into a fresh directory", dir)
			}
		}
	}
	eng, err := segment.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	return &Store{eng: eng, dirty: true, fingerprint: rescache.NextFingerprint("strabon")}, nil
}

// Engine exposes the storage engine (metrics registration, stats).
func (s *Store) Engine() *segment.Engine { return s.eng }

// Flush publishes the memtable of a disk-backed store as an immutable
// run; no-op in memory.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Flush()
}

// Close flushes and closes a disk-backed store, and surfaces any
// recorded write error. Closing an in-memory store only reports errors.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.eng.Close(); err != nil {
		return err
	}
	return s.writeErr
}

// Err returns the first storage write failure (nil for a healthy
// store). Writes after a failure keep going — the engine repairs its
// WAL tail and later appends may succeed — but the first error stays
// recorded so batch loaders can fail loudly at the end.
func (s *Store) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.writeErr != nil {
		return s.writeErr
	}
	return s.eng.Err()
}

// Add inserts one triple.
func (s *Store) Add(t rdf.Triple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed, err := s.eng.Add(t)
	if err != nil && s.writeErr == nil {
		s.writeErr = err
	}
	if changed {
		s.dirty = true
		s.epoch++
	}
}

// AddAll inserts all triples as one durable batch.
func (s *Store) AddAll(ts []rdf.Triple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed, err := s.eng.AddAll(ts)
	if err != nil && s.writeErr == nil {
		s.writeErr = err
	}
	if changed {
		s.dirty = true
		s.epoch++
	}
}

// Delete removes one triple (in a disk-backed store, via a tombstone
// masking older runs until compaction).
func (s *Store) Delete(t rdf.Triple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed, err := s.eng.Delete(t)
	if err != nil && s.writeErr == nil {
		s.writeErr = err
	}
	if changed {
		s.dirty = true
		s.epoch++
	}
}

// DataEpoch returns a counter bumped on every mutation that changed
// data. Result caches (internal/rescache) validate entries against it;
// reading it before evaluation and comparing after makes mid-eval
// writes conservatively invalidating.
func (s *Store) DataEpoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Fingerprint identifies this store *instance*. A store reopened from
// disk mints a fresh fingerprint — its epoch restarts at zero, so cache
// entries from the previous instance must become unreachable rather
// than wrongly validate.
func (s *Store) Fingerprint() string {
	return s.fingerprint
}

// Len returns the number of stored triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.Len()
}

// Graph exposes the store's triples as an rdf.Graph. For an in-memory
// store this is the live memtable graph (it bypasses the store's
// locking: use it only while no other goroutine writes the store); for
// a disk-backed store it is a point-in-time materialization.
func (s *Store) Graph() *rdf.Graph {
	if s.eng.Segments() == 0 {
		return s.eng.MemGraph()
	}
	g := rdf.NewGraph()
	g.AddAll(s.eng.Triples())
	return g
}

// Match implements sparql.Source.
func (s *Store) Match(sub, pred, obj rdf.Term) []rdf.Triple {
	return s.eng.Match(sub, pred, obj)
}

// Cardinality implements sparql.StatsSource: the memtable's
// index-bucket estimate plus each run's per-term cardinality footer —
// the compiled query engine reads segment statistics for free.
func (s *Store) Cardinality(sub, pred, obj rdf.Term) int {
	return s.eng.Cardinality(sub, pred, obj)
}

// Query parses and evaluates a (Geo)SPARQL query against the store.
func (s *Store) Query(q string) (*sparql.Results, error) {
	return sparql.Eval(s, q)
}

// Freeze (re)builds the spatial and temporal indexes. It is called
// automatically by the index-backed query methods when the store changed.
// The returned error is the first geometry that failed to parse (the
// indexes are still built over the parseable subset); it stays available
// via IndexErr.
func (s *Store) Freeze() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.freezeLocked()
	return s.indexErr
}

// IndexErr returns the first geometry error of the last index build, nil
// when every geometry parsed.
func (s *Store) IndexErr() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.indexErr
}

// ensureFrozen rebuilds the indexes if the store changed since the last
// build. Index errors are recorded in s.indexErr rather than returned:
// the read-only query methods proceed over the parseable subset.
func (s *Store) ensureFrozen() {
	s.mu.RLock()
	dirty := s.dirty
	s.mu.RUnlock()
	if !dirty {
		return
	}
	s.mu.Lock()
	s.freezeLocked()
	s.mu.Unlock()
}

// freezeLocked rebuilds the indexes when dirty; the caller holds the
// write lock.
func (s *Store) freezeLocked() {
	if !s.dirty {
		return
	}
	s.geoms = map[string]*GeometryEntry{}
	var items []rtree.Item
	asWKT := rdf.NewIRI(geosparql.AsWKT)
	hasGeom := rdf.NewIRI(geosparql.HasGeometry)
	var firstErr error
	for _, t := range s.eng.Match(rdf.Term{}, asWKT, rdf.Term{}) {
		g, err := geosparql.ParseGeometryTerm(t.O)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("strabon: geometry of %s: %v", t.S, err)
			}
			continue
		}
		e := &GeometryEntry{Node: t.S, WKT: t.O, Geom: g}
		for _, f := range s.eng.Subjects(hasGeom, t.S) {
			e.Features = append(e.Features, f)
		}
		s.geoms[t.S.Key()] = e
		items = append(items, rtree.Item{Env: g.Envelope(), Data: e})
	}
	s.spatial = rtree.Bulk(items)

	// Observations: subjects with both a geometry and a time:hasTime.
	hasTime := rdf.NewIRI(rdf.NSTime + "hasTime")
	s.obs = nil
	for _, t := range s.eng.Match(rdf.Term{}, hasTime, rdf.Term{}) {
		tm, ok := t.O.Time()
		if !ok {
			continue
		}
		if gn, ok := s.eng.FirstObject(t.S, hasGeom); ok {
			if e, ok := s.geoms[gn.Key()]; ok {
				s.obs = append(s.obs, Observation{Subject: t.S, Geom: e.Geom, Time: tm})
			}
		}
	}
	sort.Slice(s.obs, func(i, j int) bool { return s.obs[i].Time.Before(s.obs[j].Time) })

	// Valid-time triple index.
	s.validTime = nil
	for _, t := range s.eng.Triples() {
		if t.HasValidTime() {
			s.validTime = append(s.validTime, t)
		}
	}
	sort.Slice(s.validTime, func(i, j int) bool {
		return s.validTime[i].ValidFrom.Before(s.validTime[j].ValidFrom)
	})
	s.dirty = false
	s.indexErr = firstErr
}

// GeometriesIntersecting returns the geometry entries whose geometry
// intersects q, using the R-tree for candidate pruning.
func (s *Store) GeometriesIntersecting(q geom.Geometry) []*GeometryEntry {
	s.ensureFrozen()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*GeometryEntry
	s.spatial.Search(q.Envelope(), func(it rtree.Item) bool {
		e := it.Data.(*GeometryEntry)
		if geom.Intersects(e.Geom, q) {
			out = append(out, e)
		}
		return true
	})
	return out
}

var _ sparql.SpatialSource = (*Store)(nil)

// SpatialCandidates implements sparql.SpatialSource: it returns the
// geo:asWKT triples whose geometry envelope intersects env, straight
// from the R-tree. The spatial-join operator probes it instead of
// materializing every geometry when a join's build side is the bare
// `?g geo:asWKT ?w` scan; disk-backed stores are covered too, because
// ensureFrozen rebuilds the index after a segment reopen.
func (s *Store) SpatialCandidates(env geom.Envelope) ([]rdf.Triple, bool) {
	s.ensureFrozen()
	s.mu.RLock()
	defer s.mu.RUnlock()
	asWKT := rdf.NewIRI(geosparql.AsWKT)
	var out []rdf.Triple
	s.spatial.Search(env, func(it rtree.Item) bool {
		e := it.Data.(*GeometryEntry)
		out = append(out, rdf.NewTriple(e.Node, asWKT, e.WKT))
		return true
	})
	return out, true
}

// FeaturesIntersecting returns the features (via geo:hasGeometry) whose
// geometry intersects q, sorted by term key.
func (s *Store) FeaturesIntersecting(q geom.Geometry) []rdf.Term {
	set := map[string]rdf.Term{}
	for _, e := range s.GeometriesIntersecting(q) {
		for _, f := range e.Features {
			set[f.Key()] = f
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]rdf.Term, len(keys))
	for i, k := range keys {
		out[i] = set[k]
	}
	return out
}

// NearestGeometries returns up to k geometry entries nearest to p.
func (s *Store) NearestGeometries(p geom.Point, k int) []*GeometryEntry {
	s.ensureFrozen()
	s.mu.RLock()
	defer s.mu.RUnlock()
	items := s.spatial.Nearest(p, k)
	out := make([]*GeometryEntry, len(items))
	for i, it := range items {
		out[i] = it.Data.(*GeometryEntry)
	}
	return out
}

// ObservationsDuring returns the observations with time in [from, to] whose
// geometry intersects env (zero envelope = no spatial constraint). The
// temporal index narrows by binary search; the spatial test uses parsed
// geometries.
func (s *Store) ObservationsDuring(env geom.Envelope, from, to time.Time) []Observation {
	s.ensureFrozen()
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo := sort.Search(len(s.obs), func(i int) bool { return !s.obs[i].Time.Before(from) })
	var out []Observation
	checkSpace := !env.IsEmpty()
	for i := lo; i < len(s.obs) && !s.obs[i].Time.After(to); i++ {
		o := s.obs[i]
		if checkSpace && !env.Intersects(o.Geom.Envelope()) {
			continue
		}
		out = append(out, o)
	}
	return out
}

// TriplesValidDuring returns triples whose valid time intersects [from, to].
func (s *Store) TriplesValidDuring(from, to time.Time) []rdf.Triple {
	s.ensureFrozen()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []rdf.Triple
	for _, t := range s.validTime {
		if t.ValidFrom.After(to) {
			break
		}
		if !t.ValidTo.Before(from) {
			out = append(out, t)
		}
	}
	return out
}

// GeometryCount returns the number of spatially indexed geometries.
func (s *Store) GeometryCount() int {
	s.ensureFrozen()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.geoms)
}

// ObservationCount returns the number of spatio-temporal observations.
func (s *Store) ObservationCount() int {
	s.ensureFrozen()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.obs)
}
