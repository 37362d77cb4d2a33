// Package strabon implements the spatiotemporal RDF store of the App Lab
// stack, modeled on Strabon [Kyzirakos et al., ISWC 2012; Bereta et al.,
// ESWC 2013]: a triple store over internal/segment (an in-memory
// memtable, or a WAL and sorted runs on disk) with an R-tree over every
// geo:wktLiteral reachable through geo:asWKT.
//
// It implements sparql.Source, so the full query engine (including the
// geof:* functions) runs on top of it, and sparql.SpatialSource, through
// which the spatial join probes the R-tree.
package strabon

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"applab/internal/geom"
	"applab/internal/geom/rtree"
	"applab/internal/geosparql"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/segment"
	"applab/internal/sparql"
)

// Store is the spatiotemporal RDF store. Build it with New, fill it with
// Add/AddAll/Load, then Freeze (or just query: freezing is automatic and
// incremental indexing is handled lazily).
//
// A Store is safe for concurrent use: writes and index rebuilds take the
// write lock, queries share the read lock. A query racing a write may
// observe the index from just before the write — consistent, possibly
// one batch stale — which is the semantics the concurrent endpoint
// (internal/endpoint over one store) needs.
type Store struct {
	mu  sync.RWMutex
	eng *segment.Engine

	// dirty marks the spatial index out of date: set by a write that
	// changed a geo:asWKT triple, the only triples the index holds.
	dirty bool
	// writeErr records the first storage-engine write failure (WAL
	// append, flush); see Err.
	writeErr error
	// indexErr records the first geometry error of the last index build;
	// queries proceed over the parseable subset (see Freeze).
	indexErr error
	// spatial indexes the envelopes of the geo:asWKT triples in wkt,
	// tree id i naming wkt[i]; geometries counts their distinct subjects.
	spatial    *rtree.Tree
	wkt        []rdf.Triple
	geometries int

	// epoch counts mutations that changed data; fingerprint identifies
	// this store instance (see DataEpoch / Fingerprint).
	epoch       uint64
	fingerprint string
}

// asWKT is the predicate of the triples the spatial index holds.
var asWKT = rdf.NewIRI(geosparql.AsWKT)

// New returns an empty in-memory store. An in-memory store behaves
// exactly like the pre-engine seed store (the differential tests pin
// this); use Open for a disk-backed store.
func New() *Store {
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
		s.dirty = s.dirty || t.P == asWKT
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
		s.dirty = s.dirty || slices.ContainsFunc(ts, func(t rdf.Triple) bool { return t.P == asWKT })
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
		s.dirty = s.dirty || t.P == asWKT
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

// AppendMatch appends Match's answer to dst (segment.Engine.AppendMatch).
func (s *Store) AppendMatch(dst []rdf.Triple, sub, pred, obj rdf.Term) []rdf.Triple {
	return s.eng.AppendMatch(dst, sub, pred, obj)
}

// AppendRefs implements sparql.RefSource: scans hand the engine
// handles into the memtable graph's term table or the run dictionaries
// instead of materialized triples (segment.Engine.AppendRefs).
func (s *Store) AppendRefs(ctx context.Context, dst []rdf.Ref, sub, pred, obj rdf.Term) ([]rdf.Ref, error) {
	return s.eng.AppendRefs(ctx, dst, sub, pred, obj)
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

// Freeze (re)builds the spatial index. It is called automatically by
// SpatialCandidates and GeometryCount when the store changed. The
// returned error is the first geometry that failed to parse (the index is
// still built over the parseable subset).
func (s *Store) Freeze() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.freezeLocked()
	return s.indexErr
}

// ensureFrozen rebuilds the index if the store changed since the last
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

// freezeLocked rebuilds the spatial index when dirty; the caller holds
// the write lock.
func (s *Store) freezeLocked() {
	if !s.dirty {
		return
	}
	wkt := s.eng.Match(rdf.Term{}, asWKT, rdf.Term{})
	envs := make([]geom.Envelope, len(wkt))
	nodes := map[rdf.Term]struct{}{}
	var firstErr error
	for i, t := range wkt {
		g, err := geosparql.ParseGeometryTerm(t.O)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("strabon: geometry of %s: %v", t.S, err)
			}
			envs[i] = geom.EmptyEnvelope()
			continue
		}
		nodes[t.S] = struct{}{}
		envs[i] = g.Envelope()
	}
	s.spatial, s.wkt = rtree.Bulk(envs), wkt
	s.geometries = len(nodes)
	s.dirty = false
	s.indexErr = firstErr
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
	ids := s.spatial.Search(env, nil)
	out := make([]rdf.Triple, len(ids))
	for i, id := range ids {
		out[i] = s.wkt[id]
	}
	return out, true
}

// GeometryCount returns the number of spatially indexed geometries.
func (s *Store) GeometryCount() int {
	s.ensureFrozen()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.geometries
}
