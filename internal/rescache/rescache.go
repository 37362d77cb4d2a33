// Package rescache is a query-result cache keyed by a source fingerprint
// and the exact query text the parser read (sparql.Query.Text). Map
// clients repeat byte-identical queries, so the text is identity enough;
// two spellings of one query get two entries. Entries are validated
// against the source's data epoch — a monotonic counter the source bumps
// on every mutation — so ingest invalidates cached answers without any
// explicit hook call. Sources that expose no epoch fall back to a TTL
// bound.
//
// Correctness contract:
//
//   - A hit returns exactly what a fresh evaluation of the same text
//     would return at that epoch: the same rows in the same order.
//   - Queries built in code (empty Text) and sources without a
//     Fingerprinter bypass the cache.
//   - For an Epocher source the epoch is read BEFORE evaluation and
//     stored with the entry. If a write lands mid-evaluation the stored
//     epoch is already behind, so the entry can never validate — torn
//     reads are conservatively treated as stale.
//   - A source whose evaluation itself advances the epoch (the OBDA
//     virtual graph refreshes its window cache inside eval) declares
//     that with EvalEpocher; for those the epoch is captured at Fill
//     time instead. That is sound because such evaluations are
//     serialized by the source and are a pure function of its state.
//   - Cached *sparql.Results are shared read-only. Callers must not
//     mutate a returned result set.
package rescache

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// Epocher is implemented by sources whose data version is observable as
// a monotonic counter.
type Epocher interface {
	DataEpoch() uint64
}

// Fingerprinter distinguishes source *instances*. A fingerprint must be
// unique per logical dataset instance: reopening a store from disk must
// yield a fresh fingerprint (epochs restart at zero, so stale entries
// from the previous instance must be unreachable).
type Fingerprinter interface {
	Fingerprint() string
}

// EvalEpocher marks sources whose evaluation advances their own epoch
// (e.g. a virtual graph that refreshes its backing cache during eval).
// For these the cache captures the epoch after evaluation, at Fill time.
type EvalEpocher interface {
	Epocher
	EpochAdvancesOnEval()
}

// Status classifies a Lookup outcome.
type Status int

const (
	// Bypass: the cache declined (nil cache, uncacheable query/source).
	Bypass Status = iota
	// Miss: no valid entry; caller should evaluate and Fill.
	Miss
	// Hit: a validated entry was returned.
	Hit
	// Stale: an entry exists but failed validation (epoch moved or TTL
	// expired). Lookup treats it as a miss; LookupStale serves it.
	Stale
)

func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Stale:
		return "stale"
	default:
		return "bypass"
	}
}

// instanceSeq feeds process-unique fallback fingerprints.
var instanceSeq atomic.Uint64

// NextFingerprint returns a process-unique fingerprint with the given
// prefix. Sources use it to mint per-instance identities.
func NextFingerprint(prefix string) string {
	return prefix + "-" + strconv.FormatUint(instanceSeq.Add(1), 10)
}

// key identifies an entry: the source instance and the query text.
type key struct{ fp, text string }

type entry struct {
	res      *sparql.Results
	epoch    uint64
	hasEpoch bool
	filledAt time.Time
	cost     int64
	elem     *list.Element
}

// Fill stores an evaluation result for the key that missed. A zero Fill
// (from a Bypass) is a no-op.
type Fill struct {
	c     *Cache
	key   key
	src   sparql.Source
	epoch uint64 // pre-read epoch (ignored for EvalEpocher sources)
	has   bool
	eval  bool // capture epoch at Fill time (EvalEpocher)
}

// Cache is a bounded, LRU-evicting, epoch-validated result cache. The
// zero value is not usable; call New.
type Cache struct {
	capacity int
	ttl      time.Duration

	// Now is the clock used for TTL checks; defaults to time.Now.
	// Swap for a fake clock in tests.
	Now func() time.Time

	// Metrics, when set, records cache_* counters.
	Metrics *telemetry.Registry

	mu       sync.Mutex
	entries  map[key]*entry
	lru      *list.List // front = most recent; values are keys
	maxBytes int64
	bytes    int64
}

// New returns a cache holding at most capacity entries, each valid for
// at most ttl (ttl <= 0 means no TTL bound for epoch-validated entries
// and a 1-minute default bound for epochless ones).
func New(capacity int, ttl time.Duration) *Cache {
	if capacity <= 0 {
		capacity = 256
	}
	return &Cache{
		capacity: capacity,
		ttl:      ttl,
		Now:      time.Now,
		entries:  make(map[key]*entry),
		lru:      list.New(),
	}
}

const epochlessTTL = time.Minute

// SetMaxBytes bounds the cache by total entry cost (the encoded answer
// size, see EncodedSize) in addition to the entry-count capacity.
// n <= 0 removes the byte bound. Shrinking below the current residency
// evicts from the LRU tail immediately.
func (c *Cache) SetMaxBytes(n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.maxBytes = n
	c.evictLocked()
	resident := len(c.entries)
	bytes := c.bytes
	c.mu.Unlock()
	c.setEntries(resident)
	c.setBytes(bytes)
}

// MaxBytes reports the current byte budget (0 = unbounded).
func (c *Cache) MaxBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxBytes
}

// Bytes reports the summed cost of resident entries.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// evictLocked pops LRU-tail entries until both bounds hold. A single
// entry costing more than the whole byte budget is evicted too: the
// cache honors its budget rather than pinning one oversized answer.
func (c *Cache) evictLocked() {
	for len(c.entries) > c.capacity || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		back := c.lru.Back()
		if back == nil {
			break
		}
		k := back.Value.(key)
		c.lru.Remove(back)
		c.bytes -= c.entries[k].cost
		delete(c.entries, k)
		c.noteEviction()
	}
}

// EncodedSize is the byte-budget cost of a result set: the size of its
// answer encoded in the compact form `var=value` per cell plus row
// framing — a stable, allocation-free stand-in for the serialized
// response size.
func EncodedSize(res *sparql.Results) int64 {
	if res == nil {
		return 0
	}
	const cellOverhead, rowOverhead = 4, 8
	n := int64(rowOverhead) // Bool / head framing
	for _, v := range res.Vars {
		n += int64(len(v)) + cellOverhead
	}
	for _, r := range res.Bindings {
		n += rowOverhead
		for j, t := range r {
			if t != nil {
				n += int64(len(res.Cols[j])+len(t.Value)+len(t.Datatype)+len(t.Lang)) + cellOverhead
			}
		}
	}
	for _, t := range res.Graph {
		n += rowOverhead
		n += int64(len(t.S.Value) + len(t.P.Value) + len(t.O.Value) + len(t.O.Datatype) + len(t.O.Lang))
	}
	return n
}

// keyOf derives the cache key for a query against a source; ok is false
// when the pair is not cacheable (no text, or no fingerprint — identity
// unknown).
func keyOf(q *sparql.Query, src sparql.Source) (k key, ok bool) {
	fp, isFP := src.(Fingerprinter)
	if !isFP || q.Text == "" {
		return key{}, false
	}
	return key{fp: fp.Fingerprint(), text: q.Text}, true
}

// Lookup checks for a cached answer to q over src. On Hit the returned
// results are ready to serve. On Miss/Stale/Bypass the caller evaluates
// and, for Miss/Stale, calls Fill.Store with the fresh result.
func (c *Cache) Lookup(q *sparql.Query, src sparql.Source) (*sparql.Results, Fill, Status) {
	if c == nil {
		return nil, Fill{}, Bypass
	}
	k, ok := keyOf(q, src)
	if !ok {
		c.noteBypass()
		return nil, Fill{}, Bypass
	}

	fill := Fill{c: c, key: k, src: src}
	if _, ok := src.(EvalEpocher); ok {
		fill.eval = true
	} else if ep, ok := src.(Epocher); ok {
		fill.epoch = ep.DataEpoch()
		fill.has = true
	}

	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		c.mu.Unlock()
		c.noteMiss()
		return nil, fill, Miss
	}
	if !c.validLocked(e, src) {
		c.mu.Unlock()
		c.noteStale()
		return nil, fill, Stale
	}
	c.lru.MoveToFront(e.elem)
	res := e.res
	c.mu.Unlock()
	c.noteHit()
	return res, fill, Hit
}

// LookupStale returns a cached entry even if its epoch is behind or its
// TTL has lapsed — the degraded-serving path. It never returns entries
// from a different source instance (fingerprints see to that).
func (c *Cache) LookupStale(q *sparql.Query, src sparql.Source) (*sparql.Results, bool) {
	if c == nil {
		return nil, false
	}
	k, ok := keyOf(q, src)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	res := e.res
	c.mu.Unlock()
	c.noteStaleServed()
	return res, true
}

// validLocked reports whether e is still serveable as fresh.
func (c *Cache) validLocked(e *entry, src sparql.Source) bool {
	if e.hasEpoch {
		ep, ok := src.(Epocher)
		if !ok || ep.DataEpoch() != e.epoch {
			return false
		}
		if c.ttl > 0 && c.Now().Sub(e.filledAt) >= c.ttl {
			return false
		}
		return true
	}
	ttl := c.ttl
	if ttl <= 0 {
		ttl = epochlessTTL
	}
	return c.Now().Sub(e.filledAt) < ttl
}

// Store detaches res (see detach) and records it for the looked-up key.
// A partial answer (Results.Partial) stores nothing: it would shadow
// the full answer of a later healthy evaluation until it expired.
// Concurrent fills of the same key are last-write-wins; both results are
// correct answers for their respective epochs, and validation re-checks
// on every hit.
func (f Fill) Store(res *sparql.Results) {
	if f.c == nil || res == nil || res.Partial {
		return
	}
	detach(res)
	e := &entry{res: res, epoch: f.epoch, hasEpoch: f.has, filledAt: f.c.Now(), cost: EncodedSize(res)}
	if f.eval {
		if ep, ok := f.src.(Epocher); ok {
			e.epoch = ep.DataEpoch()
			e.hasEpoch = true
		}
	}
	c := f.c
	c.mu.Lock()
	if old, ok := c.entries[f.key]; ok {
		c.lru.Remove(old.elem)
		c.bytes -= old.cost
	}
	e.elem = c.lru.PushFront(f.key)
	c.entries[f.key] = e
	c.bytes += e.cost
	c.evictLocked()
	n := len(c.entries)
	bytes := c.bytes
	c.mu.Unlock()
	c.noteFill()
	c.setEntries(n)
	c.setBytes(bytes)
}

// detach points every cell of res at a copy of its term in one block
// res owns. The engine's rows point where it found each term — a run's
// dictionary, a view's term table — and an entry may outlive both, so a
// cached answer copies its terms rather than pinning their stores.
func detach(res *sparql.Results) {
	terms := make([]rdf.Term, 0, len(res.Bindings)*len(res.Cols))
	for _, r := range res.Bindings {
		for j, t := range r {
			if t != nil {
				terms = append(terms, *t)
				r[j] = &terms[len(terms)-1]
			}
		}
	}
}

// Len reports the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every entry.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = make(map[key]*entry)
	c.lru.Init()
	c.bytes = 0
	c.mu.Unlock()
	c.setEntries(0)
	c.setBytes(0)
}
