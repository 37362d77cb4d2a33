// Package telemetry is the observability substrate of the stack: a
// zero-dependency metrics registry (atomic counters, gauges, callback
// gauges, fixed-bucket histograms) plus context-propagated request
// spans (see span.go) and HTTP exposition (see handler.go).
//
// The paper's on-the-fly workflow lives or dies by runtime behaviour —
// cache-window hit rates, OPeNDAP link latency, the 1-2
// orders-of-magnitude query-time gap of §5 — so every hot path of the
// stack (opendap.Client, the opendap virtual table, federation fan-outs,
// the compiled SPARQL engine, the Strabon stores, endpoint.Handler)
// reports here.
//
// Design rules:
//
//   - Metric names are lowercase_snake and registered at one call site
//     per package (enforced by the applab-lint telemetry checker).
//     Registration is get-or-create: asking for an existing series
//     returns the same handle; asking for it as a different kind (or a
//     histogram with different buckets) panics, the moral equivalent of
//     Prometheus' duplicate-MustRegister panic.
//   - Series = name + sorted label pairs. Labels are variadic
//     "key", "value" strings; the rendered key ordering is
//     deterministic, so Snapshot output is directly assertable.
//   - Updates are single atomic operations; none of the handle methods
//     take the registry lock, so counters can be bumped while holding
//     unrelated locks without ordering concerns.
//   - All handle types are nil-safe: a nil *Registry hands out nil
//     handles whose methods no-op, so instrumented code needs no "is
//     telemetry on" branches.
//   - Time never comes from the wall clock directly: durations are
//     computed by callers through their own Now hooks, and the
//     registry's Now field (used for traces) accepts the fake clock of
//     internal/faults, so every histogram and span duration is exactly
//     testable with zero real sleeps.
package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// DefBuckets is the default latency histogram layout (seconds), tuned
// to the OPeNDAP/federation request range: sub-millisecond loopback
// fetches up to multi-second WAN links and timeouts.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Registry holds a flat namespace of metric series and a ring of recent
// traces. The zero value is not usable; call NewRegistry.
type Registry struct {
	// Now is the trace clock; time.Now when nil. Tests install
	// faults.Clock.Now so span durations are exact.
	Now func() time.Time

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	histograms map[string]*Histogram
	kinds      map[string]string // series key -> kind, for conflict panics

	traceMu sync.Mutex
	traces  []*Trace // ring, most recent last
}

// maxTraces bounds the /debug/applab recent-trace ring.
const maxTraces = 16

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() float64{},
		histograms: map[string]*Histogram{},
		kinds:      map[string]string{},
	}
}

func (r *Registry) now() time.Time {
	if r != nil && r.Now != nil {
		return r.Now()
	}
	return time.Now()
}

// Time reads the registry's clock (the Now hook, or the wall clock).
// Nil-safe; instrumented code uses it to timestamp spans so a fake
// clock governs every duration.
func (r *Registry) Time() time.Time { return r.now() }

// validName reports whether s is lowercase_snake: [a-z][a-z0-9_]*.
func validName(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// keyBuf is the stack buffer a series lookup renders its key into; a
// lookup of an existing series converts it to a string only for the map
// index, which allocates nothing.
type keyBuf [128]byte

// seriesKey renders name plus sorted label pairs into the canonical
// series key ("name" or `name{k1="v1",k2="v2"}`), validating the name
// and label keys. Label values are escaped like Prometheus text format.
func seriesKey(name string, labels []string) string {
	var kb keyBuf
	return string(appendSeriesKey(kb[:0], name, labels))
}

// appendSeriesKey appends the series key of name + labels to dst. Pairs
// are ordered by key with an insertion sort (stable, as sort.Slice is at
// the sizes a label list has), over an index array on the stack for up
// to 8 pairs.
func appendSeriesKey(dst []byte, name string, labels []string) []byte {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: metric name %q is not lowercase_snake", name))
	}
	if len(labels)%2 != 0 {
		// Format a copy: handing labels itself to fmt would move every
		// caller's variadic label array to the heap.
		panic(fmt.Sprintf("telemetry: metric %s: odd label list %q", name, slices.Clone(labels)))
	}
	dst = append(dst, name...)
	if len(labels) == 0 {
		return dst
	}
	var stack [8]int
	order := stack[:0]
	if len(labels)/2 > len(stack) {
		order = make([]int, 0, len(labels)/2)
	}
	for i := 0; i < len(labels); i += 2 {
		if !validName(labels[i]) {
			panic(fmt.Sprintf("telemetry: metric %s: label key %q is not lowercase_snake", name, labels[i]))
		}
		order = append(order, i)
		for j := len(order) - 1; j > 0 && labels[order[j]] < labels[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	dst = append(dst, '{')
	for n, i := range order {
		if n > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, labels[i]...)
		dst = append(dst, `="`...)
		dst = appendLabelValue(dst, labels[i+1])
		dst = append(dst, '"')
	}
	return append(dst, '}')
}

// appendLabelValue appends a label value escaped for the text format.
// Values that need escaping are re-encoded rune by rune, so invalid
// UTF-8 comes out as U+FFFD.
func appendLabelValue(dst []byte, v string) []byte {
	if !strings.ContainsAny(v, "\\\"\n") {
		return append(dst, v...)
	}
	for _, c := range v {
		switch c {
		case '\\':
			dst = append(dst, `\\`...)
		case '"':
			dst = append(dst, `\"`...)
		case '\n':
			dst = append(dst, `\n`...)
		default:
			dst = utf8.AppendRune(dst, c)
		}
	}
	return dst
}

// checkKind records (or verifies) the kind of a series key. Callers
// hold r.mu.
func (r *Registry) checkKind(key, kind string) {
	if have, ok := r.kinds[key]; ok && have != kind {
		panic(fmt.Sprintf("telemetry: series %s already registered as a %s, requested as a %s", key, have, kind))
	}
	r.kinds[key] = kind
}

// Counter returns (registering on first use) the counter series for
// name + labels. Nil-safe: a nil registry returns a nil no-op handle.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, r.counters, "counter", name, labels, func() *Counter { return &Counter{} })
}

// Gauge returns (registering on first use) the gauge series for
// name + labels. Nil-safe.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, r.gauges, "gauge", name, labels, func() *Gauge { return &Gauge{} })
}

// lookup returns the series of name + labels in m, registering mk()
// under the write lock on first use. The key is rendered on the stack
// and becomes a string only when the series is new, so looking up an
// existing series allocates nothing.
func lookup[T any](r *Registry, m map[string]*T, kind, name string, labels []string, mk func() *T) *T {
	var kb keyBuf
	key := appendSeriesKey(kb[:0], name, labels)
	r.mu.RLock()
	s := m[string(key)]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := m[string(key)]; s != nil {
		return s
	}
	k := string(key)
	r.checkKind(k, kind)
	s = mk()
	m[k] = s
	return s
}

// GaugeFunc registers a callback gauge evaluated at snapshot time —
// the zero-write-overhead shape for values the owner already tracks
// (store triple counts, shard sizes). Unlike the other constructors it
// panics on duplicate registration: two callbacks for one series
// cannot be merged. Nil-safe: a nil registry ignores the registration.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.gaugeFuncs[key]; dup {
		panic(fmt.Sprintf("telemetry: gauge func %s registered twice", key))
	}
	r.checkKind(key, "gauge_func")
	r.gaugeFuncs[key] = fn
}

// Histogram returns (registering on first use) the histogram series for
// name + labels. buckets are cumulative upper bounds in ascending
// order; nil selects DefBuckets. Re-registration with different buckets
// panics. Nil-safe.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	h := lookup(r, r.histograms, "histogram", name, labels, func() *Histogram { return newHistogram(buckets) })
	if !slices.Equal(h.bounds, buckets) {
		key := seriesKey(name, labels)
		if len(h.bounds) != len(buckets) {
			panic(fmt.Sprintf("telemetry: histogram %s re-registered with %d buckets, have %d", key, len(buckets), len(h.bounds)))
		}
		panic(fmt.Sprintf("telemetry: histogram %s re-registered with different buckets", key))
	}
	return h
}

// ---- handle types ----

// Counter is a monotonically increasing series. The nil handle no-ops.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for the nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a series that can go up and down. The nil handle no-ops.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value (0 for the nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. The nil handle no-ops.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // one per bound; values above the last bound land in the implicit +Inf bucket
	inf     atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.count.Add(1)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ---- snapshots ----

// HistogramSnapshot is one histogram's frozen state. Counts are
// per-bucket (not cumulative); Buckets holds the upper bounds.
type HistogramSnapshot struct {
	Buckets []float64 `json:"buckets"`
	Counts  []int64   `json:"counts"`
	Inf     int64     `json:"inf"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
}

// Snapshot is the deterministic frozen state of a registry: maps keyed
// by the canonical series key (labels sorted), with callback gauges
// evaluated at snapshot time.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry. Nil-safe: a nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g
	}
	gfuncs := make(map[string]func() float64, len(r.gaugeFuncs))
	for k, fn := range r.gaugeFuncs {
		gfuncs[k] = fn
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, h := range r.histograms {
		hists[k] = h
	}
	r.mu.RUnlock()
	// Callback gauges run outside the registry lock: they may take the
	// owner's lock (store sizes), and that owner may bump counters.
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, fn := range gfuncs {
		snap.Gauges[k] = fn()
	}
	for k, h := range hists {
		hs := HistogramSnapshot{
			Buckets: append([]float64(nil), h.bounds...),
			Counts:  make([]int64, len(h.counts)),
			Inf:     h.inf.Load(),
			Count:   h.count.Load(),
			Sum:     math.Float64frombits(h.sumBits.Load()),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		snap.Histograms[k] = hs
	}
	return snap
}

// sortedKeys returns the map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
