package obda

import (
	"context"
	"strings"
	"sync"
	"time"

	"applab/internal/netcdf"
	"applab/internal/opendap"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// AdaptiveGraph makes the paper's materialized-vs-on-the-fly choice
// (Strabon vs OBDA over OPeNDAP, §3) dynamic. It serves queries from
// the virtual graph while tracking hot `opendap(url, window)` regions
// through the adapter's OnTable hook; once every tracked region has
// been used PromoteAfter times, the whole virtual view is materialized
// into a local segment-backed strabon.Store in the background (the
// virtual path keeps serving meanwhile — nothing blocks on promotion)
// and subsequent queries run against the local copy with zero upstream
// calls. Promoted regions are lazily revalidated against an upstream
// content stamp every RevalidateEvery; drift demotes back to the
// virtual path and the use counters start over.
//
// Region granularity is used for counting and revalidation; the
// materialization itself is whole-graph (all mappings), which keeps the
// local copy consistent with what the virtual path would serve — both
// are built through the same adapter regions.
type AdaptiveGraph struct {
	vg       *VirtualGraph
	adapter  *OpendapAdapter
	promoter *rescache.Promoter

	// StampFn overrides upstream drift detection (defaults to
	// adapter.UpstreamStamp). Set before the first query.
	StampFn func(region string) (string, error)

	mu          sync.Mutex
	local       *strabon.Store // nil until a promotion completes
	fingerprint string
}

// NewAdaptiveGraph wires an adaptive graph over vg and its adapter:
// promotion after promoteAfter uses per region, revalidation every
// revalidate (0 disables demotion). The adapter's OnTable hook is
// claimed by this graph.
func NewAdaptiveGraph(vg *VirtualGraph, adapter *OpendapAdapter, promoteAfter int, revalidate time.Duration) *AdaptiveGraph {
	ag := &AdaptiveGraph{
		vg:          vg,
		adapter:     adapter,
		fingerprint: rescache.NextFingerprint("adaptive"),
	}
	p := rescache.NewPromoter(promoteAfter, revalidate)
	p.Promote = ag.promote
	p.Check = ag.stamp
	p.OnDemote = func(string) { ag.dropLocal() }
	ag.promoter = p
	adapter.OnTable = p.Note
	return ag
}

// SetClock installs a fake clock on the promoter and adapter (tests).
func (ag *AdaptiveGraph) SetClock(now func() time.Time) {
	ag.promoter.Now = now
	ag.adapter.Now = now
}

// SetMetrics routes promotion_* counters into reg.
func (ag *AdaptiveGraph) SetMetrics(reg *telemetry.Registry) {
	ag.promoter.Metrics = reg
}

// Promoter exposes the underlying state machine (tests, cmds).
func (ag *AdaptiveGraph) Promoter() *rescache.Promoter { return ag.promoter }

// Quiesce waits for in-flight background promotions (deterministic
// tests; no real sleeps anywhere in the machinery).
func (ag *AdaptiveGraph) Quiesce() { ag.promoter.Quiesce() }

// Promoted reports whether queries are currently served from the local
// materialized copy.
func (ag *AdaptiveGraph) Promoted() bool {
	if !ag.promoter.Promoted() {
		return false
	}
	ag.mu.Lock()
	defer ag.mu.Unlock()
	return ag.local != nil
}

func (ag *AdaptiveGraph) stamp(region string) (string, error) {
	if ag.StampFn != nil {
		return ag.StampFn(region)
	}
	return ag.adapter.UpstreamStamp(region)
}

// promote materializes the whole virtual view into a fresh local store.
// It runs on the promoter's background goroutine; the stamp is read
// before the snapshot so content changing mid-promotion is caught by
// the first revalidation.
func (ag *AdaptiveGraph) promote(region string) (string, error) {
	stamp, err := ag.stamp(region)
	if err != nil {
		return "", err
	}
	ag.vg.Invalidate()
	g, err := ag.vg.Snapshot()
	if err != nil {
		return "", err
	}
	st := strabon.New()
	st.AddAll(g.Triples())
	if err := st.Err(); err != nil {
		_ = st.Close()
		return "", err
	}
	ag.mu.Lock()
	ag.local = st
	ag.mu.Unlock()
	return stamp, nil
}

func (ag *AdaptiveGraph) dropLocal() {
	ag.mu.Lock()
	ag.local = nil
	ag.mu.Unlock()
}

// serving returns the local store when fully promoted, else nil.
func (ag *AdaptiveGraph) serving() *strabon.Store {
	if !ag.promoter.Promoted() {
		return nil
	}
	ag.mu.Lock()
	defer ag.mu.Unlock()
	return ag.local
}

// Match implements sparql.Source.
func (ag *AdaptiveGraph) Match(s, p, o rdf.Term) []rdf.Triple {
	if st := ag.serving(); st != nil {
		return st.Match(s, p, o)
	}
	return ag.vg.Match(s, p, o)
}

// MatchErr implements sparql.ErrorSource.
func (ag *AdaptiveGraph) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	return ag.MatchContext(context.Background(), s, p, o)
}

// MatchContext implements sparql.ContextSource.
func (ag *AdaptiveGraph) MatchContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, error) {
	if st := ag.serving(); st != nil {
		return st.Match(s, p, o), nil
	}
	return ag.vg.MatchContext(ctx, s, p, o)
}

// AppendRefs implements sparql.RefSource over whichever of the local
// copy and the virtual graph is serving; both hand out refs into term
// tables that are never written again.
func (ag *AdaptiveGraph) AppendRefs(ctx context.Context, dst []rdf.Ref, s, p, o rdf.Term) ([]rdf.Ref, error) {
	if st := ag.serving(); st != nil {
		return st.AppendRefs(ctx, dst, s, p, o)
	}
	return ag.vg.AppendRefs(ctx, dst, s, p, o)
}

// Invalidate lets the endpoint's per-evaluation refresh hook reach the
// wrapped virtual graph: while virtual, the snapshot is dropped so the
// next evaluation re-executes mapping sources (the adapter's windows
// decide what is actually refetched, and each execution feeds
// the promoter's use counters). Once promoted the local copy is
// canonical until revalidation demotes it — nothing to refresh.
func (ag *AdaptiveGraph) Invalidate() {
	if ag.serving() == nil {
		ag.vg.Invalidate()
	}
}

// Cardinality implements sparql.StatsSource.
func (ag *AdaptiveGraph) Cardinality(s, p, o rdf.Term) int {
	if st := ag.serving(); st != nil {
		return st.Cardinality(s, p, o)
	}
	return ag.vg.Cardinality(s, p, o)
}

// DataEpoch implements rescache.Epocher: the promoter's flip counter
// plus the virtual graph's rebuild count. Both components are monotonic,
// so the sum moves on every serving-mode flip and on every view rebuilt
// from changed content while virtual; a fetch of unchanged content moves
// neither. The local copy is immutable once built, so it contributes
// nothing.
func (ag *AdaptiveGraph) DataEpoch() uint64 {
	return ag.promoter.Epoch() + ag.vg.DataEpoch()
}

// EpochAdvancesOnEval marks the adaptive graph for fill-time epoch
// capture, like the virtual graph it wraps.
func (ag *AdaptiveGraph) EpochAdvancesOnEval() {}

// Fingerprint implements rescache.Fingerprinter.
func (ag *AdaptiveGraph) Fingerprint() string { return ag.fingerprint }

// LastError surfaces the virtual path's last snapshot failure.
func (ag *AdaptiveGraph) LastError() error { return ag.vg.LastError() }

// Query evaluates a query, virtual or local depending on promotion
// state. The virtual path re-executes mapping sources (QueryContext
// semantics); the local path evaluates directly.
func (ag *AdaptiveGraph) Query(q string) (*sparql.Results, error) {
	return ag.QueryContext(context.Background(), q)
}

// QueryContext is Query under a context.
func (ag *AdaptiveGraph) QueryContext(ctx context.Context, q string) (*sparql.Results, error) {
	if st := ag.serving(); st != nil {
		query, err := sparql.Parse(q)
		if err != nil {
			return nil, err
		}
		return query.EvalContext(ctx, st)
	}
	return ag.vg.QueryContext(ctx, q)
}

// UpstreamStamp fetches the region's dataset directly from the OPeNDAP
// client — bypassing the adapter's regions, so revalidation neither
// counts as a physical fetch nor refreshes a window — and returns a hash
// of everything the virtual table reads of it: the variable's values,
// its shape, the lat/lon axes and the time axis with its units. This is
// the default drift-detection stamp of the promoter.
func (a *OpendapAdapter) UpstreamStamp(region string) (string, error) {
	spec := region
	if i := strings.LastIndex(spec, "?w="); i >= 0 {
		spec = spec[:i]
	}
	dataset, varName, err := parseDatasetArg(spec)
	if err != nil {
		return "", err
	}
	ds, err := a.client.Fetch(dataset, opendap.Constraint{Var: varName})
	if err != nil {
		return "", err
	}
	g, err := netcdf.ReadGrid(ds, varName)
	if err != nil {
		return "", err
	}
	return g.Stamp(), nil
}
