package obda

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"applab/internal/admission"
	"applab/internal/madis"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// VirtualGraph exposes a set of mappings over a MadIS database as a
// sparql.Source. No triples are stored: each query evaluation (or explicit
// Snapshot call) runs the mapping sources against the backend — when a
// source uses the opendap virtual table, that means live calls to the
// OPeNDAP server, moderated only by the adapter's window cache, exactly the
// behaviour the paper measures in §5 ("when the data gets downloaded at
// query-time...").
//
// Executing the sources is a revalidation of the RDF view, not a rebuild
// of it. MadIS tables are immutable, so the relation a mapping's FROM
// clause resolved to is identified by its pointer, and the view is derived
// again only when some mapping resolved to another relation than the one
// the last view was built from. Otherwise the same immutable graph is
// published again (DESIGN.md §17).
type VirtualGraph struct {
	db       *madis.DB
	mappings []Mapping

	// EpochFn, when set, supplies the upstream data epoch (typically
	// OpendapAdapter.Generation) folded into DataEpoch. Set before the
	// first query.
	EpochFn func() uint64

	// Metrics, when set, counts view rebuilds and reuses. Set before the
	// first query.
	Metrics *telemetry.Registry

	mu          sync.Mutex
	stmts       []*madis.Stmt  // mapping sources, prepared on first use
	snap        *rdf.Graph     // published view; nil = stale
	view        *rdf.Graph     // last view built, kept across Invalidate
	bases       []*madis.Table // source relations view was built from
	lastErr     error          // most recent Snapshot failure; nil after success
	evals       uint64         // successful revalidations (DataEpoch fallback)
	fingerprint string
}

// NewVirtualGraph builds a virtual graph over db with the given mappings.
func NewVirtualGraph(db *madis.DB, mappings []Mapping) *VirtualGraph {
	return &VirtualGraph{db: db, mappings: mappings, stmts: make([]*madis.Stmt, len(mappings)),
		fingerprint: rescache.NextFingerprint("obda")}
}

// Invalidate marks the view stale so the next query re-executes the
// mapping sources.
func (vg *VirtualGraph) Invalidate() {
	vg.mu.Lock()
	defer vg.mu.Unlock()
	vg.snap = nil
}

// Snapshot returns the RDF view, executing every mapping source first if
// the view is stale. The graph is shared with every other caller and with
// later evaluations: it is read-only.
func (vg *VirtualGraph) Snapshot() (*rdf.Graph, error) {
	return vg.SnapshotContext(context.Background())
}

// SnapshotContext is Snapshot with cooperative cancellation: between
// mapping sources (each potentially a live OPeNDAP call through the
// SQL layer) it polls ctx and the attached admission budget, so an
// over-deadline query stops before the next expensive fetch instead of
// executing the rest of the sources. An abort is not recorded in
// LastError — the source is fine, the query ran out of budget. A failed
// or aborted revalidation publishes nothing; the previous view is never
// served in its place.
func (vg *VirtualGraph) SnapshotContext(ctx context.Context) (*rdf.Graph, error) {
	vg.mu.Lock()
	defer vg.mu.Unlock()
	if vg.snap != nil {
		return vg.snap, nil
	}
	fail := func(m Mapping, err error) (*rdf.Graph, error) {
		vg.lastErr = fmt.Errorf("obda: mapping %s: %v", m.ID, err)
		return nil, vg.lastErr
	}
	bases := make([]*madis.Table, len(vg.mappings))
	for i, m := range vg.mappings {
		if err := admission.Check(ctx); err != nil {
			return nil, err
		}
		if vg.stmts[i] == nil {
			stmt, err := vg.db.Prepare(m.Source)
			if err != nil {
				return fail(m, err)
			}
			vg.stmts[i] = stmt
		}
		base, err := vg.stmts[i].Base()
		if err != nil {
			return fail(m, err)
		}
		bases[i] = base
	}
	if vg.view == nil || !slices.Equal(bases, vg.bases) {
		// Filter every source first: the graph is then sized once, for
		// all the triples the rows can produce.
		tables := make([]*madis.Table, len(bases))
		size := 0
		for i, m := range vg.mappings {
			table, err := vg.stmts[i].Over(bases[i])
			if err != nil {
				return fail(m, err)
			}
			tables[i] = table
			size += len(table.Rows) * len(m.Target)
		}
		g := rdf.NewGraphSized(size)
		seq := 0
		for i, m := range vg.mappings {
			seq = m.materialize(g, tables[i], seq)
		}
		vg.view, vg.bases = g, bases
		vg.noteRebuild()
	} else {
		vg.noteReuse()
	}
	vg.snap = vg.view
	vg.lastErr = nil
	vg.evals++
	return vg.snap, nil
}

// Match implements sparql.Source over the current snapshot (building it on
// first use). An upstream failure (e.g. the OPeNDAP server behind the
// opendap virtual table is down) yields empty results here — the Source
// contract has no error channel — but is retained for LastError and
// surfaced by MatchErr, so callers never mistake an outage for an empty
// dataset.
func (vg *VirtualGraph) Match(s, p, o rdf.Term) []rdf.Triple {
	triples, err := vg.MatchErr(s, p, o)
	if err != nil {
		return nil
	}
	return triples
}

// MatchErr implements sparql.ErrorSource: Match with mapping-source
// failures surfaced instead of swallowed. The federation engine uses it
// to report a broken OBDA member rather than treating it as empty.
func (vg *VirtualGraph) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	g, err := vg.Snapshot()
	if err != nil {
		return nil, err
	}
	return g.Match(s, p, o), nil
}

// MatchContext implements sparql.ContextSource: pattern scans check the
// context and budget before touching (or building) the snapshot, so the
// compiled engine's budgeted evaluation path cancels OBDA queries
// between mapping executions.
func (vg *VirtualGraph) MatchContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, error) {
	if err := admission.Check(ctx); err != nil {
		return nil, err
	}
	g, err := vg.SnapshotContext(ctx)
	if err != nil {
		return nil, err
	}
	return g.Match(s, p, o), nil
}

// Cardinality implements sparql.StatsSource over the current snapshot.
// It never triggers mapping execution: with no snapshot materialized it
// reports unknown (-1) and the planner keeps textual pattern order, so
// statistics stay side-effect free for on-the-fly queries.
func (vg *VirtualGraph) Cardinality(s, p, o rdf.Term) int {
	vg.mu.Lock()
	snap := vg.snap
	vg.mu.Unlock()
	if snap == nil {
		return -1
	}
	return snap.Cardinality(s, p, o)
}

// DataEpoch implements rescache.Epocher. With EpochFn wired (usually to
// the OPeNDAP adapter's Generation) the epoch moves exactly when
// upstream content may have changed, so cached answers survive window
// -cache hits; without it every revalidation counts, whether or not it
// rebuilt the view — safe but never validating across the Invalidate
// each query performs.
func (vg *VirtualGraph) DataEpoch() uint64 {
	vg.mu.Lock()
	evals := vg.evals
	fn := vg.EpochFn
	vg.mu.Unlock()
	if fn != nil {
		return fn()
	}
	return evals
}

// EpochAdvancesOnEval marks the virtual graph as a self-mutating source
// for rescache: evaluating a query itself refreshes the window cache
// and may advance the epoch, so result-cache fills capture the epoch
// after evaluation (sound — snapshot builds are serialized under vg.mu
// and are a pure function of backend state).
func (vg *VirtualGraph) EpochAdvancesOnEval() {}

// Fingerprint implements rescache.Fingerprinter (per-instance identity).
func (vg *VirtualGraph) Fingerprint() string {
	return vg.fingerprint
}

// LastError reports the most recent snapshot failure (nil once a
// snapshot succeeds). Callers of the plain Source interface check it to
// distinguish "no data" from "source down".
func (vg *VirtualGraph) LastError() error {
	vg.mu.Lock()
	defer vg.mu.Unlock()
	return vg.lastErr
}

// Query evaluates a GeoSPARQL query on-the-fly: the mapping sources are
// re-executed (subject to any adapter caches below the SQL layer), then the
// query runs over the transient view.
func (vg *VirtualGraph) Query(q string) (*sparql.Results, error) {
	return vg.QueryContext(context.Background(), q)
}

// QueryContext is Query under a context: with an admission.Budget
// attached (admission.WithBudget) the snapshot build and the query
// evaluation both stop cooperatively on cancellation, deadline expiry
// or budget violation, returning the structured budget error.
func (vg *VirtualGraph) QueryContext(ctx context.Context, q string) (*sparql.Results, error) {
	vg.Invalidate()
	if _, err := vg.SnapshotContext(ctx); err != nil {
		return nil, err
	}
	query, err := sparql.Parse(q)
	if err != nil {
		return nil, err
	}
	return query.EvalContext(ctx, vg)
}

// QueryCached evaluates a query against the existing snapshot without
// re-executing mapping sources (the materialized-comparison mode).
func (vg *VirtualGraph) QueryCached(q string) (*sparql.Results, error) {
	if _, err := vg.Snapshot(); err != nil {
		return nil, err
	}
	return sparql.Eval(vg, q)
}
