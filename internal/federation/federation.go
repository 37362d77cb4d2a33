// Package federation implements a GeoSPARQL federation engine — the
// paper's §5 open problem: "It will usually be the case that different
// geospatial RDF datasets (e.g., GADM and OpenStreetMap) will be offered
// by different GeoSPARQL endpoints that can be considered a federation.
// There is currently no query engine that can answer GeoSPARQL queries
// over such a federation."
//
// The engine follows the SemaGrow recipe at small scale: a Federation is
// itself a sparql.Source whose Match fans out to the member endpoints
// (in-process stores or remote endpoints via internal/endpoint), with
// predicate-based source selection learned from the members' answers so
// repeated patterns skip members that cannot contribute. The full query
// engine — including the geof:* functions — then runs unchanged on top,
// so cross-endpoint spatial joins (the GADM x OSM case of the paper) just
// work.
//
// Because members are remote Web sources ("OBDA for the Web": a virtual
// graph inherits the reliability of its sources), the fan-out is
// deadline-bounded and failure-aware: each member gets MemberTimeout to
// answer, slow or broken members are skipped and reported instead of
// stalling the query (partial results), and members that fail repeatedly
// are demoted out of source selection until a cooldown elapses. The
// fan-out itself is internal/scatter's, with every member a one-replica
// target; the federation chooses the targets.
package federation

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"applab/internal/admission"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/scatter"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// Member is one federated endpoint.
type Member struct {
	Name   string
	Source sparql.Source
}

// MemberResult is one member's outcome for one pattern fan-out: Err is
// the member's failure when its source surfaces errors
// (sparql.ErrorSource), TimedOut a member past its per-member deadline,
// Skipped a demoted member that was not asked at all.
type MemberResult = scatter.Result

// Report describes one pattern fan-out: every targeted (or skipped)
// member with its outcome.
type Report struct {
	Results []MemberResult
	// Partial is set when at least one member failed, timed out, or was
	// skipped: the union may be missing that member's triples.
	Partial bool
}

// Federation is a sparql.Source spanning several endpoints.
type Federation struct {
	// MemberTimeout bounds each member's answer per pattern; 0 means
	// wait forever (the historic behaviour).
	MemberTimeout time.Duration
	// DemoteAfter is the consecutive-failure count after which a member
	// is demoted out of source selection (default 3; negative disables).
	DemoteAfter int
	// RetryDemoted is how long a demoted member sits out before it is
	// probed again (default 30s).
	RetryDemoted time.Duration
	// Now and After are clock hooks (time.Now/time.After when nil) so
	// deadline and demotion behaviour is testable without real sleeps.
	Now   func() time.Time
	After func(time.Duration) <-chan time.Time
	// Metrics, when set, records fan-out counts, per-member latency,
	// failures and demotions in the registry (see metrics.go).
	Metrics *telemetry.Registry
	// Cache, when set, caches whole federated query results (partial
	// answers are never cached). Sub-plan answers cache at each member's
	// own endpoint independently of this wrapper.
	Cache *rescache.Cache

	members []Member

	// onCollect, when set, observes each member answer as the fan-out
	// collects it — before the deadline decision. Tests in this package
	// use it to sequence fake-clock advances so "the healthy members have
	// answered, now expire the hung one" is deterministic rather than
	// scheduler-dependent.
	onCollect func()

	mu sync.Mutex
	// capable[predicateKey] lists the member indexes known to answer that
	// predicate; a missing entry means "unknown, ask everyone".
	capable map[string][]int
	// stats counts per-member pattern requests (for tests/diagnostics).
	stats map[string]int64
	// health tracks per-member consecutive failures and demotion, with
	// the cooldown rules every fan-out shares (scatter.Health).
	health *scatter.Health
}

// New returns a federation over the given members.
func New(members ...Member) *Federation {
	return &Federation{
		members: members,
		capable: map[string][]int{},
		stats:   map[string]int64{},
		health:  scatter.NewHealth(0, 0),
	}
}

// AddMember appends an endpoint and resets source-selection knowledge for
// safety.
func (f *Federation) AddMember(m Member) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members = append(f.members, m)
	f.capable = map[string][]int{}
}

// snapshot copies the member list: a concurrent AddMember may reallocate
// it while a caller iterates.
func (f *Federation) snapshot() []Member {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Member(nil), f.members...)
}

// Members returns the member names in order.
func (f *Federation) Members() []string {
	var out []string
	for _, m := range f.snapshot() {
		out = append(out, m.Name)
	}
	return out
}

// RequestCount reports how many pattern requests a member has served.
func (f *Federation) RequestCount(name string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats[name]
}

// MemberHealth reports a member's consecutive-failure count and whether
// it is currently demoted out of source selection.
func (f *Federation) MemberHealth(name string) (consecFails int, demoted bool) {
	return f.health.Status(name)
}

// capKey identifies a learnable pattern class: subject-unbound patterns
// keyed by (predicate, object). Learning from subject-bound patterns would
// be unsound: a member may hold the predicate but not that subject.
func capKey(s, p, o rdf.Term) (string, bool) {
	if !s.IsZero() || p.IsZero() {
		return "", false
	}
	return p.Key() + "|" + o.Key(), true
}

// allFailedErr applies the federation's error rule: a fan-out fails only
// when every targeted member failed, so a federation nests as a member
// of another federation with sensible semantics.
func allFailedErr(rep Report) error {
	var failed []string
	for _, m := range rep.Results {
		switch {
		case m.OK():
			return nil
		case m.TimedOut:
			failed = append(failed, m.Member+": timed out")
		case m.Skipped:
			failed = append(failed, m.Member+": demoted")
		default:
			failed = append(failed, m.Member+": "+m.Err.Error())
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("federation: all %d members failed: [%s]", len(failed), strings.Join(failed, "; "))
}

// Match implements sparql.Source: the pattern is sent to every member
// that may hold matching triples (all members when the pattern class is
// unknown), and the union is deduplicated. Failures degrade to partial
// results; use MatchReportContext or MatchErr when the error report
// matters.
func (f *Federation) Match(s, p, o rdf.Term) []rdf.Triple {
	triples, _ := f.MatchErr(s, p, o)
	return triples
}

// MatchErr implements sparql.ErrorSource: it fails only when every
// targeted member failed.
func (f *Federation) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	return f.MatchContext(context.Background(), s, p, o)
}

// MatchContext implements sparql.ContextSource: every member request is
// charged against the context's federation fan-out budget before it is
// sent, member requests run under ctx, and a cancellation or budget
// violation aborts collection (the union gathered so far is returned
// with the error).
func (f *Federation) MatchContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, error) {
	triples, rep, err := f.MatchReportContext(ctx, s, p, o)
	if err != nil {
		return triples, err
	}
	return triples, allFailedErr(rep)
}

// MatchReportContext is Match plus the per-member outcome report. Each
// targeted member gets MemberTimeout to answer; late answers are
// abandoned and the union is returned as a partial result with the
// slow/broken members reported. Each member request is charged to the
// context's budget (admission.Limits.MaxFanout) before it is sent, a
// member is read through sparql.MatchContext under ctx, and a
// cancellation or budget violation stops collection early. An abort
// marks unanswered members timed out in the report but does not count
// against their health — the query ran out of budget, the members did
// nothing wrong. The union is sorted with rdf.Triple.Compare and holds
// each triple once, whichever members returned it.
func (f *Federation) MatchReportContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, Report, error) {
	if err := admission.Check(ctx); err != nil {
		return nil, Report{}, err
	}
	targets, idxs := f.selectSources(s, p, o)
	fan := scatter.Fanout{Health: f.health, Now: f.Now, After: f.After, Observe: f.observe}
	out, results, abortErr := fan.Gather(ctx, targets, f.MemberTimeout)

	rep := Report{Results: results}
	f.mu.Lock()
	for _, mr := range results {
		rep.Partial = rep.Partial || !mr.OK()
		if !mr.Skipped {
			f.stats[mr.Member]++
		}
	}
	// Capability learning stays sound only on complete fan-outs: a member
	// that timed out or errored may well hold the predicate.
	if key, ok := capKey(s, p, o); ok && !rep.Partial {
		if _, known := f.capable[key]; !known {
			var able []int
			for i, mr := range results {
				if mr.Triples > 0 {
					able = append(able, idxs[i])
				}
			}
			f.capable[key] = able
		}
	}
	f.mu.Unlock()
	f.noteFanout(rep)
	return out, rep, abortErr
}

// selectSources turns a pattern into fan-out targets, with the member
// index of each: every member that may hold matches (all of them while
// the pattern class is unknown) is a one-replica target. A demoted member
// still inside its cooldown is a target with no replica — reported
// skipped, not asked — and one past it is asked again as a probe. When
// demotion would skip every member, all are probed instead: an answer
// with every member skipped helps nobody.
func (f *Federation) selectSources(s, p, o rdf.Term) ([]scatter.Target, []int) {
	now := time.Now()
	if f.Now != nil {
		now = f.Now()
	}
	f.health.SetLimits(f.DemoteAfter, f.RetryDemoted)
	f.mu.Lock()
	defer f.mu.Unlock()
	var candidates []int
	if key, ok := capKey(s, p, o); ok {
		candidates = append(candidates, f.capable[key]...)
	}
	if candidates == nil {
		for i := range f.members {
			candidates = append(candidates, i)
		}
	}
	var asked, skipped []int
	for _, idx := range candidates {
		if f.health.Eligible(f.members[idx].Name, now) {
			asked = append(asked, idx)
		} else {
			skipped = append(skipped, idx)
		}
	}
	if len(asked) == 0 {
		asked, skipped = skipped, nil
	}
	targets := make([]scatter.Target, 0, len(candidates))
	for _, idx := range asked {
		m := f.members[idx]
		targets = append(targets, scatter.Target{Name: m.Name, Replicas: []string{m.Name},
			Call: func(ctx context.Context, _ string) ([]rdf.Triple, error) {
				return sparql.MatchContext(ctx, m.Source, s, p, o)
			}})
	}
	for _, idx := range skipped {
		targets = append(targets, scatter.Target{Name: f.members[idx].Name})
	}
	return targets, append(asked, skipped...)
}

// Query evaluates a (Geo)SPARQL query over the federation.
func (f *Federation) Query(q string) (*sparql.Results, error) {
	return sparql.Eval(f, q)
}

// MemberReport aggregates one member's outcomes over a whole query.
type MemberReport = scatter.MemberTally

// QueryReport describes the reliability of one query evaluation: how
// many pattern fan-outs ran, whether any produced partial results, and
// the per-member aggregate.
type QueryReport struct {
	Patterns int
	Partial  bool
	Members  map[string]*MemberReport
	// Cached marks an answer served from the federation's result cache:
	// no pattern fan-out ran at all.
	Cached bool
}

// Cardinality implements sparql.StatsSource by summing the members'
// estimates. It stays unknown (-1) — keeping the planner in textual
// order — unless every member provides statistics: a partial sum would
// bias the plan toward whichever members happen to be introspectable.
// No requests are counted and no capabilities are learned.
func (f *Federation) Cardinality(s, p, o rdf.Term) int {
	total := 0
	for _, m := range f.snapshot() {
		st, ok := m.Source.(sparql.StatsSource)
		if !ok {
			return -1
		}
		est := st.Cardinality(s, p, o)
		if est < 0 {
			return -1
		}
		total += est
	}
	return total
}

// QueryPartial evaluates a query in partial-results mode: slow and
// broken members are skipped after their budget and the answer is
// returned together with a report saying exactly which members failed to
// contribute and how. This is the resilient entry point of the paper's
// §5 federation scenario — one dead endpoint must not kill the query.
func (f *Federation) QueryPartial(q string) (*sparql.Results, *QueryReport, error) {
	return f.QueryPartialContext(context.Background(), q)
}

// QueryPartialContext is QueryPartial under a context: with an
// admission.Budget attached, every member request charges the
// federation fan-out budget and the evaluation stops cooperatively on
// cancellation or violation, returning the structured budget error with
// the report of whatever work was done.
func (f *Federation) QueryPartialContext(ctx context.Context, q string) (*sparql.Results, *QueryReport, error) {
	query, err := sparql.Parse(q)
	if err != nil {
		return nil, &QueryReport{Members: map[string]*MemberReport{}}, err
	}
	var fill rescache.Fill
	if f.Cache != nil {
		res, fl, st := f.Cache.Lookup(query, f)
		if st == rescache.Hit {
			return res, &QueryReport{Cached: true, Members: map[string]*MemberReport{}}, nil
		}
		if st != rescache.Bypass {
			fill = fl
		}
	}
	ctx, tally := scatter.WithTally(ctx)
	res, err := query.EvalContext(ctx, f)
	qr := &QueryReport{Patterns: tally.Fanouts, Partial: tally.Partial, Members: tally.Members}
	if err == nil && !qr.Partial {
		fill.Store(res)
	}
	return res, qr, err
}

// EvalPartialContext implements endpoint.PartialEvaluator, so a served
// federation marks an answer missing a member X-Applab-Partial and keeps
// it out of the endpoint's result cache.
func (f *Federation) EvalPartialContext(ctx context.Context, q string) (*sparql.Results, bool, error) {
	res, rep, err := f.QueryPartialContext(ctx, q)
	return res, rep.Partial, err
}

// DataEpoch implements rescache.Epocher by summing the members' epochs.
// Members without an epoch (remote endpoints) contribute nothing — their
// changes are invisible here, so federations with such members should
// run the cache with a TTL bound.
func (f *Federation) DataEpoch() uint64 {
	var total uint64
	for _, m := range f.snapshot() {
		if ep, ok := m.Source.(rescache.Epocher); ok {
			total += ep.DataEpoch()
		}
	}
	return total
}

// Fingerprint implements rescache.Fingerprinter by composing the member
// fingerprints (position-sensitive), so replacing any member instance
// re-keys the whole federation.
func (f *Federation) Fingerprint() string {
	fp := "fed"
	for _, m := range f.snapshot() {
		if fpr, ok := m.Source.(rescache.Fingerprinter); ok {
			fp += "|" + fpr.Fingerprint()
		} else {
			fp += "|anon:" + m.Name
		}
	}
	return fp
}

// ForgetCapabilities clears learned source selection (e.g. after member
// data changes).
func (f *Federation) ForgetCapabilities() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.capable = map[string][]int{}
}
