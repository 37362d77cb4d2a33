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
// are demoted out of source selection until a cooldown elapses.
package federation

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"applab/internal/admission"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// Member is one federated endpoint.
type Member struct {
	Name   string
	Source sparql.Source
}

// MemberResult is one member's outcome for one pattern fan-out.
type MemberResult struct {
	Member string
	// Triples is how many triples the member contributed.
	Triples int
	// Err is the member's failure, when its source surfaces errors
	// (sparql.ErrorSource).
	Err error
	// TimedOut marks a member that exceeded its per-member deadline; its
	// answer (if it ever comes) is discarded.
	TimedOut bool
	// Skipped marks a demoted member that was not asked at all.
	Skipped bool
}

// OK reports whether the member answered normally.
func (r MemberResult) OK() bool { return r.Err == nil && !r.TimedOut && !r.Skipped }

// Report describes one pattern fan-out: every targeted (or skipped)
// member with its outcome.
type Report struct {
	Results []MemberResult
	// Partial is set when at least one member failed, timed out, or was
	// skipped: the union may be missing that member's triples.
	Partial bool
}

// failed lists the non-OK member results.
func (r Report) failed() []MemberResult {
	var out []MemberResult
	for _, m := range r.Results {
		if !m.OK() {
			out = append(out, m)
		}
	}
	return out
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
	// collector receives it — before the deadline decision. Tests in
	// this package use it to sequence fake-clock advances so "the
	// healthy members have answered, now expire the hung one" is
	// deterministic rather than scheduler-dependent.
	onCollect func()

	mu sync.Mutex
	// capable[predicateKey] lists the member indexes known to answer that
	// predicate; a missing entry means "unknown, ask everyone".
	capable map[string][]int
	// stats counts per-member pattern requests (for tests/diagnostics).
	stats map[string]int64
	// health tracks per-member consecutive failures and demotion — the
	// shared cooldown machinery (see health.go) the cluster coordinator
	// reuses for replica selection.
	health *HealthTracker
}

type memberHealth struct {
	consecFails int
	demoted     bool
	demotedAt   time.Time
}

// New returns a federation over the given members.
func New(members ...Member) *Federation {
	return &Federation{
		members: members,
		capable: map[string][]int{},
		stats:   map[string]int64{},
		health:  NewHealthTracker(0, 0),
	}
}

func (f *Federation) now() time.Time {
	if f.Now != nil {
		return f.Now()
	}
	return time.Now()
}

func (f *Federation) after(d time.Duration) <-chan time.Time {
	if f.After != nil {
		return f.After(d)
	}
	return time.After(d)
}

func (f *Federation) demoteAfter() int {
	if f.DemoteAfter != 0 {
		return f.DemoteAfter
	}
	return 3
}

func (f *Federation) retryDemoted() time.Duration {
	if f.RetryDemoted > 0 {
		return f.RetryDemoted
	}
	return 30 * time.Second
}

// AddMember appends an endpoint and resets source-selection knowledge for
// safety.
func (f *Federation) AddMember(m Member) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members = append(f.members, m)
	f.capable = map[string][]int{}
}

// Members returns the member names in order.
func (f *Federation) Members() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.members))
	for i, m := range f.members {
		out[i] = m.Name
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

// matchMember asks one member, preferring the error-surfacing interface
// when the source provides it.
func matchMember(src sparql.Source, s, p, o rdf.Term) ([]rdf.Triple, error) {
	if es, ok := src.(sparql.ErrorSource); ok {
		return es.MatchErr(s, p, o)
	}
	return src.Match(s, p, o), nil
}

// matchMemberCtx is matchMember through the member's context-aware path
// when it has one, so cancelling the fan-out aborts in-flight member
// requests instead of just abandoning their answers.
func matchMemberCtx(ctx context.Context, src sparql.Source, s, p, o rdf.Term) ([]rdf.Triple, error) {
	if cs, ok := src.(sparql.ContextSource); ok {
		return cs.MatchContext(ctx, s, p, o)
	}
	return matchMember(src, s, p, o)
}

// allFailedErr applies the federation's error rule: a fan-out fails only
// when every targeted member failed, so a federation nests as a member
// of another federation with sensible semantics.
func allFailedErr(rep Report) error {
	if len(rep.Results) == 0 {
		return nil
	}
	for _, m := range rep.Results {
		if m.OK() {
			return nil
		}
	}
	return fmt.Errorf("federation: all %d members failed: %v",
		len(rep.Results), describeFailures(rep.failed()))
}

// Match implements sparql.Source: the pattern is sent to every member
// that may hold matching triples (all members when the pattern class is
// unknown), and the union is deduplicated. Failures degrade to partial
// results; use MatchReport or MatchErr when the error report matters.
func (f *Federation) Match(s, p, o rdf.Term) []rdf.Triple {
	triples, _ := f.MatchReport(s, p, o)
	return triples
}

// MatchErr implements sparql.ErrorSource: it fails only when every
// targeted member failed, so a federation nests as a member of another
// federation with sensible semantics.
func (f *Federation) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	triples, rep := f.MatchReport(s, p, o)
	return triples, allFailedErr(rep)
}

// MatchContext implements sparql.ContextSource: the fan-out is charged
// against the context's federation fan-out budget before any member is
// asked, member requests run under ctx, and a cancellation or budget
// violation aborts collection (the union gathered so far is returned
// with the error).
func (f *Federation) MatchContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, error) {
	triples, rep, err := f.MatchReportContext(ctx, s, p, o)
	if err != nil {
		return triples, err
	}
	return triples, allFailedErr(rep)
}

func describeFailures(failed []MemberResult) string {
	parts := make([]string, len(failed))
	for i, m := range failed {
		switch {
		case m.TimedOut:
			parts[i] = m.Member + ": timed out"
		case m.Skipped:
			parts[i] = m.Member + ": demoted"
		case m.Err != nil:
			parts[i] = m.Member + ": " + m.Err.Error()
		default:
			parts[i] = m.Member + ": failed"
		}
	}
	return "[" + strings.Join(parts, "; ") + "]"
}

// MatchReport is Match plus the per-member outcome report. Each targeted
// member gets MemberTimeout to answer; late answers are abandoned (their
// goroutines drain into a buffered channel) and the union is returned as
// a partial result with the slow/broken members reported.
func (f *Federation) MatchReport(s, p, o rdf.Term) ([]rdf.Triple, Report) {
	triples, rep, _ := f.MatchReportContext(context.Background(), s, p, o)
	return triples, rep
}

// MatchReportContext is MatchReport under a context: the fan-out size
// is charged to the context's budget (admission.Limits.MaxFanout)
// before any member is asked, members that support it are queried with
// ctx, and a cancellation or budget violation stops collection early.
// An abort marks unanswered members timed out in the report but does
// not count against their health — the query ran out of budget, the
// members did nothing wrong.
func (f *Federation) MatchReportContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, Report, error) {
	if err := admission.Check(ctx); err != nil {
		return nil, Report{}, err
	}
	// targets, skipped and members are snapshotted under the lock: a
	// concurrent AddMember may reallocate f.members while the fan-out
	// runs.
	targets, skipped, members := f.selectSources(s, p, o)
	if err := admission.FromContext(ctx).AddFanout(len(targets)); err != nil {
		return nil, Report{}, err
	}

	type result struct {
		pos     int // index into targets
		triples []rdf.Triple
		err     error
	}
	resCh := make(chan result, len(targets))
	for i, idx := range targets {
		go func(pos, idx int) {
			start := f.now()
			triples, err := matchMemberCtx(ctx, members[idx].Source, s, p, o)
			// Observed before the send, so once the collector has every
			// answer the histogram is already settled — golden tests can
			// assert it deterministically.
			f.noteMemberLatency(members[idx].Name, f.now().Sub(start))
			resCh <- result{pos: pos, triples: triples, err: err}
		}(i, idx)
	}
	// The deadline timer starts before collection so it bounds the whole
	// fan-out; all members were started together, so one timer implements
	// every member's budget.
	var deadline <-chan time.Time
	if f.MemberTimeout > 0 {
		deadline = f.after(f.MemberTimeout)
	}

	outcomes := make([]*result, len(targets))
	got := 0
collect:
	for got < len(targets) {
		select {
		case r := <-resCh:
			outcomes[r.pos] = &r
			got++
			if f.onCollect != nil {
				f.onCollect()
			}
		case <-deadline:
			// Grace drain: anything already delivered still counts.
			for got < len(targets) {
				select {
				case r := <-resCh:
					outcomes[r.pos] = &r
					got++
					if f.onCollect != nil {
						f.onCollect()
					}
				default:
					break collect
				}
			}
		case <-ctx.Done():
			// Cancelled or over budget: keep what already arrived.
			for got < len(targets) {
				select {
				case r := <-resCh:
					outcomes[r.pos] = &r
					got++
					if f.onCollect != nil {
						f.onCollect()
					}
				default:
					break collect
				}
			}
		}
	}
	abortErr := admission.Check(ctx)

	// Build the report and update health/stats/capabilities.
	rep := Report{Results: make([]MemberResult, 0, len(targets)+len(skipped))}
	now := f.now()
	f.mu.Lock()
	for i, idx := range targets {
		name := members[idx].Name
		f.stats[name]++
		f.noteMemberRequest(name)
		mr := MemberResult{Member: name}
		if r := outcomes[i]; r == nil {
			mr.TimedOut = true
		} else {
			mr.Err = r.err
			mr.Triples = len(r.triples)
		}
		if abortErr == nil || outcomes[i] != nil {
			f.recordHealthLocked(name, mr, now)
		}
		if !mr.OK() {
			rep.Partial = true
			f.noteMemberFailure(name)
		}
		rep.Results = append(rep.Results, mr)
	}
	for _, idx := range skipped {
		name := members[idx].Name
		mr := MemberResult{Member: name, Skipped: true}
		rep.Partial = true
		f.noteMemberSkip(name)
		rep.Results = append(rep.Results, mr)
	}
	// Capability learning stays sound only on complete fan-outs: a member
	// that timed out or errored may well hold the predicate.
	if key, ok := capKey(s, p, o); ok && !rep.Partial {
		if _, known := f.capable[key]; !known {
			var able []int
			for i, idx := range targets {
				if outcomes[i] != nil && len(outcomes[i].triples) > 0 {
					able = append(able, idx)
				}
			}
			f.capable[key] = able
		}
	}
	f.mu.Unlock()
	f.noteFanout(rep.Partial)

	// Union with dedup, deterministic order (member order then local).
	type contribution struct {
		idx     int
		triples []rdf.Triple
	}
	var contribs []contribution
	for i, idx := range targets {
		if r := outcomes[i]; r != nil && r.err == nil {
			contribs = append(contribs, contribution{idx, r.triples})
		}
	}
	sort.Slice(contribs, func(i, j int) bool { return contribs[i].idx < contribs[j].idx })
	seen := map[string]bool{}
	var out []rdf.Triple
	for _, c := range contribs {
		for _, t := range c.triples {
			k := t.S.Key() + "|" + t.P.Key() + "|" + t.O.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
	}
	return out, rep, abortErr
}

// recordHealthLocked folds one member outcome into the health tracker.
// Demotion requires DemoteAfter consecutive failures; a success fully
// rehabilitates the member. Callers hold f.mu (for the surrounding
// stats writes; the tracker locks itself).
func (f *Federation) recordHealthLocked(name string, mr MemberResult, now time.Time) {
	if f.health.Record(name, mr.OK(), now) {
		f.noteDemotion(name)
	}
}

// selectSources picks member indexes for a pattern and snapshots the
// member list so the caller can fan out without holding the lock. The
// skipped list holds demoted members still inside their cooldown; a
// demoted member past its cooldown is included again as a probe. When
// demotion would leave no members at all, everyone is probed: an answer
// with every member skipped helps nobody.
func (f *Federation) selectSources(s, p, o rdf.Term) (targets, skipped []int, members []Member) {
	now := f.now()
	f.health.SetLimits(f.demoteAfter(), f.retryDemoted())
	f.mu.Lock()
	defer f.mu.Unlock()
	members = append([]Member(nil), f.members...)
	var candidates []int
	if key, ok := capKey(s, p, o); ok {
		if able, known := f.capable[key]; known {
			candidates = append([]int(nil), able...)
		}
	}
	if candidates == nil {
		candidates = make([]int, len(members))
		for i := range candidates {
			candidates[i] = i
		}
	}
	for _, idx := range candidates {
		if !f.health.Eligible(members[idx].Name, now) {
			skipped = append(skipped, idx)
			continue
		}
		targets = append(targets, idx)
	}
	if len(targets) == 0 && len(skipped) > 0 {
		targets, skipped = skipped, nil
	}
	return targets, skipped, members
}

// Query evaluates a (Geo)SPARQL query over the federation.
func (f *Federation) Query(q string) (*sparql.Results, error) {
	return sparql.Eval(f, q)
}

// MemberReport aggregates one member's outcomes over a whole query.
type MemberReport struct {
	Member   string
	Answers  int
	Errors   int
	Timeouts int
	Skips    int
	// LastErr is the member's most recent error during the query.
	LastErr error
}

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

// reportingSource funnels every pattern of a query evaluation through
// MatchReport, aggregating the per-pattern reports.
type reportingSource struct {
	f  *Federation
	mu sync.Mutex
	qr QueryReport
}

func (r *reportingSource) Match(s, p, o rdf.Term) []rdf.Triple {
	triples, _ := r.record(s, p, o)
	return triples
}

func (r *reportingSource) record(s, p, o rdf.Term) ([]rdf.Triple, Report) {
	triples, rep, _ := r.recordCtx(context.Background(), s, p, o)
	return triples, rep
}

func (r *reportingSource) recordCtx(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, Report, error) {
	triples, rep, err := r.f.MatchReportContext(ctx, s, p, o)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.qr.Patterns++
	if rep.Partial {
		r.qr.Partial = true
	}
	for _, mr := range rep.Results {
		agg := r.qr.Members[mr.Member]
		if agg == nil {
			agg = &MemberReport{Member: mr.Member}
			r.qr.Members[mr.Member] = agg
		}
		switch {
		case mr.Skipped:
			agg.Skips++
		case mr.TimedOut:
			agg.Timeouts++
		case mr.Err != nil:
			agg.Errors++
			agg.LastErr = mr.Err
		default:
			agg.Answers++
		}
	}
	return triples, rep, err
}

// MatchErr implements sparql.ErrorSource with the federation's
// per-pattern all-members-failed rule, so the evaluator treats a
// partial-results query as remote-backed (sequential Match calls, no
// parallel fan-out on top of the federation's own).
func (r *reportingSource) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	triples, rep := r.record(s, p, o)
	return triples, allFailedErr(rep)
}

// MatchContext implements sparql.ContextSource, so budgeted partial-
// results evaluation (QueryPartialContext) threads cancellation and the
// fan-out budget into every pattern.
func (r *reportingSource) MatchContext(ctx context.Context, s, p, o rdf.Term) ([]rdf.Triple, error) {
	triples, rep, err := r.recordCtx(ctx, s, p, o)
	if err != nil {
		return triples, err
	}
	return triples, allFailedErr(rep)
}

// Cardinality forwards the planner's statistics probe to the federation.
func (r *reportingSource) Cardinality(s, p, o rdf.Term) int {
	return r.f.Cardinality(s, p, o)
}

// Cardinality implements sparql.StatsSource by summing the members'
// estimates. It stays unknown (-1) — keeping the planner in textual
// order — unless every member provides statistics: a partial sum would
// bias the plan toward whichever members happen to be introspectable.
// No requests are counted and no capabilities are learned.
func (f *Federation) Cardinality(s, p, o rdf.Term) int {
	f.mu.Lock()
	members := append([]Member(nil), f.members...)
	f.mu.Unlock()
	total := 0
	for _, m := range members {
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
// admission.Budget attached, every pattern fan-out charges the
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
	rec := &reportingSource{f: f}
	rec.qr.Members = map[string]*MemberReport{}
	res, err := query.EvalContext(ctx, rec)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	qr := rec.qr
	if err == nil && !qr.Partial {
		fill.Store(res)
	}
	return res, &qr, err
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
	f.mu.Lock()
	members := append([]Member(nil), f.members...)
	f.mu.Unlock()
	var total uint64
	for _, m := range members {
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
	f.mu.Lock()
	members := append([]Member(nil), f.members...)
	f.mu.Unlock()
	fp := "fed"
	for _, m := range members {
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
