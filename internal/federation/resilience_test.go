package federation

// Resilience tests for the federated fan-out: per-member deadlines,
// partial results with error reports, and failure-driven demotion of
// dead members. All timing runs on faults.Clock — hung members are
// expired by advancing a fake clock after the healthy members have
// demonstrably answered, so the file is deterministic under -race with
// zero real-time sleeps.

import (
	"context"
	"strings"
	"testing"
	"time"

	"applab/internal/faults"
	"applab/internal/rdf"
	"applab/internal/scatter"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/workload"
)

var hasGeometry = rdf.NewIRI(rdf.NSGeo + "hasGeometry")

func clcStore() *strabon.Store {
	st := strabon.New()
	st.AddAll(workload.FeaturesToRDF(rdf.NSCLC, rdf.NSCLC+"cover",
		workload.CorineLandCover(workload.VectorOptions{
			Extent: workload.ParisExtent, N: 15, Seed: 9})))
	return st
}

// failingSource always errors — a member whose endpoint answers fast
// but broken.
type failingSource struct{}

func (failingSource) Match(s, p, o rdf.Term) []rdf.Triple { return nil }
func (failingSource) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	return nil, &faults.InjectedError{Op: "endpoint failure"}
}

func TestPartialResultsUnderHungMember(t *testing.T) {
	gadm, osm := buildMembers(t)
	hung := faults.NewSource(clcStore(), faults.FailN(1, faults.Step{Kind: faults.Hang}))
	defer hung.Release()

	clock := faults.NewClock(time.Date(2019, 3, 26, 9, 0, 0, 0, time.UTC))
	fed := New(Member{"gadm", gadm}, Member{"osm", osm}, Member{"clc", hung})
	fed.MemberTimeout = 5 * time.Second
	fed.After = clock.After
	fed.Now = clock.Now
	collected := make(chan struct{}, 8)
	fed.onCollect = func() { collected <- struct{}{} }

	type matchOut struct {
		triples []rdf.Triple
		rep     Report
	}
	resCh := make(chan matchOut, 1)
	go func() {
		triples, rep, _ := fed.MatchReportContext(context.Background(), rdf.Term{}, hasGeometry, rdf.Term{})
		resCh <- matchOut{triples, rep}
	}()
	// Both healthy members have answered and been collected; only the
	// hung member is outstanding. Expire its budget.
	<-collected
	<-collected
	clock.AwaitTimers(1)
	clock.Advance(5 * time.Second)

	got := <-resCh
	if len(got.triples) != 12+20 {
		t.Fatalf("partial union = %d triples, want 32 (gadm+osm)", len(got.triples))
	}
	if !got.rep.Partial {
		t.Fatal("report must be marked partial")
	}
	byName := map[string]MemberResult{}
	for _, m := range got.rep.Results {
		byName[m.Member] = m
	}
	if !byName["gadm"].OK() || !byName["osm"].OK() {
		t.Fatalf("healthy members not OK: %+v", got.rep.Results)
	}
	if !byName["clc"].TimedOut {
		t.Fatalf("hung member not reported as timed out: %+v", byName["clc"])
	}
	// A partial fan-out must not poison source-selection learning: the
	// hung member may well hold the predicate.
	fed.mu.Lock()
	learned := len(fed.capable)
	fed.mu.Unlock()
	if learned != 0 {
		t.Errorf("capabilities learned from a partial fan-out: %d entries", learned)
	}
	// One timeout (below DemoteAfter=3 default) must not demote yet.
	if _, demoted := fed.MemberHealth("clc"); demoted {
		t.Error("single timeout must not demote")
	}
}

func TestQueryPartialAnswersWithHungMember(t *testing.T) {
	// The acceptance scenario: a full GeoSPARQL query over a federation
	// with one hung member answers within the (fake-clock) deadline,
	// returns the healthy members' results, and reports the failure.
	gadm, osm := buildMembers(t)
	hung := faults.NewSource(clcStore(), faults.FailN(1, faults.Step{Kind: faults.Hang}))
	defer hung.Release()

	clock := faults.NewClock(time.Date(2019, 3, 26, 9, 0, 0, 0, time.UTC))
	fed := New(Member{"gadm", gadm}, Member{"osm", osm}, Member{"clc", hung})
	fed.MemberTimeout = 5 * time.Second
	fed.DemoteAfter = 1 // first timeout demotes, so later patterns skip the corpse
	fed.RetryDemoted = time.Hour
	fed.After = clock.After
	fed.Now = clock.Now
	collected := make(chan struct{}, 64)
	fed.onCollect = func() { collected <- struct{}{} }

	type queryOut struct {
		res *sparql.Results
		err error
	}
	resCh := make(chan queryOut, 1)
	q, err := sparql.Parse(`SELECT (COUNT(*) AS ?n) WHERE { ?s geo:hasGeometry ?g }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, tally := scatter.WithTally(context.Background())
	go func() {
		res, err := q.EvalContext(ctx, fed)
		resCh <- queryOut{res, err}
	}()
	// First pattern: wait for the two healthy answers, then expire the
	// hung member's budget.
	<-collected
	<-collected
	clock.AwaitTimers(1)
	clock.Advance(5 * time.Second)

	got := <-resCh
	if got.err != nil {
		t.Fatal(got.err)
	}
	n, _ := got.res.Binding(0)["n"].Int()
	if int(n) != 12+20 {
		t.Fatalf("partial count = %d, want 32", n)
	}
	if !got.res.Partial || tally.Fanouts == 0 {
		t.Fatalf("partial = %v after %d fan-outs", got.res.Partial, tally.Fanouts)
	}
	clc := tally.Members["clc"]
	if clc == nil || clc.Timeouts != 1 {
		t.Fatalf("clc report = %+v", clc)
	}
	if _, demoted := fed.MemberHealth("clc"); !demoted {
		t.Error("with DemoteAfter=1 the hung member must be demoted")
	}
}

func TestDemotionAndProbeRecovery(t *testing.T) {
	gadm, osm := buildMembers(t)
	// Fails twice (fast errors), then healthy again.
	script := faults.FailN(2, faults.Step{Kind: faults.ConnError})
	flaky := faults.NewSource(clcStore(), script)

	clock := faults.NewClock(time.Date(2019, 3, 26, 9, 0, 0, 0, time.UTC))
	fed := New(Member{"gadm", gadm}, Member{"osm", osm}, Member{"clc", flaky})
	fed.DemoteAfter = 2
	fed.RetryDemoted = 30 * time.Second
	fed.Now = clock.Now

	// Two failing fan-outs demote the member.
	for i := 0; i < 2; i++ {
		_, rep, _ := fed.MatchReportContext(context.Background(), rdf.Term{}, hasGeometry, rdf.Term{})
		if !rep.Partial {
			t.Fatalf("fan-out %d with erroring member must be partial", i)
		}
	}
	fails, demoted := fed.MemberHealth("clc")
	if fails != 2 || !demoted {
		t.Fatalf("health = (%d, %v), want (2, true)", fails, demoted)
	}
	// While demoted: skipped without being asked.
	calls := script.Calls()
	triples, rep, _ := fed.MatchReportContext(context.Background(), rdf.Term{}, hasGeometry, rdf.Term{})
	if script.Calls() != calls {
		t.Error("demoted member must not be asked")
	}
	if len(triples) != 32 {
		t.Fatalf("demoted fan-out union = %d", len(triples))
	}
	skipped := false
	for _, m := range rep.Results {
		if m.Member == "clc" && m.Skipped {
			skipped = true
		}
	}
	if !skipped || !rep.Partial {
		t.Fatalf("demoted member must be reported skipped: %+v", rep.Results)
	}
	// Cooldown elapsed: the member is probed, answers (script exhausted),
	// and is rehabilitated. clc holds 15 features => 47 triples total.
	clock.Advance(30 * time.Second)
	triples, rep, _ = fed.MatchReportContext(context.Background(), rdf.Term{}, hasGeometry, rdf.Term{})
	if rep.Partial {
		t.Fatalf("probe fan-out must be complete: %+v", rep.Results)
	}
	if len(triples) != 12+20+15 {
		t.Fatalf("recovered union = %d triples, want 47", len(triples))
	}
	if fails, demoted := fed.MemberHealth("clc"); fails != 0 || demoted {
		t.Fatalf("health after recovery = (%d, %v)", fails, demoted)
	}
}

func TestDemotionFailSafeWhenAllDemoted(t *testing.T) {
	// If demotion would leave nobody, every demoted member is probed:
	// answering with zero members helps nobody.
	bad := failingSource{}
	fed := New(Member{"only", bad})
	fed.DemoteAfter = 1
	clock := faults.NewClock(time.Date(2019, 3, 26, 9, 0, 0, 0, time.UTC))
	fed.Now = clock.Now

	_, rep, _ := fed.MatchReportContext(context.Background(), rdf.Term{}, hasGeometry, rdf.Term{})
	if !rep.Partial {
		t.Fatal("failing member must yield a partial report")
	}
	if _, demoted := fed.MemberHealth("only"); !demoted {
		t.Fatal("member must be demoted")
	}
	// Next fan-out: still asked (fail-safe), not silently skipped.
	_, rep, _ = fed.MatchReportContext(context.Background(), rdf.Term{}, hasGeometry, rdf.Term{})
	if len(rep.Results) != 1 || rep.Results[0].Skipped {
		t.Fatalf("sole member must be probed, got %+v", rep.Results)
	}
}

func TestMatchErrAllMembersFailed(t *testing.T) {
	fed := New(Member{"a", failingSource{}}, Member{"b", failingSource{}})
	triples, err := fed.MatchErr(rdf.Term{}, hasGeometry, rdf.Term{})
	if err == nil || len(triples) != 0 {
		t.Fatalf("all-failed MatchErr = (%d, %v)", len(triples), err)
	}
	if !strings.Contains(err.Error(), "all 2 members failed") {
		t.Errorf("error = %v", err)
	}
	// With one healthy member the same call succeeds partially.
	gadm, _ := buildMembers(t)
	fed2 := New(Member{"a", failingSource{}}, Member{"gadm", gadm})
	triples, err = fed2.MatchErr(rdf.Term{}, hasGeometry, rdf.Term{})
	if err != nil || len(triples) != 12 {
		t.Fatalf("partial MatchErr = (%d, %v)", len(triples), err)
	}
}

func TestErrorReportFromErrorSource(t *testing.T) {
	gadm, _ := buildMembers(t)
	fed := New(Member{"gadm", gadm}, Member{"bad", failingSource{}})
	_, rep, _ := fed.MatchReportContext(context.Background(), rdf.Term{}, hasGeometry, rdf.Term{})
	var badResult *MemberResult
	for i := range rep.Results {
		if rep.Results[i].Member == "bad" {
			badResult = &rep.Results[i]
		}
	}
	if badResult == nil || badResult.Err == nil {
		t.Fatalf("error-surfacing member must report its error: %+v", rep.Results)
	}
	if !strings.Contains(badResult.Err.Error(), "injected") {
		t.Errorf("err = %v", badResult.Err)
	}
}
