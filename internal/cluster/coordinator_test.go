package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"applab/internal/admission"
	"applab/internal/faults"
	"applab/internal/rdf"
	"applab/internal/scatter"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// testGroups is the canonical 3-node RF-2 topology: every node serves
// two of the three replica groups, so any single node can die without
// losing a group.
func testGroups() [][]string {
	return [][]string{{"n1", "n2"}, {"n2", "n3"}, {"n3", "n1"}}
}

type testCluster struct {
	clk *faults.Clock
	net *MemNetwork
	c   *Coordinator
	reg *telemetry.Registry
}

// evalPartial evaluates query over src and reports whether the answer
// says it is partial.
func evalPartial(ctx context.Context, src sparql.Source, query string) (*sparql.Results, bool, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, false, err
	}
	res, err := q.EvalContext(ctx, src)
	if err != nil {
		return nil, false, err
	}
	return res, res.Partial, nil
}

func newTestCluster(t testing.TB, mod func(*Config)) *testCluster {
	t.Helper()
	clk := faults.NewClock(time.Unix(1700000000, 0))
	net := NewMemNetwork()
	net.After = clk.After
	reg := telemetry.NewRegistry()
	cfg := Config{
		Groups:     testGroups(),
		Transport:  net,
		Metrics:    reg,
		Now:        clk.Now,
		After:      clk.After,
		HedgeAfter: 10 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	seen := map[string]bool{}
	for _, g := range cfg.Groups {
		for _, id := range g {
			if !seen[id] {
				seen[id] = true
				net.AddNode(NewNode(id))
			}
		}
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testCluster{clk: clk, net: net, c: c, reg: reg}
}

// clusterTriples builds n deterministic triples: subject i carries a
// p0 integer and a p1 label.
func clusterTriples(n, base int) []rdf.Triple {
	ts := make([]rdf.Triple, 0, 2*n)
	for i := base; i < base+n; i++ {
		s := rdf.NewIRI(testSubjectIRI(i))
		ts = append(ts,
			rdf.NewTriple(s, rdf.NewIRI("http://ex/p0"), rdf.NewInteger(int64(i))),
			rdf.NewTriple(s, rdf.NewIRI("http://ex/p1"), rdf.NewLiteral("v"+itoa(i))),
		)
	}
	return ts
}

const qFan = `SELECT ?s ?o WHERE { ?s <http://ex/p0> ?o }`
const qJoin = `SELECT ?s ?a ?b WHERE { ?s <http://ex/p0> ?a . ?s <http://ex/p1> ?b }`

// qJoin3 is the benchmark's cluster join: a fan-out, then two
// subject-bound nested-loop steps.
const qJoin3 = `SELECT ?s ?n ?a WHERE { ?s <http://ex/p0> ?x . ?s <http://ex/p1> ?n . ?s <http://ex/p0> ?a }`

func qRouted(i int) string {
	return fmt.Sprintf(`SELECT ?p ?o WHERE { <%s> ?p ?o }`, testSubjectIRI(i))
}

// canonResults canonicalizes evaluation output: rows rendered with
// sorted variables, then sorted — byte-identical iff the solution sets
// are identical.
func canonResults(res *sparql.Results) string {
	rows := make([]string, 0, len(res.Bindings))
	for i := range res.Bindings {
		b := res.Binding(i)
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		parts := make([]string, 0, len(vars))
		for _, v := range vars {
			parts = append(parts, v+"="+b[v].Key())
		}
		rows = append(rows, strings.Join(parts, "\x1f"))
	}
	sort.Strings(rows)
	var g []string
	for _, t := range res.Graph {
		g = append(g, t.S.Key()+"\x1f"+t.P.Key()+"\x1f"+t.O.Key())
	}
	sort.Strings(g)
	return fmt.Sprintf("bool=%v\n%s\n--graph--\n%s", res.Bool, strings.Join(rows, "\n"), strings.Join(g, "\n"))
}

// mustMatchOracle asserts the cluster's canonicalized answer is
// byte-identical to the oracle store's.
func mustMatchOracle(t *testing.T, tc *testCluster, oracle *strabon.Store, query, stage string) {
	t.Helper()
	got, partial, err := evalPartial(context.Background(), tc.c, query)
	if err != nil {
		t.Fatalf("%s: cluster eval: %v", stage, err)
	}
	if partial {
		t.Fatalf("%s: unexpected partial answer", stage)
	}
	want, err := sparql.Eval(oracle, query)
	if err != nil {
		t.Fatalf("%s: oracle eval: %v", stage, err)
	}
	if g, w := canonResults(got), canonResults(want); g != w {
		t.Fatalf("%s: cluster diverged from oracle:\n got:\n%s\nwant:\n%s", stage, g, w)
	}
}

func TestClusterReplicationAndReads(t *testing.T) {
	tc := newTestCluster(t, nil)
	oracle := strabon.New()
	ctx := context.Background()

	ts := clusterTriples(40, 0)
	applied, err := tc.c.AddAll(ctx, ts)
	if err != nil {
		t.Fatalf("AddAll: %v", err)
	}
	if len(applied) != len(ts) {
		t.Fatalf("applied %d of %d triples", len(applied), len(ts))
	}
	oracle.AddAll(applied)

	// Every shard got data (the ring is balanced enough at 40 subjects).
	for sh := 0; sh < tc.c.Shards(); sh++ {
		if tc.c.LogSeq(sh) == 0 {
			t.Fatalf("shard %d received no writes", sh)
		}
	}
	for _, q := range []string{qFan, qJoin, qRouted(7), qRouted(23)} {
		mustMatchOracle(t, tc, oracle, q, "initial")
	}

	// Deletes route like adds.
	del := ts[:10]
	applied, err = tc.c.DeleteAll(ctx, del)
	if err != nil {
		t.Fatalf("DeleteAll: %v", err)
	}
	for _, d := range applied {
		oracle.Delete(d)
	}
	for _, q := range []string{qFan, qJoin, qRouted(1)} {
		mustMatchOracle(t, tc, oracle, q, "after delete")
	}
}

func TestClusterRouting(t *testing.T) {
	tc := newTestCluster(t, nil)
	// Bound subjects route to exactly the shard their triples were
	// placed on; unbound subjects cannot be routed.
	for i := 0; i < 50; i++ {
		tr := rdf.NewTriple(rdf.NewIRI(testSubjectIRI(i)), rdf.NewIRI("http://ex/p0"), rdf.NewInteger(1))
		frag, ok := tc.c.Route(tr.S, rdf.Term{}, rdf.Term{})
		if !ok || frag != tc.c.ShardOf(tr) {
			t.Fatalf("subject %d: route=(%d,%v) placement=%d", i, frag, ok, tc.c.ShardOf(tr))
		}
	}
	if _, ok := tc.c.Route(rdf.Term{}, rdf.NewIRI("http://ex/p0"), rdf.Term{}); ok {
		t.Fatal("unbound subject must not route")
	}
}

// countingTransport counts match RPCs per node on their way to the
// in-memory fabric.
type countingTransport struct {
	inner Transport
	mu    sync.Mutex
	calls map[string]int
}

func (ct *countingTransport) Call(ctx context.Context, node string, req Message) (Message, error) {
	if req.Type == MsgMatchReq {
		ct.mu.Lock()
		ct.calls[node]++
		ct.mu.Unlock()
	}
	return ct.inner.Call(ctx, node, req)
}

func (ct *countingTransport) total() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	n := 0
	for _, c := range ct.calls {
		n += c
	}
	return n
}

// TestClusterRoutedReadBalance: four nodes in four RF=2 groups, 256
// one-triple subjects. Every subject-bound Match is one RPC to one
// replica, and no node serves more than 40% of the reads — which is what
// lets four nodes serve >= 2.5x the reads of one. Routing and ring
// balance are the only inputs; the fake clock never moves.
func TestClusterRoutedReadBalance(t *testing.T) {
	const nsubj = 256
	ct := &countingTransport{calls: map[string]int{}}
	tc := newTestCluster(t, func(c *Config) {
		c.Groups = [][]string{{"m1", "m2"}, {"m2", "m3"}, {"m3", "m4"}, {"m4", "m1"}}
		ct.inner = c.Transport
		c.Transport = ct
	})
	ts := make([]rdf.Triple, nsubj)
	for i := range ts {
		ts[i] = rdf.NewTriple(rdf.NewIRI(testSubjectIRI(i)), rdf.NewIRI("http://ex/p0"), rdf.NewInteger(int64(i)))
	}
	if applied, err := tc.c.AddAll(context.Background(), ts); err != nil || len(applied) != nsubj {
		t.Fatalf("preload: %d/%d applied: %v", len(applied), nsubj, err)
	}
	for i, tr := range ts {
		before := ct.total()
		if rows := tc.c.Match(tr.S, rdf.Term{}, rdf.Term{}); len(rows) != 1 {
			t.Fatalf("subject %d: %d rows, want 1", i, len(rows))
		}
		if n := ct.total() - before; n != 1 {
			t.Fatalf("subject %d: Match cost %d RPCs, want 1", i, n)
		}
	}
	busiest := ""
	for node, n := range ct.calls {
		if busiest == "" || n > ct.calls[busiest] {
			busiest = node
		}
	}
	t.Logf("match RPCs per node: %v", ct.calls)
	if share := float64(ct.calls[busiest]) / nsubj; share > 0.40 {
		t.Fatalf("busiest node %s serves %.0f%% of routed reads, ceiling is 40%%", busiest, 100*share)
	}
}

func TestClusterFailoverAndDemotion(t *testing.T) {
	tc := newTestCluster(t, nil)
	oracle := strabon.New()
	ctx := context.Background()
	applied, err := tc.c.AddAll(ctx, clusterTriples(30, 0))
	if err != nil {
		t.Fatal(err)
	}
	oracle.AddAll(applied)

	tc.net.Kill("n2")
	before := tc.reg.Snapshot()
	// n2 leads group 1; each single-pattern fan-out read fails over to
	// n3 there, and the third consecutive failure demotes n2.
	for i := 0; i < 3; i++ {
		mustMatchOracle(t, tc, oracle, qFan, "after kill")
	}
	after := tc.reg.Snapshot()
	if d := after.Counters[`cluster_demotions_total{node="n2"}`] - before.Counters[`cluster_demotions_total{node="n2"}`]; d != 1 {
		t.Fatalf("n2 demotions = %d, want 1", d)
	}
	if _, demoted := tc.c.health.Status("n2"); !demoted {
		t.Fatal("n2 should be demoted")
	}
	// Demoted replicas are not contacted: no new replica errors.
	s0 := tc.reg.Snapshot()
	mustMatchOracle(t, tc, oracle, qFan, "post demotion")
	s1 := tc.reg.Snapshot()
	if d := s1.Counters[`cluster_replica_errors_total{node="n2"}`] - s0.Counters[`cluster_replica_errors_total{node="n2"}`]; d != 0 {
		t.Fatalf("demoted n2 still contacted: %d errors", d)
	}
}

func TestClusterWholeGroupLossIsPartial(t *testing.T) {
	tc := newTestCluster(t, nil)
	oracle := strabon.New()
	ctx := context.Background()
	applied, _ := tc.c.AddAll(ctx, clusterTriples(30, 0))
	oracle.AddAll(applied)

	// Group 1 is {n2, n3}: killing both makes it unreadable.
	tc.net.Kill("n2")
	tc.net.Kill("n3")
	before := tc.reg.Snapshot()
	got, partial, err := evalPartial(ctx, tc.c, qFan)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if !partial {
		t.Fatal("whole-group loss must flag partial")
	}
	after := tc.reg.Snapshot()
	if after.Counters["cluster_partial_total"] == before.Counters["cluster_partial_total"] {
		t.Fatal("cluster_partial_total did not move")
	}
	// The partial answer is a strict subset of the oracle's.
	want, err := sparql.Eval(oracle, qFan)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := map[string]bool{}
	for i := range want.Bindings {
		b := want.Binding(i)
		wantRows[b["s"].Key()+"|"+b["o"].Key()] = true
	}
	if len(got.Bindings) == 0 || len(got.Bindings) >= len(want.Bindings) {
		t.Fatalf("partial answer has %d rows, oracle %d", len(got.Bindings), len(want.Bindings))
	}
	for i := range got.Bindings {
		b := got.Binding(i)
		if !wantRows[b["s"].Key()+"|"+b["o"].Key()] {
			t.Fatalf("partial answer invented row %v", b)
		}
	}
}

func TestClusterHedgedRead(t *testing.T) {
	tc := newTestCluster(t, nil)
	ctx := context.Background()
	applied, err := tc.c.AddAll(ctx, clusterTriples(30, 0))
	if err != nil || len(applied) == 0 {
		t.Fatalf("seed: %v", err)
	}

	// n2 leads group 1 and turns slow; the hedge (10ms) fires long
	// before n2's 50ms injected latency, and n3's instant answer wins.
	tc.net.SetSlow("n2", 50*time.Millisecond)
	before := tc.reg.Snapshot()
	timersBefore := tc.clk.Timers()
	type res struct {
		ts  []rdf.Triple
		ok  bool
		err error
	}
	done := make(chan res, 1)
	go func() {
		answers, ok, err := readGroup(ctx, tc.c, 1, []rdf.Ref{rdf.PatternRef(rdf.Term{}, rdf.NewIRI("http://ex/p0"), rdf.Term{})}, decodeTriples)
		var ts []rdf.Triple
		if err == nil {
			ts = answers[0]
		}
		done <- res{ts, ok, err}
	}()
	// Two timers register: n2's injected latency and the hedge delay.
	tc.clk.AwaitTimers(timersBefore + 2)
	tc.clk.Advance(10 * time.Millisecond)
	r := <-done
	if r.err != nil || !r.ok {
		t.Fatalf("hedged read: ok=%v err=%v", r.ok, r.err)
	}
	after := tc.reg.Snapshot()
	if d := after.Counters["cluster_hedges_total"] - before.Counters["cluster_hedges_total"]; d != 1 {
		t.Fatalf("hedges fired = %d, want 1", d)
	}
	if d := after.Counters["cluster_hedge_wins_total"] - before.Counters["cluster_hedge_wins_total"]; d != 1 {
		t.Fatalf("hedge wins = %d, want 1", d)
	}
	// No duplicate rows from the raced replicas.
	seen := map[string]bool{}
	for _, tr := range r.ts {
		k := exchangeTripleKeyForTest(tr)
		if seen[k] {
			t.Fatalf("duplicate triple %v", tr)
		}
		seen[k] = true
	}
	// Drain n2's late answer; it must not disturb anything.
	tc.clk.Advance(50 * time.Millisecond)
}

// TestHedgedBatchLoserDecodesAlone: a hedged batch read returns the
// winner's refs while the loser has yet to answer; the loser then
// decodes its own answer while the caller reads the winner's terms.
// Each leg decodes into memory only it owns, so the winner's answer
// reads the same terms throughout, and under -race a decode into shared
// memory would be reported.
func TestHedgedBatchLoserDecodesAlone(t *testing.T) {
	tc := newTestCluster(t, nil)
	ctx := context.Background()
	if _, err := tc.c.AddAll(ctx, clusterTriples(60, 0)); err != nil {
		t.Fatal(err)
	}
	// n2 leads group 1 and is slow: the hedge to n3 wins.
	tc.net.SetSlow("n2", 50*time.Millisecond)
	pats := []rdf.Ref{rdf.PatternRef(rdf.Term{}, rdf.NewIRI("http://ex/p0"), rdf.Term{}), rdf.PatternRef(rdf.Term{}, rdf.NewIRI("http://ex/p1"), rdf.Term{})}
	idle := runtime.NumGoroutine()
	timers := tc.clk.Timers()
	done := make(chan [][]rdf.Ref, 1)
	go func() {
		answers, err := tc.c.FragmentMatchBatch(ctx, 1, pats)
		if err != nil {
			t.Error(err)
		}
		done <- answers
	}()
	tc.clk.AwaitTimers(timers + 2)
	tc.clk.Advance(10 * time.Millisecond)
	answers := <-done
	snapshot := func() string {
		var sb strings.Builder
		for _, a := range answers {
			for _, r := range a {
				sb.WriteString(r.S.Key() + r.P.Key() + r.O.Key() + "\n")
			}
		}
		return sb.String()
	}
	want := snapshot()
	if len(answers) != 2 || len(answers[0]) == 0 || len(answers[1]) == 0 {
		t.Fatalf("hedged batch: %d answers", len(answers))
	}
	// Release the loser and read the winner's terms until its leg has
	// decoded and gone.
	tc.clk.Advance(50 * time.Millisecond)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > idle && time.Now().Before(deadline); {
		if got := snapshot(); got != want {
			t.Fatal("the winner's answer changed while the loser decoded")
		}
		runtime.Gosched()
	}
	if got := snapshot(); got != want {
		t.Fatal("the winner's answer changed after the loser decoded")
	}
}

// TestTimedVariantsThroughCluster: one shard holds two triples that
// differ only in valid time. A routed scan, a fan-out and a bind-join
// batch answer what EvalSeed answers over one store holding the same
// triples, both variants included: fragments are disjoint, so the ref
// merge drops nothing. Coordinator.Match still returns both triples,
// with their valid time.
func TestTimedVariantsThroughCluster(t *testing.T) {
	tc := newTestCluster(t, nil)
	ctx := context.Background()
	ts := clusterTriples(20, 0)
	timed := ts[0]
	timed.ValidFrom = time.Date(2019, 3, 26, 0, 0, 0, 0, time.UTC)
	timed.ValidTo = timed.ValidFrom.Add(72 * time.Hour)
	ts = append(ts, timed)
	if applied, err := tc.c.AddAll(ctx, ts); err != nil || len(applied) != len(ts) {
		t.Fatalf("load: %d of %d applied: %v", len(applied), len(ts), err)
	}
	oracle := strabon.New()
	oracle.AddAll(ts)
	for name, q := range map[string]string{"routed": qRouted(0), "fan-out": qFan, "bind join": qJoin3} {
		got, partial, err := evalPartial(ctx, tc.c, q)
		if err != nil || partial {
			t.Fatalf("%s: partial=%v err=%v", name, partial, err)
		}
		want, err := sparql.EvalSeed(oracle, q)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := canonResults(got), canonResults(want); g != w {
			t.Fatalf("%s: %d rows, EvalSeed %d:\n%s\nwant\n%s", name, len(got.Bindings), len(want.Bindings), g, w)
		}
	}
	got := tc.c.Match(timed.S, timed.P, rdf.Term{})
	if len(got) != 2 || got[0].HasValidTime() == got[1].HasValidTime() {
		t.Fatalf("Match answered %v, want the triple with and without valid time", got)
	}
	for _, tr := range got {
		if tr.HasValidTime() && (!tr.ValidFrom.Equal(timed.ValidFrom) || !tr.ValidTo.Equal(timed.ValidTo)) {
			t.Fatalf("valid time came back as %v", tr)
		}
	}
}

// TestClusterHedgeScalesWithBatch pins the adaptive hedge rule on the
// fake clock: a read of n patterns judges each sample of a smaller read
// as its latency times n over that read's pattern count. With the
// window full of 2 ms single-pattern reads, a 10-pattern batch waits
// 20 ms before it hedges, so group 1's leader answering it after 15 ms
// fires no hedge, while a single-pattern read that slow is hedged at
// 2 ms and the backup wins.
func TestClusterHedgeScalesWithBatch(t *testing.T) {
	tc := newTestCluster(t, func(c *Config) { c.HedgeAfter = 0 })
	ctx := context.Background()
	if _, err := tc.c.AddAll(ctx, clusterTriples(30, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		tc.c.lat.add(2*time.Millisecond, 1)
	}
	if d1, d10 := tc.c.hedgeDelay(1), tc.c.hedgeDelay(10); d1 != 2*time.Millisecond || d10 != 20*time.Millisecond {
		t.Fatalf("hedge delay %v for one pattern, %v for ten; want 2ms and 20ms", d1, d10)
	}
	batch := make([]rdf.Ref, 10)
	for i := range batch {
		batch[i] = rdf.PatternRef(rdf.Term{}, rdf.NewIRI("http://ex/p0"), rdf.NewInteger(int64(i)))
	}
	tc.net.SetSlow("n2", 15*time.Millisecond)
	read := func(pats []rdf.Ref, step time.Duration) (hedges, wins int64) {
		t.Helper()
		before, timers := tc.reg.Snapshot(), tc.clk.Timers()
		done := make(chan bool, 1)
		go func() {
			_, ok, err := readGroup(ctx, tc.c, 1, pats, decodeTriples)
			done <- ok && err == nil
		}()
		// n2's latency and the hedge delay.
		tc.clk.AwaitTimers(timers + 2)
		tc.clk.Advance(step)
		if !<-done {
			t.Fatal("read failed")
		}
		after := tc.reg.Snapshot()
		return after.Counters["cluster_hedges_total"] - before.Counters["cluster_hedges_total"],
			after.Counters["cluster_hedge_wins_total"] - before.Counters["cluster_hedge_wins_total"]
	}
	if hedges, _ := read(batch, 15*time.Millisecond); hedges != 0 {
		t.Fatalf("a 10-pattern read answered in 15ms fired %d hedges, want 0", hedges)
	}
	if hedges, wins := read(batch[:1], 2*time.Millisecond); hedges != 1 || wins != 1 {
		t.Fatalf("a 1-pattern read silent for 2ms: %d hedges, %d wins; want 1 and 1", hedges, wins)
	}
	tc.clk.Advance(time.Hour) // drain the abandoned slow reply
}

// TestBindJoinReadsPerStep: the benchmark's three-pattern join over
// three groups costs one fan-out of three reads, then at most one read
// per group for each of its two subject-bound steps, counted by
// cluster_rpcs_total{type="match"} — not one read per row.
func TestBindJoinReadsPerStep(t *testing.T) {
	tc := newTestCluster(t, nil)
	oracle := strabon.New()
	applied, err := tc.c.AddAll(context.Background(), clusterTriples(60, 0))
	if err != nil {
		t.Fatal(err)
	}
	oracle.AddAll(applied)
	const series = `cluster_rpcs_total{type="match"}`
	before := tc.reg.Snapshot()
	mustMatchOracle(t, tc, oracle, qJoin3, "bind join")
	after := tc.reg.Snapshot()
	groups := int64(tc.c.Shards())
	if reads := after.Counters[series] - before.Counters[series]; reads > groups+2*groups {
		t.Fatalf("60-row join cost %d match reads, want <= %d (a fan-out, then one read per group per step)", reads, 3*groups)
	}
	h := after.Histograms["cluster_read_patterns"]
	if sum := h.Sum - before.Histograms["cluster_read_patterns"].Sum; sum != 3+2*60 {
		t.Fatalf("cluster_read_patterns sums to %v, want %d (3 fan-out patterns, 60 per step)", sum, 3+2*60)
	}
}

// TestBatchAnswerSplitAcrossFrames: a batch whose answer outgrows the
// frame cap is completed by further reads, over TCP and over the
// in-memory fabric alike: the answers are the same, complete, and
// never partial, and each answer's subject is its pattern's own handle,
// in the later reads too.
func TestBatchAnswerSplitAcrossFrames(t *testing.T) {
	// One subject's two triples encode to well under 256 bytes: a 256-
	// byte cap fits a few patterns per frame. The cap is set before the
	// nodes start and restored after they stop.
	old := matchAnswerCap
	matchAnswerCap = 256
	t.Cleanup(func() { matchAnswerCap = old })
	tr := NewTCPTransport()
	defer tr.Close()
	a := serveNodes(t, 2)
	tcp, err := NewCoordinator(Config{Groups: [][]string{{a[0], a[1]}}, Transport: tr, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	mem := newTestCluster(t, func(c *Config) { c.Groups = [][]string{{"n1", "n2"}} })
	oracle := strabon.New()
	ts := clusterTriples(40, 0)
	oracle.AddAll(ts)
	pats := make([]rdf.Ref, 0, 40)
	for i := 0; i < 40; i++ {
		pats = append(pats, rdf.PatternRef(rdf.NewIRI(testSubjectIRI(i)), rdf.Term{}, rdf.Term{}))
	}
	for name, c := range map[string]*Coordinator{"tcp": tcp, "mem": mem.c} {
		if applied, err := c.AddAll(context.Background(), ts); err != nil || len(applied) != len(ts) {
			t.Fatalf("%s: load: %d of %d applied: %v", name, len(applied), len(ts), err)
		}
		before := c.Metrics.Snapshot()
		ctx, tally := scatter.WithTally(context.Background())
		answers, err := c.FragmentMatchBatch(ctx, 0, pats)
		if err != nil || tally.Partial() {
			t.Fatalf("%s: split batch: partial=%v err=%v", name, tally.Partial(), err)
		}
		reads := c.Metrics.Snapshot().Counters[`cluster_rpcs_total{type="match"}`] - before.Counters[`cluster_rpcs_total{type="match"}`]
		if reads < 4 {
			t.Fatalf("%s: 40 patterns over a %d-byte cap took %d reads, want several", name, matchAnswerCap, reads)
		}
		if len(answers) != len(pats) {
			t.Fatalf("%s: %d answers for %d patterns", name, len(answers), len(pats))
		}
		for i, p := range pats {
			want := oracle.Match(p.Terms())
			if len(answers[i]) != len(want) || len(want) != 2 {
				t.Fatalf("%s: pattern %d: %d triples, want %d", name, i, len(answers[i]), len(want))
			}
			for _, r := range answers[i] {
				if r.S != p.S {
					t.Fatalf("%s: pattern %d answered with %v %v %v", name, i, *r.S, *r.P, *r.O)
				}
			}
		}
	}
}

// TestClusterHedgeSkipsBenched: a benched member is failover-only. With
// group 1's leader slow and its other member demoted, no hedge timer is
// armed at all, the fabric parks on the leader's latency alone, and the
// leader's late answer is the read's answer.
func TestClusterHedgeSkipsBenched(t *testing.T) {
	tc := newTestCluster(t, func(c *Config) { c.RetryCooldown = 24 * time.Hour })
	ctx := context.Background()
	if _, err := tc.c.AddAll(ctx, clusterTriples(30, 0)); err != nil {
		t.Fatal(err)
	}
	for !tc.c.health.Record("n3", false, tc.clk.Now()) {
	}
	tc.net.SetSlow("n2", 50*time.Millisecond)
	before := tc.reg.Snapshot()
	timersBefore := tc.clk.Timers()
	if tc.net.Parked() {
		t.Fatal("an idle fabric reported parked")
	}
	done := make(chan bool, 1)
	go func() {
		_, ok, _ := readGroup(ctx, tc.c, 1, []rdf.Ref{rdf.PatternRef(rdf.Term{}, rdf.NewIRI("http://ex/p0"), rdf.Term{})}, decodeTriples)
		done <- ok
	}()
	tc.clk.AwaitTimers(timersBefore + 1)
	for !tc.net.Parked() {
		runtime.Gosched()
	}
	tc.clk.Advance(50 * time.Millisecond)
	if !<-done {
		t.Fatal("the slow leader's answer was not accepted")
	}
	after := tc.reg.Snapshot()
	if d := after.Counters["cluster_hedges_total"] - before.Counters["cluster_hedges_total"]; d != 0 {
		t.Fatalf("hedges fired = %d, want 0: the only other member is benched", d)
	}
	if got := tc.clk.Timers(); got != timersBefore+1 {
		t.Fatalf("%d timers armed, want 1 (n2's latency; no hedge)", got-timersBefore)
	}
}

// TestClusterMatchErrReadsGroupsInParallel: a direct, unrouted MatchErr
// reads the three replica groups at once. With every node slowed by d,
// all three reads wait out their latency together, and the answer comes
// after one d of fake time, not three.
func TestClusterMatchErrReadsGroupsInParallel(t *testing.T) {
	const d = 50 * time.Millisecond
	tc := newTestCluster(t, func(c *Config) { c.Groups = [][]string{{"n1"}, {"n2"}, {"n3"}} })
	if _, err := tc.c.AddAll(context.Background(), clusterTriples(30, 0)); err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"n1", "n2", "n3"} {
		tc.net.SetSlow(node, d)
	}
	type out struct {
		ts  []rdf.Triple
		err error
	}
	done := make(chan out, 1)
	start, timers := tc.clk.Now(), tc.clk.Timers()
	go func() {
		ts, err := tc.c.MatchErr(rdf.Term{}, rdf.NewIRI("http://ex/p0"), rdf.Term{})
		done <- out{ts, err}
	}()
	// One latency timer per group read in flight; the clock stays put
	// until all three are armed.
	for wait := time.Now().Add(10 * time.Second); tc.clk.Timers() < timers+3 || !tc.net.Parked(); runtime.Gosched() {
		if time.Now().After(wait) {
			t.Fatalf("%d of 3 group reads in flight: the groups are read one after another", tc.clk.Timers()-timers)
		}
	}
	tc.clk.Advance(d)
	got := <-done
	if got.err != nil || len(got.ts) != 30 {
		t.Fatalf("MatchErr = %d triples, %v; want 30", len(got.ts), got.err)
	}
	if elapsed := tc.clk.Now().Sub(start); elapsed != d {
		t.Fatalf("answered after %v of fake time, want %v", elapsed, d)
	}
}

func exchangeTripleKeyForTest(t rdf.Triple) string {
	return t.S.Key() + "\x1f" + t.P.Key() + "\x1f" + t.O.Key()
}

func TestClusterLogTailCatchup(t *testing.T) {
	tc := newTestCluster(t, nil)
	oracle := strabon.New()
	ctx := context.Background()
	applied, _ := tc.c.AddAll(ctx, clusterTriples(20, 0))
	oracle.AddAll(applied)

	// n3 (groups 1 and 2) drops off the network but keeps its state.
	tc.net.Partition("n3")
	missedBefore := tc.c.LogSeq(1) + tc.c.LogSeq(2)
	applied, err := tc.c.AddAll(ctx, clusterTriples(20, 100))
	if err != nil {
		t.Fatalf("writes during partition: %v", err)
	}
	oracle.AddAll(applied)
	missed := tc.c.LogSeq(1) + tc.c.LogSeq(2) - missedBefore
	if missed == 0 {
		t.Fatal("test data never hit n3's shards")
	}

	tc.net.Heal("n3")
	before := tc.reg.Snapshot()
	tc.c.Repair(ctx)
	after := tc.reg.Snapshot()
	if d := after.Counters["cluster_catchup_records_total"] - before.Counters["cluster_catchup_records_total"]; d != int64(missed) {
		t.Fatalf("catch-up records = %d, want %d", d, missed)
	}
	if d := after.Counters["cluster_catchup_snapshots_total"] - before.Counters["cluster_catchup_snapshots_total"]; d != 0 {
		t.Fatalf("tail catch-up took %d snapshots, want 0", d)
	}
	// n3 is now at the committed position on both its shards.
	for _, sh := range []int{1, 2} {
		resp, err := tc.net.Call(ctx, "n3", Message{Type: MsgSeqReq, Shard: uint32(sh)})
		if err != nil || resp.Seq != tc.c.LogSeq(sh) {
			t.Fatalf("n3 shard %d at seq %d, want %d (err %v)", sh, resp.Seq, tc.c.LogSeq(sh), err)
		}
	}
	// Reads served by n3 alone stay oracle-identical.
	tc.net.Kill("n2")
	mustMatchOracle(t, tc, oracle, qFan, "after catch-up")
}

func TestClusterSnapshotBootstrap(t *testing.T) {
	tc := newTestCluster(t, nil)
	oracle := strabon.New()
	ctx := context.Background()
	applied, _ := tc.c.AddAll(ctx, clusterTriples(25, 0))
	oracle.AddAll(applied)

	// n1 dies losing all state; the logs for its shards (0 and 2) are
	// compacted, so a tail replay is impossible and Repair must ship a
	// snapshot from the surviving replica.
	tc.net.Kill("n1")
	applied, err := tc.c.AddAll(ctx, clusterTriples(25, 200))
	if err != nil {
		t.Fatalf("writes while n1 dead: %v", err)
	}
	oracle.AddAll(applied)
	tc.c.TruncateLog(0, tc.c.LogSeq(0))
	tc.c.TruncateLog(2, tc.c.LogSeq(2))

	tc.net.Restart("n1")
	before := tc.reg.Snapshot()
	tc.c.Repair(ctx)
	after := tc.reg.Snapshot()
	if d := after.Counters["cluster_catchup_snapshots_total"] - before.Counters["cluster_catchup_snapshots_total"]; d != 2 {
		t.Fatalf("snapshot bootstraps = %d, want 2", d)
	}
	// n1 is back at the committed position on both its shards…
	for _, sh := range []int{0, 2} {
		resp, err := tc.net.Call(ctx, "n1", Message{Type: MsgMatchReq, Shard: uint32(sh)})
		if err != nil || resp.Type != MsgMatchResp {
			t.Fatalf("n1 match shard %d: %v %+v", sh, err, resp)
		}
		if resp.Seq != tc.c.LogSeq(sh) {
			t.Fatalf("n1 shard %d seq %d, want %d", sh, resp.Seq, tc.c.LogSeq(sh))
		}
	}
	// …and with n2 gone, reads on shard 0 are served by n1 alone,
	// byte-identical to the oracle.
	tc.net.Kill("n2")
	mustMatchOracle(t, tc, oracle, qFan, "after snapshot bootstrap")
}

func TestClusterFanoutBudget(t *testing.T) {
	tc := newTestCluster(t, nil)
	ctx := context.Background()
	if _, err := tc.c.AddAll(ctx, clusterTriples(10, 0)); err != nil {
		t.Fatal(err)
	}
	b := admission.NewBudget(admission.Limits{MaxFanout: 2}, nil)
	bctx := admission.WithBudget(ctx, b)
	_, _, err := evalPartial(bctx, tc.c, qFan)
	if err == nil {
		t.Fatal("fan-out past the budget should abort")
	}
	if !admission.Aborted(err) {
		t.Fatalf("budget violation not an admission abort: %v", err)
	}
}

func TestClusterWriteUnavailable(t *testing.T) {
	tc := newTestCluster(t, nil)
	ctx := context.Background()
	// Kill group 1 entirely; writes placed there must fail, everything
	// else still commits, and AddAll reports exactly what was applied.
	tc.net.Kill("n2")
	tc.net.Kill("n3")
	ts := clusterTriples(30, 0)
	applied, err := tc.c.AddAll(ctx, ts)
	if err == nil {
		t.Fatal("write into a dead group should error")
	}
	if len(applied) == 0 || len(applied) >= len(ts) {
		t.Fatalf("applied %d of %d", len(applied), len(ts))
	}
	for _, tr := range applied {
		if sh := tc.c.ShardOf(tr); sh == 1 {
			t.Fatalf("triple %v reported applied on dead shard", tr)
		}
	}
	if tc.c.LogSeq(1) != 0 {
		t.Fatal("dead shard's log advanced")
	}
}
