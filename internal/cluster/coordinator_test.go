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

func qRouted(i int) string {
	return fmt.Sprintf(`SELECT ?p ?o WHERE { <%s> ?p ?o }`, testSubjectIRI(i))
}

// canonResults canonicalizes evaluation output: rows rendered with
// sorted variables, then sorted — byte-identical iff the solution sets
// are identical.
func canonResults(res *sparql.Results) string {
	rows := make([]string, 0, len(res.Bindings))
	for _, b := range res.Bindings {
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
	got, partial, err := tc.c.EvalPartialContext(context.Background(), query)
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
	got, partial, err := tc.c.EvalPartialContext(ctx, qFan)
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
	for _, b := range want.Bindings {
		wantRows[b["s"].Key()+"|"+b["o"].Key()] = true
	}
	if len(got.Bindings) == 0 || len(got.Bindings) >= len(want.Bindings) {
		t.Fatalf("partial answer has %d rows, oracle %d", len(got.Bindings), len(want.Bindings))
	}
	for _, b := range got.Bindings {
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
		ts, ok, err := tc.c.fragmentRead(ctx, 1, rdf.Term{}, rdf.NewIRI("http://ex/p0"), rdf.Term{})
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
		_, ok, _ := tc.c.fragmentRead(ctx, 1, rdf.Term{}, rdf.NewIRI("http://ex/p0"), rdf.Term{})
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
	_, _, err := tc.c.EvalPartialContext(bctx, qFan)
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
