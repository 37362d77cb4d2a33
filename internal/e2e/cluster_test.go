package e2e

// Cluster golden suite: the Figure-1 materialized workflow served by a
// replicated 3-node cluster on the deterministic fabric (MemNetwork +
// fake clock, zero real sleeps). The paper's Listing 3 workflow runs
// three times — healthy, with a node killed mid-workload, and after
// restart + log-tail catch-up — and every run must answer canonically
// identical to a single golden strabon.Store, while the cluster_*
// counters move by exactly the expected deltas (demotions, hedges,
// catch-up records).

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"applab/internal/cluster"
	"applab/internal/core"
	"applab/internal/faults"
	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
	"applab/internal/workload"
)

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

// evalCluster evaluates a query against the coordinator while driving
// the fake clock, so reads blocked on injected latency make progress.
// The clock steps only while the fabric is parked on that latency: a
// call that is running, or has answered, needs no time, and stepping
// past it would fire the coordinator's hedge timer on a reply that is
// already on its way — the counters below are exact only without that.
func evalCluster(t *testing.T, clk *faults.Clock, net *cluster.MemNetwork, c *cluster.Coordinator, q string) (*sparql.Results, bool) {
	t.Helper()
	var res *sparql.Results
	var partial bool
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, partial, err = evalPartial(context.Background(), c, q)
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
			if err != nil {
				t.Fatalf("cluster eval: %v", err)
			}
			return res, partial
		default:
		}
		if i > 1_000_000 {
			t.Fatal("cluster eval made no progress")
		}
		if net.Parked() {
			clk.Advance(time.Millisecond)
		}
		runtime.Gosched()
	}
}

func TestClusterGoldenWorkflows(t *testing.T) {
	clk := faults.NewClock(time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC))
	reg := telemetry.NewRegistry()
	reg.Now = clk.Now

	// The shared product, materialized exactly as the golden workflow
	// test does.
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 4, 4, 2
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"
	triples, err := workload.LAIGridToRDF(grid, "LAI")
	if err != nil {
		t.Fatal(err)
	}
	golden := strabon.New()
	golden.AddAll(triples)

	// A 3-node RF-2 cluster over the deterministic fabric.
	net := cluster.NewMemNetwork()
	net.After = clk.After
	for _, id := range []string{"n1", "n2", "n3"} {
		net.AddNode(cluster.NewNode(id))
	}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Groups:        [][]string{{"n1", "n2"}, {"n2", "n3"}, {"n3", "n1"}},
		Transport:     net,
		Metrics:       reg,
		Now:           clk.Now,
		After:         clk.After,
		HedgeAfter:    10 * time.Millisecond,
		RetryCooldown: 24 * time.Hour, // keep demoted members benched for the whole test
	})
	if err != nil {
		t.Fatal(err)
	}
	applied, err := coord.AddAll(context.Background(), triples)
	if err != nil || len(applied) != len(triples) {
		t.Fatalf("cluster ingest: %d/%d applied, err %v", len(applied), len(triples), err)
	}

	goldenRes, err := golden.Query(core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	goldenRows := canonical(t, goldenRes)
	if len(goldenRows) == 0 {
		t.Fatal("golden workflow returned nothing")
	}

	// Workflow run 1: healthy cluster.
	res, partial := evalCluster(t, clk, net, coord, core.Listing3Query)
	if partial {
		t.Fatal("healthy cluster answered partial")
	}
	if !equalRows(goldenRows, canonical(t, res)) {
		t.Fatalf("healthy cluster diverged from golden store")
	}

	// Kill n2 mid-workload. n2 leads replica group 1, so each fan-out
	// pattern scan fails over to n3 and records one n2 failure; three
	// single-pattern probes push it over the default demotion threshold
	// exactly once.
	net.Kill("n2")
	s0 := reg.Snapshot()
	probe := `SELECT ?s ?o WHERE { ?s <` + rdf.NSLAI + `lai> ?o }`
	for i := 0; i < 3; i++ {
		if _, partial := evalCluster(t, clk, net, coord, probe); partial {
			t.Fatalf("probe %d answered partial with one node down", i)
		}
	}
	s1 := reg.Snapshot()
	wantCounters(t, "node kill", s0, s1, map[string]int64{
		`cluster_demotions_total{node="n2"}`:      1,
		`cluster_replica_errors_total{node="n2"}`: 3,
		"cluster_partial_total":                   0,
		"cluster_hedges_total":                    0,
	})

	// Workflow run 2: the Listing 3 workflow with the node still dead —
	// same canonical answer, no partiality, and the demoted n2 is never
	// contacted again (zero new n2 errors).
	res, partial = evalCluster(t, clk, net, coord, core.Listing3Query)
	if partial {
		t.Fatal("cluster answered partial with replication available")
	}
	if !equalRows(goldenRows, canonical(t, res)) {
		t.Fatalf("mid-kill workflow diverged from golden store")
	}
	s2 := reg.Snapshot()
	if got := counterDelta(s1, s2, `cluster_replica_errors_total{node="n2"}`); got != 0 {
		t.Fatalf("demoted n2 was contacted %d times", got)
	}

	// Restart n2 (empty) and repair: the log tail replays every record
	// n2 missed — its two shards' full logs, counted exactly — with no
	// snapshot transfer (nothing was truncated).
	net.Restart("n2")
	s3 := reg.Snapshot()
	coord.Repair(context.Background())
	s4 := reg.Snapshot()
	wantCatchup := int64(coord.LogSeq(0) + coord.LogSeq(1))
	wantCounters(t, "catch-up", s3, s4, map[string]int64{
		"cluster_catchup_records_total":   wantCatchup,
		"cluster_catchup_snapshots_total": 0,
	})

	// Hedged read: slow down n3 (leader of group 2) and run a routed
	// subject lookup. The hedge timer fires after 10ms of fake time and
	// the duplicate read wins on n1 — exactly one hedge, one win, and
	// the same rows the golden store holds for that subject.
	var subj rdf.Term
	for _, tr := range triples {
		if coord.ShardOf(tr) == 2 {
			subj = tr.S
			break
		}
	}
	if subj.IsZero() {
		t.Fatal("no triple routed to shard 2")
	}
	net.SetSlow("n3", 50*time.Millisecond)
	s5 := reg.Snapshot()
	routed := fmt.Sprintf(`SELECT ?p ?o WHERE { <%s> ?p ?o }`, subj.Value)
	type evalOut struct {
		res     *sparql.Results
		partial bool
		err     error
	}
	outc := make(chan evalOut, 1)
	timersBefore := clk.Timers()
	go func() {
		res, partial, err := evalPartial(context.Background(), coord, routed)
		outc <- evalOut{res, partial, err}
	}()
	// Two timers arm: the slow n3 delivery and the hedge. Fire the hedge
	// only; the duplicate to n1 answers immediately.
	clk.AwaitTimers(timersBefore + 2)
	clk.Advance(10 * time.Millisecond)
	out := <-outc
	clk.Advance(50 * time.Millisecond) // drain the abandoned slow reply
	if out.err != nil || out.partial {
		t.Fatalf("hedged eval: partial=%v err=%v", out.partial, out.err)
	}
	s6 := reg.Snapshot()
	wantCounters(t, "hedged read", s5, s6, map[string]int64{
		"cluster_hedges_total":     1,
		"cluster_hedge_wins_total": 1,
		"cluster_partial_total":    0,
	})
	wantGolden, err := golden.Query(routed)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonPO(out.res), canonPO(wantGolden); !equalRows(want, got) {
		t.Fatalf("hedged routed read diverged: got %v want %v", got, want)
	}
	if len(out.res.Bindings) != len(wantGolden.Bindings) {
		t.Fatalf("hedged read duplicated rows: %d vs %d", len(out.res.Bindings), len(wantGolden.Bindings))
	}

	// Workflow run 3: everything healed (n3 still slow is fine — n2 is
	// caught up but benched; n1 serves). Answers remain golden.
	net.SetSlow("n3", 0)
	res, partial = evalCluster(t, clk, net, coord, core.Listing3Query)
	if partial {
		t.Fatal("post-repair cluster answered partial")
	}
	if !equalRows(goldenRows, canonical(t, res)) {
		t.Fatalf("post-repair workflow diverged from golden store")
	}
}

// canonPO canonicalizes ?p/?o rows of the routed subject lookup.
func canonPO(res *sparql.Results) []string {
	rows := make([]string, 0, len(res.Bindings))
	for i := range res.Bindings {
		b := res.Binding(i)
		rows = append(rows, b["p"].Key()+"|"+b["o"].Key())
	}
	sort.Strings(rows)
	return rows
}
