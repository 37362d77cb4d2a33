package cluster

import (
	"context"
	"testing"
	"time"

	"applab/internal/rdf"
	"applab/internal/sparql"
)

// The coordinator must satisfy the full engine source surface.
var (
	_ sparql.Source         = (*Coordinator)(nil)
	_ sparql.ErrorSource    = (*Coordinator)(nil)
	_ sparql.ExchangeSource = (*Coordinator)(nil)
	_ sparql.ExchangeSource = (*partialSession)(nil)
)

func TestCoordinatorSourceSurface(t *testing.T) {
	tc := newTestCluster(t, nil)
	ctx := context.Background()
	ts := clusterTriples(20, 0)
	if _, err := tc.c.AddAll(ctx, ts); err != nil {
		t.Fatal(err)
	}
	if got := tc.c.Fragments(); got != 3 {
		t.Fatalf("Fragments = %d", got)
	}
	// Plain Match fans out and merges canonically (sorted, no dupes).
	all := tc.c.Match(rdf.Term{}, rdf.NewIRI("http://ex/p0"), rdf.Term{})
	if len(all) != 20 {
		t.Fatalf("Match: %d triples, want 20", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].S.Key() > all[i].S.Key() {
			t.Fatal("Match output not canonically ordered")
		}
	}
	// Routed single-subject Match.
	one := tc.c.Match(ts[0].S, rdf.Term{}, rdf.Term{})
	if len(one) != 2 {
		t.Fatalf("routed Match: %d triples, want 2", len(one))
	}
	if _, err := tc.c.MatchErr(rdf.Term{}, rdf.NewIRI("http://ex/p0"), rdf.Term{}); err != nil {
		t.Fatalf("MatchErr healthy: %v", err)
	}
	// FragmentMatch degrades, MatchErr surfaces, when a group dies.
	tc.net.Kill("n2")
	tc.net.Kill("n3")
	if ts, err := tc.c.FragmentMatch(ctx, 1, rdf.Term{}, rdf.Term{}, rdf.Term{}); err != nil || len(ts) != 0 {
		t.Fatalf("FragmentMatch on dead group: %v, %d triples", err, len(ts))
	}
	if _, err := tc.c.MatchErr(rdf.Term{}, rdf.NewIRI("http://ex/p0"), rdf.Term{}); err == nil {
		t.Fatal("MatchErr should surface a dead group")
	}
	// Routed MatchErr against the dead group errors too.
	var deadSubj rdf.Term
	for i := 0; i < 200; i++ {
		s := rdf.NewIRI(testSubjectIRI(i))
		if g, ok := tc.c.Route(s, rdf.Term{}, rdf.Term{}); ok && g == 1 {
			deadSubj = s
			break
		}
	}
	if deadSubj.IsZero() {
		t.Fatal("no subject routed to group 1")
	}
	if _, err := tc.c.MatchErr(deadSubj, rdf.Term{}, rdf.Term{}); err == nil {
		t.Fatal("routed MatchErr should surface the dead group")
	}
}

func TestNewCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(Config{}); err == nil {
		t.Fatal("no groups accepted")
	}
	if _, err := NewCoordinator(Config{Groups: [][]string{{}}, Transport: NewMemNetwork()}); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := NewCoordinator(Config{Groups: [][]string{{"n1"}}}); err == nil {
		t.Fatal("nil transport accepted")
	}
	if _, err := NewCoordinator(Config{Groups: [][]string{{"n1"}}, Transport: NewMemNetwork()}); err != nil {
		t.Fatal(err)
	}
}

func TestHedgeDelayFromLatencyWindow(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.HedgeAfter = 0 })
	// Empty window: the fixed default.
	if d := tc.c.hedgeDelay(); d != defaultHedge {
		t.Fatalf("empty-window hedge delay = %v", d)
	}
	// A loaded window: the p95, floored at hedgeMin.
	for i := 0; i < 100; i++ {
		tc.c.lat.add(time.Duration(i+1) * time.Millisecond)
	}
	d := tc.c.hedgeDelay()
	if d < 90*time.Millisecond || d > 100*time.Millisecond {
		t.Fatalf("p95 hedge delay = %v", d)
	}
	// Tiny latencies hit the floor.
	tc2 := newTestCluster(t, func(cfg *Config) { cfg.HedgeAfter = 0 })
	for i := 0; i < 100; i++ {
		tc2.c.lat.add(time.Microsecond)
	}
	if d := tc2.c.hedgeDelay(); d != hedgeMin {
		t.Fatalf("floored hedge delay = %v", d)
	}
}

func TestLatWindowWraps(t *testing.T) {
	var w latWindow
	if w.percentile(0.95) != 0 {
		t.Fatal("empty window percentile should be 0")
	}
	for i := 0; i < 500; i++ {
		w.add(time.Duration(i) * time.Millisecond)
	}
	// Only the last 128 samples (372..499ms) remain.
	if p := w.percentile(0.0); p < 372*time.Millisecond {
		t.Fatalf("window kept stale sample: %v", p)
	}
}

func TestMemNetworkNodeLookup(t *testing.T) {
	net := NewMemNetwork()
	n := NewNode("x")
	net.AddNode(n)
	if net.Node("x") != n || net.Node("y") != nil {
		t.Fatal("MemNetwork.Node lookup broken")
	}
	// Calls to unknown nodes are unreachable.
	if _, err := net.Call(context.Background(), "y", Message{Type: MsgPingReq}); err != ErrUnreachable {
		t.Fatalf("unknown node: %v", err)
	}
}
