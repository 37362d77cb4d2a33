package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"applab/internal/rdf"
	"applab/internal/sparql"
	"applab/internal/strabon"
)

// The chaos harness: scripted fault schedules run against the 3-node
// RF-2 topology on a fake clock, with a single strabon.Store as the
// differential oracle. The oracle applies exactly the writes the
// coordinator acknowledged; every non-partial query answer must then be
// byte-identical (canonicalized) to the oracle's, under every schedule
// and worker count, with zero real sleeps.

type chaosEvent struct {
	kind string // kill restart partition heal slow write delete query repair truncate
	node string
	d    time.Duration
	base int // write/delete batch parameter
	n    int
}

type chaosRun struct {
	t      *testing.T
	tc     *testCluster
	oracle *strabon.Store
	// written accumulates acknowledged adds, for delete batches.
	written []rdf.Triple
}

func chaosQueries() []string {
	return []string{qFan, qJoin, qRouted(3), qRouted(11), qRouted(200),
		`ASK { <` + testSubjectIRI(5) + `> <http://ex/p0> ?o }`,
		// Bind joins, whose routed steps read each group once per step.
		// The benchmark's shape: a fan-out, then two subject-bound steps.
		qJoin3,
		// An OPTIONAL binds ?s for five rows and leaves it unbound for the
		// rest, so the last step mixes routed rows with fan-out rows.
		`SELECT ?x ?s ?o WHERE { ?x <http://ex/p0> ?i OPTIONAL { ?s <http://ex/p0> ?i FILTER(?i < 5) } ?s <http://ex/p1> ?o }`,
		// Every subject twice in one step.
		`SELECT ?s ?p ?b WHERE { ?s ?p ?a . ?s <http://ex/p1> ?b }`,
		// An object bound from the row: routed (third pattern) and fanned
		// out (fourth).
		`SELECT ?s ?l ?t WHERE { ?s <http://ex/p0> ?v . ?s <http://ex/p1> ?l . ?s <http://ex/p0> ?v . ?t <http://ex/p0> ?v }`,
	}
}

// drive runs fn in a goroutine while stepping the fake clock until it
// finishes, so schedules with slow replicas (hedge timers, injected
// latency) make progress without any real sleeping.
func (r *chaosRun) drive(fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
			return
		default:
		}
		if i > 1_000_000 {
			r.t.Fatal("chaos driver: no progress after 1M clock steps")
		}
		r.tc.clk.Advance(time.Millisecond)
		runtime.Gosched()
	}
}

func (r *chaosRun) apply(ev chaosEvent) {
	ctx := context.Background()
	switch ev.kind {
	case "kill":
		r.tc.net.Kill(ev.node)
	case "restart":
		r.tc.net.Restart(ev.node)
	case "partition":
		r.tc.net.Partition(ev.node)
	case "heal":
		r.tc.net.Heal(ev.node)
	case "slow":
		r.tc.net.SetSlow(ev.node, ev.d)
	case "write":
		ts := clusterTriples(ev.n, ev.base)
		var applied []rdf.Triple
		r.drive(func() { applied, _ = r.tc.c.AddAll(ctx, ts) })
		r.oracle.AddAll(applied)
		r.written = append(r.written, applied...)
	case "delete":
		if len(r.written) == 0 {
			return
		}
		n := ev.n
		if n > len(r.written) {
			n = len(r.written)
		}
		ts := r.written[:n]
		var applied []rdf.Triple
		r.drive(func() { applied, _ = r.tc.c.DeleteAll(ctx, ts) })
		for _, d := range applied {
			r.oracle.Delete(d)
		}
	case "query":
		for _, q := range chaosQueries() {
			r.checkQuery(ctx, q)
		}
	case "repair":
		r.drive(func() { r.tc.c.Repair(ctx) })
	case "truncate":
		for sh := 0; sh < r.tc.c.Shards(); sh++ {
			r.tc.c.TruncateLog(sh, r.tc.c.LogSeq(sh))
		}
	default:
		r.t.Fatalf("unknown chaos event %q", ev.kind)
	}
}

func (r *chaosRun) checkQuery(ctx context.Context, q string) {
	r.t.Helper()
	var got *sparql.Results
	var partial bool
	var err error
	r.drive(func() { got, partial, err = evalPartial(ctx, r.tc.c, q) })
	if err != nil {
		r.t.Fatalf("cluster eval %q: %v", q, err)
	}
	want, err := sparql.Eval(r.oracle, q)
	if err != nil {
		r.t.Fatalf("oracle eval %q: %v", q, err)
	}
	if !partial {
		if g, w := canonResults(got), canonResults(want); g != w {
			r.t.Fatalf("cluster diverged from oracle on %q:\n got:\n%s\nwant:\n%s", q, g, w)
		}
		return
	}
	// A partial answer must not invent rows: SELECT solutions must be a
	// subset of the oracle's (ASK/aggregate shapes are skipped — absence
	// of rows legitimately flips them).
	if len(want.Vars) == 0 {
		return
	}
	wantRows := map[string]bool{}
	for i := range want.Bindings {
		b := want.Binding(i)
		wantRows[bindingKey(b, want.Vars)] = true
	}
	for i := range got.Bindings {
		b := got.Binding(i)
		if !wantRows[bindingKey(b, want.Vars)] {
			r.t.Fatalf("partial answer to %q invented row %v", q, b)
		}
	}
}

func bindingKey(b sparql.Binding, vars []string) string {
	parts := make([]string, 0, len(vars))
	for _, v := range vars {
		parts = append(parts, b[v].Key())
	}
	sort.Strings(parts)
	return fmt.Sprint(parts)
}

func chaosSchedules() map[string][]chaosEvent {
	return map[string][]chaosEvent{
		"baseline": {
			{kind: "write", base: 0, n: 30},
			{kind: "query"},
			{kind: "write", base: 100, n: 20},
			{kind: "delete", n: 15},
			{kind: "query"},
		},
		"node_kill": {
			{kind: "write", base: 0, n: 30},
			{kind: "kill", node: "n2"},
			{kind: "query"},
			{kind: "write", base: 100, n: 20},
			{kind: "query"},
		},
		"restart_catchup": {
			{kind: "write", base: 0, n: 30},
			{kind: "kill", node: "n2"},
			{kind: "write", base: 100, n: 20},
			{kind: "restart", node: "n2"},
			{kind: "repair"},
			{kind: "kill", node: "n3"}, // force reads onto the caught-up n2
			{kind: "query"},
		},
		"snapshot_catchup": {
			{kind: "write", base: 0, n: 30},
			{kind: "kill", node: "n1"},
			{kind: "write", base: 100, n: 20},
			{kind: "truncate"}, // log gone: restart must snapshot
			{kind: "restart", node: "n1"},
			{kind: "repair"},
			{kind: "kill", node: "n2"},
			{kind: "query"},
		},
		"partition_heal": {
			{kind: "write", base: 0, n: 30},
			{kind: "partition", node: "n3"},
			{kind: "write", base: 100, n: 20},
			{kind: "query"},
			{kind: "heal", node: "n3"},
			{kind: "repair"},
			{kind: "kill", node: "n1"},
			{kind: "query"},
		},
		"slow_replica": {
			{kind: "write", base: 0, n: 30},
			{kind: "slow", node: "n2", d: 50 * time.Millisecond},
			{kind: "query"},
			{kind: "slow", node: "n2", d: 0},
			{kind: "query"},
		},
		"whole_group_loss": {
			{kind: "write", base: 0, n: 30},
			{kind: "kill", node: "n2"},
			{kind: "kill", node: "n3"}, // group 1 fully gone
			{kind: "query"},            // partial answers, subset-checked
			{kind: "restart", node: "n2"},
			{kind: "restart", node: "n3"},
			{kind: "repair"},
			{kind: "query"},
		},
		"churn": {
			{kind: "write", base: 0, n: 25},
			{kind: "partition", node: "n1"},
			{kind: "write", base: 100, n: 15},
			{kind: "slow", node: "n3", d: 30 * time.Millisecond},
			{kind: "query"},
			{kind: "heal", node: "n1"},
			{kind: "slow", node: "n3", d: 0},
			{kind: "kill", node: "n2"},
			{kind: "repair"},
			{kind: "delete", n: 10},
			{kind: "query"},
			{kind: "restart", node: "n2"},
			{kind: "repair"},
			{kind: "query"},
		},
	}
}

func TestChaosMatrix(t *testing.T) {
	names := make([]string, 0)
	for name := range chaosSchedules() {
		names = append(names, name)
	}
	sort.Strings(names)
	// The coordinator is an ErrorSource, which the engine always
	// evaluates on one worker; the subtest names record that.
	for _, name := range names {
		t.Run(name+"/workers=1", func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *Config) {
				cfg.HedgeAfter = 10 * time.Millisecond
				// Long cooldown so probe re-eligibility doesn't depend
				// on how far the driver happened to advance the clock.
				cfg.RetryCooldown = 24 * time.Hour
			})
			run := &chaosRun{t: t, tc: tc, oracle: strabon.New()}
			for _, ev := range chaosSchedules()[name] {
				run.apply(ev)
			}
		})
	}
}
