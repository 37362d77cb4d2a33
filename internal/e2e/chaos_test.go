package e2e

// One chaos table for both kinds of fan-out target. Every schedule runs
// on one faults.Clock against two stacks serving the same data behind a
// caching SPARQL endpoint: a replicated cluster (replica groups on
// MemNetwork) and a federation (members behind faults.Source). Fault i
// lands on cluster node i and on federation member i. Every answer must
// equal a single store's, or carry X-Applab-Partial; a partial answer
// is never written into the result cache.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"applab/internal/cluster"
	"applab/internal/endpoint"
	"applab/internal/faults"
	"applab/internal/federation"
	"applab/internal/rdf"
	"applab/internal/rescache"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/telemetry"
)

// chaosStep is one row of a schedule: a fault on target i, or a round
// of queries. complete marks rounds in which neither stack may answer
// partially.
type chaosStep struct {
	fault    string // error, hang, slow, recover; "" runs the query round
	target   int
	complete bool
}

// The cluster reads every group from two of three nodes, so a schedule
// never has more than one target in error or hung at once: two would
// leave a group with no answering replica and no deadline.
var chaosTable = map[string][]chaosStep{
	"healthy": {{complete: true}},
	"slow": {
		{fault: "slow", target: 0}, {fault: "slow", target: 1}, {complete: true},
		{fault: "recover", target: 0}, {fault: "recover", target: 1}, {complete: true},
	},
	"error_recover": {
		{fault: "error", target: 1}, {}, {}, {},
		{fault: "recover", target: 1}, {complete: true},
	},
	"hang_recover": {
		{fault: "hang", target: 2}, {}, {},
		{fault: "recover", target: 2}, {complete: true},
	},
	"slow_and_error": {
		{fault: "slow", target: 0}, {fault: "error", target: 2}, {},
		{fault: "recover", target: 2}, {fault: "recover", target: 0}, {complete: true},
	},
	"hang_and_slow": {
		{fault: "hang", target: 0}, {fault: "slow", target: 1}, {},
		{fault: "recover", target: 0}, {fault: "recover", target: 1}, {complete: true},
	},
}

const (
	chaosSlow     = 30 * time.Millisecond
	chaosHedge    = 10 * time.Millisecond
	chaosDeadline = 200 * time.Millisecond
	chaosCooldown = time.Second
)

// chaosQueries are one round's queries; the round number makes every
// round's plans distinct, so each round evaluates instead of hitting
// the previous round's cache entries.
func chaosQueries(round int) []string {
	nonce := fmt.Sprintf(`"round-%d"`, round)
	return []string{
		`SELECT ?s ?n WHERE { ?s <` + contractNS + `name> ?n FILTER(?n != ` + nonce + `) }`,
		`SELECT ?s ?n WHERE { ?s a <` + contractNS + `Thing> ; <` + contractNS + `name> ?n FILTER(?n != ` + nonce + `) }`,
		`SELECT ?p ?o WHERE { <` + contractNS + `s3> ?p ?o FILTER(?o != ` + nonce + `) }`,
		// A bind join of three patterns: a fan-out, then two
		// subject-bound steps, each of which the cluster reads as one
		// batch per replica group.
		`SELECT ?s ?n ?t WHERE { ?s a <` + contractNS + `Thing> . ?s <` + contractNS + `name> ?n . ?s a ?t FILTER(?n != ` + nonce + `) }`,
		// An OPTIONAL that leaves one row's subject unbound: the next
		// step routes the other rows and fans that one out.
		`SELECT ?x ?s ?t WHERE { ?x <` + contractNS + `name> ?n OPTIONAL { ?s <` + contractNS + `name> ?n FILTER(?n != "n3") } ?s a ?t FILTER(?n != ` + nonce + `) }`,
		// A step that sees every subject twice, once per triple the
		// first pattern matched: one batch repeats each pattern.
		`SELECT ?s ?p ?n WHERE { ?s ?p ?o . ?s <` + contractNS + `name> ?n FILTER(?n != ` + nonce + `) }`,
	}
}

// memberLoad tracks the federation's member calls by what they wait on.
// The driver steps the clock only while some call waits on time (a slow
// answer's timer, or a hang only the deadline ends) and none is working
// or holds a fired timer: stepping while a member still computes, or
// has not started, would time out an answer a real clock would have let
// in. This is MemNetwork.Parked for the federation's members.
type memberLoad struct {
	mu      sync.Mutex
	now     func() time.Time
	working int
	hung    int
	timers  map[<-chan time.Time]time.Time // a waiting timer and when it fires
}

func (l *memberLoad) parked() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.working > 0 || l.hung+len(l.timers) == 0 {
		return false
	}
	now := l.now()
	for timer, due := range l.timers {
		// A timer that has fired holds the clock until its call marks
		// itself working, also after the call took the fire off the
		// channel: a woken goroutine may not run for many driver steps,
		// and the member's deadline must not run out meanwhile.
		if len(timer) > 0 || !now.Before(due) {
			return false
		}
	}
	return true
}

// add moves counters under the lock: working and hung by a delta, and a
// timer into the waiting set (due is when it fires) or, with a zero due,
// out of it.
func (l *memberLoad) add(working, hung int, timer <-chan time.Time, due time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.working += working
	l.hung += hung
	if timer != nil {
		if !due.IsZero() {
			l.timers[timer] = due
		} else {
			delete(l.timers, timer)
		}
	}
}

// chaosMember is a federation member whose fault the schedule switches:
// each call goes through the faults.Source current when it started.
type chaosMember struct {
	store *strabon.Store
	clk   *faults.Clock
	load  *memberLoad

	mu   sync.Mutex
	mode string
	cur  *faults.Source
	all  []*faults.Source
}

// chaosSteps outlasts the calls any phase of a schedule makes.
const chaosSteps = 4096

func (m *chaosMember) set(mode string) {
	var inner sparql.Source = m.store
	script := faults.Seq()
	switch mode {
	case "error":
		script = faults.FailN(chaosSteps, faults.Step{Kind: faults.ConnError})
	case "hang":
		script = faults.FailN(chaosSteps, faults.Step{Kind: faults.Hang})
	case "slow":
		inner = slowSource{m}
	}
	src := faults.NewSource(inner, script)
	m.mu.Lock()
	if m.cur != nil {
		m.cur.Release()
	}
	m.mode, m.cur = mode, src
	m.all = append(m.all, src)
	m.mu.Unlock()
}

func (m *chaosMember) Match(s, p, o rdf.Term) []rdf.Triple {
	ts, _ := m.MatchErr(s, p, o)
	return ts
}

func (m *chaosMember) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	m.mu.Lock()
	src, mode := m.cur, m.mode
	m.mu.Unlock()
	switch mode {
	case "hang":
		m.load.add(0, 1, nil, time.Time{})
		defer m.load.add(0, -1, nil, time.Time{})
	case "slow": // slowSource accounts for itself
	default:
		m.load.add(1, 0, nil, time.Time{})
		defer m.load.add(-1, 0, nil, time.Time{})
	}
	return src.MatchErr(s, p, o)
}

func (m *chaosMember) releaseAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, src := range m.all {
		src.Release()
	}
}

// slowSource answers from the member's store after chaosSlow of fake
// time.
type slowSource struct{ m *chaosMember }

func (s slowSource) Match(a, p, o rdf.Term) []rdf.Triple {
	load := s.m.load
	timer := s.m.clk.After(chaosSlow)
	// Read after After, so due is never before the fire.
	load.add(0, 0, timer, s.m.clk.Now().Add(chaosSlow))
	<-timer
	load.add(1, 0, timer, time.Time{})
	defer load.add(-1, 0, nil, time.Time{})
	return s.m.store.Match(a, p, o)
}

// fingerprinted gives the coordinator a cache identity, so the endpoint
// caches its answers the way it caches the federation's.
type fingerprinted struct{ *cluster.Coordinator }

func (fingerprinted) Fingerprint() string { return "chaos-cluster" }

// chaosStack is one served target kind.
type chaosStack struct {
	name   string
	h      http.Handler
	reg    *telemetry.Registry
	parked func() bool // the driver steps the clock only then
}

func TestChaosBothTargetKinds(t *testing.T) {
	names := make([]string, 0, len(chaosTable))
	for name := range chaosTable {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) { runChaos(t, chaosTable[name]) })
	}
}

func runChaos(t *testing.T, schedule []chaosStep) {
	clk := faults.NewClock(time.Date(2019, 3, 26, 9, 0, 0, 0, time.UTC))
	data := contractTriples()
	oracle := strabon.New()
	oracle.AddAll(data)
	oracleH := endpoint.Handler(oracle)

	// The cluster: three nodes, three RF-2 groups.
	net := cluster.NewMemNetwork()
	net.After = clk.After
	nodes := []string{"n1", "n2", "n3"}
	for _, id := range nodes {
		net.AddNode(cluster.NewNode(id))
	}
	creg := telemetry.NewRegistry()
	coord, err := cluster.NewCoordinator(cluster.Config{
		Groups:        [][]string{{"n1", "n2"}, {"n2", "n3"}, {"n3", "n1"}},
		Transport:     net,
		Metrics:       creg,
		Now:           clk.Now,
		After:         clk.After,
		HedgeAfter:    chaosHedge,
		RetryCooldown: chaosCooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := coord.AddAll(context.Background(), data); err != nil || len(applied) != len(data) {
		t.Fatalf("cluster load: %d/%d applied: %v", len(applied), len(data), err)
	}

	// The federation: three members over overlapping subject ranges, so
	// the union needs every member and deduplicates subjects 3-4 and 5-7.
	load := memberLoad{now: clk.Now, timers: map[<-chan time.Time]time.Time{}}
	members := make([]*chaosMember, 3)
	fed := federation.New()
	for i, r := range [][2]int{{0, 5}, {5, 10}, {3, 8}} {
		st := strabon.New()
		st.AddAll(data[2*r[0] : 2*r[1]])
		members[i] = &chaosMember{store: st, clk: clk, load: &load}
		members[i].set("")
		fed.AddMember(federation.Member{Name: fmt.Sprintf("m%d", i), Source: members[i]})
	}
	defer func() {
		for _, m := range members {
			m.releaseAll()
		}
		clk.Advance(48 * time.Hour) // wake the cluster calls still hung
	}()
	fed.MemberTimeout = chaosDeadline
	fed.RetryDemoted = chaosCooldown
	fed.Now, fed.After = clk.Now, clk.After
	freg := telemetry.NewRegistry()
	fed.Metrics = freg

	stacks := []chaosStack{
		{"cluster", cachedHandler(fingerprinted{coord}, creg), creg, net.Parked},
		{"federation", cachedHandler(fed, freg), freg, load.parked},
	}

	apply := func(step chaosStep) {
		node, m := nodes[step.target], members[step.target]
		switch step.fault {
		case "error":
			net.Partition(node)
			m.set("error")
		case "hang":
			net.SetSlow(node, 24*time.Hour)
			m.set("hang")
		case "slow":
			net.SetSlow(node, chaosSlow)
			m.set("slow")
		case "recover":
			net.Heal(node)
			net.SetSlow(node, 0)
			m.set("")
			// Past the cooldown, a demoted replica or member is probed
			// again on its next read.
			clk.Advance(chaosCooldown)
		default:
			t.Fatalf("unknown fault %q", step.fault)
		}
	}

	round, faulted := 0, false
	partials := map[string]int{}
	for i, step := range schedule {
		if step.fault != "" {
			faulted = faulted || step.fault == "error" || step.fault == "hang"
			apply(step)
			continue
		}
		round++
		for _, q := range chaosQueries(round) {
			want, _, _ := serve(t, clk, oracleH, q, nil)
			if len(want) == 0 {
				t.Fatalf("the single store answers nothing to %s", q)
			}
			for _, st := range stacks {
				label := fmt.Sprintf("step %d, %s: %s", i, st.name, q)
				if checkChaosAnswer(t, clk, st, q, want, step.complete, label) {
					partials[st.name]++
				}
			}
		}
	}
	// One node down is masked by replication; one member down is not.
	if partials["cluster"] != 0 {
		t.Errorf("the cluster answered partially %d times with one faulty node", partials["cluster"])
	}
	if faulted && partials["federation"] == 0 {
		t.Error("a failing or hung member never made a federated answer partial")
	}
}

// cachedHandler serves src behind a text-keyed result cache.
func cachedHandler(src sparql.Source, reg *telemetry.Registry) http.Handler {
	cache := rescache.New(256, 0)
	cache.Metrics = reg
	return endpoint.NewHandlerOpts(src, reg, endpoint.Options{Cache: cache})
}

// checkChaosAnswer asks one stack the query twice and reports whether
// the answer was partial. A complete answer equals the oracle's, is
// stored, and the repeat is a hit with the same rows; a partial answer
// is stored nowhere, so the repeat evaluates again.
func checkChaosAnswer(t *testing.T, clk *faults.Clock, st chaosStack, q string, want []string, complete bool, label string) bool {
	t.Helper()
	before := st.reg.Snapshot()
	got, partial, cache := serve(t, clk, st.h, q, st.parked)
	fills := counterDelta(before, st.reg.Snapshot(), "rescache_fills_total")
	if cache != "miss" {
		t.Fatalf("%s: first request X-Applab-Cache = %q, want miss", label, cache)
	}
	if partial {
		if complete {
			t.Fatalf("%s: partial answer in a round that must be complete", label)
		}
		if fills != 0 {
			t.Fatalf("%s: a partial answer was written into the result cache", label)
		}
		if _, _, again := serve(t, clk, st.h, q, st.parked); again == "hit" {
			t.Fatalf("%s: the repeat of a partial answer was a cache hit", label)
		}
		return true
	}
	if !equalRows(got, want) {
		t.Fatalf("%s: answer diverged from the single store:\n got %v\nwant %v", label, got, want)
	}
	if fills != 1 {
		t.Fatalf("%s: complete answer filled the cache %d times, want 1", label, fills)
	}
	again, _, cache := serve(t, clk, st.h, q, st.parked)
	if cache != "hit" || !equalRows(again, want) {
		t.Fatalf("%s: repeat X-Applab-Cache = %q, rows equal = %v", label, cache, equalRows(again, want))
	}
	return false
}

// serve runs one GET /sparql on h, stepping the fake clock by 1 ms
// whenever parked says the stack waits on nothing but time, and
// returns the canonical rows, the partial flag and the cache status.
func serve(t *testing.T, clk *faults.Clock, h http.Handler, q string, parked func() bool) ([]string, bool, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(q), nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			return jsonRows(t, rec.Body.Bytes()), rec.Header().Get("X-Applab-Partial") == "true", rec.Header().Get("X-Applab-Cache")
		default:
		}
		if i > 1_000_000 {
			t.Fatal("request made no progress after 1M driver steps")
		}
		if parked != nil && parked() {
			clk.Advance(time.Millisecond)
		}
		runtime.Gosched()
	}
}

// jsonRows canonicalizes a SPARQL JSON results body: one string per
// solution, variables in name order, rows sorted.
func jsonRows(t *testing.T, body []byte) []string {
	t.Helper()
	var doc struct {
		Results struct {
			Bindings []map[string]map[string]string `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("results body: %v", err)
	}
	rows := make([]string, 0, len(doc.Results.Bindings))
	for _, b := range doc.Results.Bindings {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		parts := make([]string, len(vars))
		for i, v := range vars {
			c := b[v]
			parts[i] = v + "=" + c["type"] + "|" + c["value"] + "|" + c["datatype"] + "|" + c["xml:lang"]
		}
		rows = append(rows, strings.Join(parts, "\x1f"))
	}
	sort.Strings(rows)
	return rows
}
