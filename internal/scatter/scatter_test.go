package scatter_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"applab/internal/admission"
	"applab/internal/faults"
	"applab/internal/rdf"
	"applab/internal/scatter"
)

var epoch = time.Date(2019, 3, 26, 9, 0, 0, 0, time.UTC)

func triple(s string) rdf.Triple {
	return rdf.NewTriple(rdf.NewIRI("http://ex/"+s), rdf.NewIRI("http://ex/p"), rdf.NewLiteral(s))
}

// replicas scripts each replica's behaviour: an answer, an error, or a
// gate the call blocks on until the test closes it. It records the
// order replicas were asked in.
type replicas struct {
	mu      sync.Mutex
	asked   []string
	entered chan string
	answers map[string][]rdf.Triple
	errs    map[string]error
	gates   map[string]chan struct{}
}

func newReplicas() *replicas {
	return &replicas{
		entered: make(chan string, 16),
		answers: map[string][]rdf.Triple{},
		errs:    map[string]error{},
		gates:   map[string]chan struct{}{},
	}
}

func (r *replicas) call(ctx context.Context, name string) ([]rdf.Triple, error) {
	r.mu.Lock()
	r.asked = append(r.asked, name)
	gate := r.gates[name]
	r.mu.Unlock()
	r.entered <- name
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := r.errs[name]; err != nil {
		return nil, err
	}
	return r.answers[name], nil
}

func (r *replicas) order() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.asked...)
}

// events records every Event a fan-out emits.
type events struct {
	mu  sync.Mutex
	all []scatter.Event
	ch  chan scatter.Event
}

func newEvents() *events { return &events{ch: make(chan scatter.Event, 64)} }

func (e *events) observe(ev scatter.Event) {
	e.mu.Lock()
	e.all = append(e.all, ev)
	e.mu.Unlock()
	e.ch <- ev
}

func (e *events) kinds() []scatter.EventKind {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]scatter.EventKind, len(e.all))
	for i, ev := range e.all {
		out[i] = ev.Kind
	}
	return out
}

// await blocks until n events of kind k have been observed.
func (e *events) await(k scatter.EventKind, n int) {
	for n > 0 {
		if ev := <-e.ch; ev.Kind == k {
			n--
		}
	}
}

func demote(h *scatter.Health, name string) {
	for !h.Record(name, false, epoch) {
	}
}

func TestReadEligibleFirstThenFailover(t *testing.T) {
	h := scatter.NewHealth(0, 0)
	demote(h, "b")
	r := newReplicas()
	r.errs["a"] = errors.New("a is broken")
	r.answers["c"] = []rdf.Triple{triple("x")}
	ev := newEvents()
	clk := faults.NewClock(epoch)
	f := scatter.Fanout{Health: h, Now: clk.Now, Observe: ev.observe}

	ts, res, err := scatter.Read(context.Background(), &f, scatter.Target{Name: "t", Replicas: []string{"a", "b", "c"}, Call: r.call})
	if err != nil || !res.OK() || len(ts) != 1 || res.Triples != 1 || res.Member != "t" {
		t.Fatalf("read = %v, %+v, %v", ts, res, err)
	}
	if got := r.order(); !slices.Equal(got, []string{"a", "c"}) {
		t.Fatalf("asked %v, want [a c]: failover skips the benched b while c is eligible", got)
	}
	want := []scatter.EventKind{scatter.Asked, scatter.Failed, scatter.Asked, scatter.Answered}
	if got := ev.kinds(); !slices.Equal(got, want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	if fails, _ := h.Status("a"); fails != 1 {
		t.Fatalf("a has %d recorded failures, want 1", fails)
	}
}

func TestReadBenchedIsFailoverOnly(t *testing.T) {
	h := scatter.NewHealth(0, 0)
	demote(h, "a")
	r := newReplicas()
	r.errs["b"] = errors.New("b is broken")
	r.answers["a"] = []rdf.Triple{triple("x")}
	f := scatter.Fanout{Health: h, Now: faults.NewClock(epoch).Now}

	_, res, err := scatter.Read(context.Background(), &f, scatter.Target{Replicas: []string{"a", "b"}, Call: r.call})
	if err != nil || !res.OK() {
		t.Fatalf("read = %+v, %v", res, err)
	}
	if got := r.order(); !slices.Equal(got, []string{"b", "a"}) {
		t.Fatalf("asked %v, want the eligible b before the benched a", got)
	}
	if fails, demoted := h.Status("a"); fails != 0 || demoted {
		t.Fatalf("a answered but is (%d, %v)", fails, demoted)
	}
}

func TestReadEveryReplicaBad(t *testing.T) {
	r := newReplicas()
	r.errs["a"] = errors.New("a is broken")
	last := errors.New("b is broken")
	r.errs["b"] = last
	f := scatter.Fanout{Health: scatter.NewHealth(0, 0)}

	ts, res, err := scatter.Read(context.Background(), &f, scatter.Target{Replicas: []string{"a", "b"}, Call: r.call})
	if err != nil || res.OK() || res.TimedOut || ts != nil {
		t.Fatalf("read = %v, %+v, %v", ts, res, err)
	}
	if res.Err != last {
		t.Fatalf("Err = %v, want the last bad answer", res.Err)
	}
}

func TestReadHedgesToEligible(t *testing.T) {
	r := newReplicas()
	r.gates["a"] = make(chan struct{})
	defer close(r.gates["a"])
	r.answers["b"] = []rdf.Triple{triple("x")}
	clk := faults.NewClock(epoch)
	ev := newEvents()
	f := scatter.Fanout{
		Health: scatter.NewHealth(0, 0), Now: clk.Now, After: clk.After,
		HedgeAfter: func(int) time.Duration { return 10 * time.Millisecond },
		Observe:    ev.observe,
	}
	type out struct {
		res scatter.Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		_, res, err := scatter.Read(context.Background(), &f, scatter.Target{Replicas: []string{"a", "b"}, Call: r.call})
		done <- out{res, err}
	}()
	clk.AwaitTimers(1)
	clk.Advance(10 * time.Millisecond)
	got := <-done
	if got.err != nil || !got.res.OK() {
		t.Fatalf("hedged read = %+v, %v", got.res, got.err)
	}
	var won scatter.Event
	for _, e := range ev.all {
		if e.Kind == scatter.Answered {
			won = e
		}
	}
	if won.Replica != "b" || !won.Hedge || won.Latency != 0 {
		t.Fatalf("winner %+v, want b by hedge with no fake-time latency", won)
	}
	if k := ev.kinds(); !slices.Contains(k, scatter.Hedged) {
		t.Fatalf("events %v lack Hedged", k)
	}
}

func TestReadNeverHedgesToBenched(t *testing.T) {
	h := scatter.NewHealth(0, 0)
	demote(h, "b")
	r := newReplicas()
	r.gates["a"] = make(chan struct{})
	r.answers["a"] = []rdf.Triple{triple("x")}
	clk := faults.NewClock(epoch)
	f := scatter.Fanout{
		Health: h, Now: clk.Now, After: clk.After,
		HedgeAfter: func(int) time.Duration { return 10 * time.Millisecond },
	}
	done := make(chan scatter.Result, 1)
	go func() {
		_, res, _ := scatter.Read(context.Background(), &f, scatter.Target{Replicas: []string{"a", "b"}, Call: r.call})
		done <- res
	}()
	<-r.entered
	if n := clk.Timers(); n != 0 {
		t.Fatalf("%d timers armed: the only other replica is benched, so no hedge", n)
	}
	close(r.gates["a"])
	if res := <-done; !res.OK() || !slices.Equal(r.order(), []string{"a"}) {
		t.Fatalf("read = %+v, asked %v", res, r.order())
	}
}

func TestReadBudgetAbort(t *testing.T) {
	r := newReplicas()
	r.errs["a"] = errors.New("a is broken")
	f := scatter.Fanout{Health: scatter.NewHealth(0, 0)}
	ctx := admission.WithBudget(context.Background(), admission.NewBudget(admission.Limits{MaxFanout: 1}, nil))

	_, res, err := scatter.Read(ctx, &f, scatter.Target{Replicas: []string{"a", "b"}, Call: r.call})
	if be, ok := admission.AsBudgetError(err); !ok || be.Kind != admission.KindFanout {
		t.Fatalf("failover past the budget = %v, want the fan-out budget error", err)
	}
	if res.OK() || !res.TimedOut || !slices.Equal(r.order(), []string{"a"}) {
		t.Fatalf("result %+v, asked %v", res, r.order())
	}
	// A spent budget asks nobody.
	_, _, err = scatter.Read(ctx, &f, scatter.Target{Replicas: []string{"b"}, Call: r.call})
	if !admission.Aborted(err) || len(r.order()) != 1 {
		t.Fatalf("second read = %v, asked %v", err, r.order())
	}
}

func TestReadCancelledCountsAgainstNobody(t *testing.T) {
	h := scatter.NewHealth(0, 0)
	r := newReplicas()
	r.gates["a"] = make(chan struct{})
	defer close(r.gates["a"])
	f := scatter.Fanout{Health: h}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := scatter.Read(ctx, &f, scatter.Target{Replicas: []string{"a"}, Call: r.call})
		done <- err
	}()
	<-r.entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read = %v", err)
	}
	if fails, _ := h.Status("a"); fails != 0 {
		t.Fatalf("an abort counted against a: %d failures", fails)
	}
}

func TestGatherDeadlineKeepsDelivered(t *testing.T) {
	h := scatter.NewHealth(0, 0)
	r := newReplicas()
	r.answers["x"] = []rdf.Triple{triple("t2"), triple("t1")}
	r.answers["y"] = []rdf.Triple{triple("t2"), triple("t0")}
	r.gates["z"] = make(chan struct{})
	defer close(r.gates["z"])
	clk := faults.NewClock(epoch)
	ev := newEvents()
	f := scatter.Fanout{Health: h, Now: clk.Now, After: clk.After, Observe: ev.observe}
	targets := []scatter.Target{
		{Name: "x", Replicas: []string{"x"}, Call: r.call},
		{Name: "y", Replicas: []string{"y"}, Call: r.call},
		{Name: "z", Replicas: []string{"z"}, Call: r.call},
	}
	type out struct {
		ts      []rdf.Triple
		results []scatter.Result
		err     error
	}
	done := make(chan out, 1)
	go func() {
		ts, results, err := f.Gather(context.Background(), targets, 5*time.Second)
		done <- out{ts, results, err}
	}()
	ev.await(scatter.Answered, 2)
	clk.AwaitTimers(1)
	clk.Advance(5 * time.Second)
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !got.results[0].OK() || !got.results[1].OK() || !got.results[2].TimedOut {
		t.Fatalf("results %+v", got.results)
	}
	want := []rdf.Triple{triple("t0"), triple("t1"), triple("t2")}
	if !slices.EqualFunc(got.ts, want, func(a, b rdf.Triple) bool { return a.Compare(&b) == 0 }) {
		t.Fatalf("merged %v, want %v", got.ts, want)
	}
	if fails, _ := h.Status("z"); fails != 1 {
		t.Fatalf("the silent replica has %d failures, want 1", fails)
	}
	ev.await(scatter.Failed, 1)
}

func TestGatherAbortCountsAgainstNobody(t *testing.T) {
	h := scatter.NewHealth(0, 0)
	r := newReplicas()
	r.answers["x"] = []rdf.Triple{triple("t1")}
	r.gates["z"] = make(chan struct{})
	defer close(r.gates["z"])
	ev := newEvents()
	f := scatter.Fanout{Health: h, Observe: ev.observe}
	ctx, cancel := context.WithCancel(context.Background())
	type out struct {
		ts      []rdf.Triple
		results []scatter.Result
		err     error
	}
	done := make(chan out, 1)
	go func() {
		ts, results, err := f.Gather(ctx, []scatter.Target{
			{Name: "x", Replicas: []string{"x"}, Call: r.call},
			{Name: "z", Replicas: []string{"z"}, Call: r.call},
		}, 0)
		done <- out{ts, results, err}
	}()
	ev.await(scatter.Answered, 1)
	cancel()
	got := <-done
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("err = %v", got.err)
	}
	if !got.results[0].OK() || !got.results[1].TimedOut || len(got.ts) != 1 {
		t.Fatalf("results %+v, triples %v: the delivered answer is kept", got.results, got.ts)
	}
	if fails, _ := h.Status("z"); fails != 0 {
		t.Fatalf("an abort counted against z: %d failures", fails)
	}
}

func TestGatherBudgetAbortStopsTheRest(t *testing.T) {
	h := scatter.NewHealth(0, 0)
	r := newReplicas()
	gate := make(chan struct{})
	defer close(gate)
	r.gates["x"], r.gates["y"] = gate, gate
	f := scatter.Fanout{Health: h}
	ctx := admission.WithBudget(context.Background(), admission.NewBudget(admission.Limits{MaxFanout: 1}, nil))
	_, results, err := f.Gather(ctx, []scatter.Target{
		{Name: "x", Replicas: []string{"x"}, Call: r.call},
		{Name: "y", Replicas: []string{"y"}, Call: r.call},
	}, 0)
	if !admission.Aborted(err) {
		t.Fatalf("err = %v, want the fan-out budget error", err)
	}
	for _, res := range results {
		if res.OK() || !res.TimedOut {
			t.Fatalf("result %+v after an abort", res)
		}
		if fails, _ := h.Status(res.Member); fails != 0 {
			t.Fatalf("an abort counted against %s", res.Member)
		}
	}
}

func TestMerge(t *testing.T) {
	if got := scatter.Merge([][]rdf.Triple{nil, {}}); got != nil {
		t.Fatalf("empty merge = %v, want nil", got)
	}
	timed := triple("b")
	timed.ValidFrom = epoch
	got := scatter.Merge([][]rdf.Triple{
		{triple("c"), triple("a")},
		{triple("b"), triple("a"), timed},
	})
	want := []rdf.Triple{triple("a"), triple("b"), timed, triple("c")}
	if !slices.EqualFunc(got, want, func(a, b rdf.Triple) bool { return a.Compare(&b) == 0 }) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
}

func TestHealthCooldown(t *testing.T) {
	h := scatter.NewHealth(2, time.Minute)
	if h.Record("a", false, epoch) {
		t.Fatal("one failure demoted under DemoteAfter=2")
	}
	if !h.Record("a", false, epoch) {
		t.Fatal("the second failure must newly demote")
	}
	if h.Eligible("a", epoch.Add(59*time.Second)) {
		t.Fatal("demoted replica eligible inside its cooldown")
	}
	probe := epoch.Add(time.Minute)
	if !h.Eligible("a", probe) {
		t.Fatal("demoted replica not probed after its cooldown")
	}
	// A failed probe re-demotes for a fresh cooldown without a new edge.
	if h.Record("a", false, probe) || h.Eligible("a", probe.Add(time.Second)) {
		t.Fatal("failed probe must re-bench without a second demotion edge")
	}
	h.Record("a", true, probe)
	if fails, demoted := h.Status("a"); fails != 0 || demoted {
		t.Fatalf("success left (%d, %v)", fails, demoted)
	}
	if fails, demoted := h.Status("unknown"); fails != 0 || demoted {
		t.Fatal("an unseen replica must read healthy")
	}
	h.SetLimits(-1, 0)
	for i := 0; i < 5; i++ {
		if h.Record("b", false, epoch) {
			t.Fatal("negative DemoteAfter must disable demotion")
		}
	}
	h.SetLimits(0, 0) // defaults: 3 failures, 30 s
	h.Record("c", false, epoch)
	h.Record("c", false, epoch)
	if !h.Record("c", false, epoch) || h.Eligible("c", epoch.Add(29*time.Second)) || !h.Eligible("c", epoch.Add(30*time.Second)) {
		t.Fatal("default limits are demote after 3, retry after 30s")
	}
}

func TestTallyAddsUpEveryFanout(t *testing.T) {
	r := newReplicas()
	r.answers["x"] = []rdf.Triple{triple("t1")}
	broken := errors.New("y is broken")
	r.errs["y"] = broken
	f := scatter.Fanout{Health: scatter.NewHealth(0, 0)}
	ctx, tally := scatter.WithTally(context.Background())

	if _, _, err := f.Gather(ctx, []scatter.Target{
		{Name: "x", Replicas: []string{"x"}, Call: r.call},
		{Name: "y", Replicas: []string{"y"}, Call: r.call},
		{Name: "z"}, // chosen not to be asked
	}, 0); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.order(), []string{"x", "y"}) && !slices.Equal(r.order(), []string{"y", "x"}) {
		t.Fatalf("asked %v: a target without replicas must not be asked", r.order())
	}
	if _, _, err := scatter.Read(ctx, &f, scatter.Target{Replicas: []string{"x"}, Call: r.call}); err != nil {
		t.Fatal(err)
	}
	if tally.Fanouts != 2 || !tally.Partial() {
		t.Fatalf("tally = %d fan-outs, partial %v; want 2, true", tally.Fanouts, tally.Partial())
	}
	want := map[string]scatter.MemberTally{
		"x": {Member: "x", Answers: 1},
		"y": {Member: "y", Errors: 1, LastErr: broken},
		"z": {Member: "z", Skips: 1},
	}
	if len(tally.Members) != len(want) {
		t.Fatalf("members %v: an unnamed target must not be tallied", tally.Members)
	}
	for name, w := range want {
		if got := tally.Members[name]; got == nil || *got != w {
			t.Fatalf("member %s = %+v, want %+v", name, got, w)
		}
	}
}

// TestMarkPartial: a reader marks the context's Tally partial without a
// fan-out, and the Tally keeps the first cause; a context without a
// Tally ignores the mark.
func TestMarkPartial(t *testing.T) {
	scatter.FromContext(context.Background()).MarkPartial(errors.New("ignored"))
	if none := scatter.FromContext(context.Background()); none.Partial() || none.Cause() != nil {
		t.Fatal("a context without a Tally reads partial")
	}
	ctx, tally := scatter.WithTally(context.Background())
	if scatter.FromContext(ctx) != tally || tally.Partial() {
		t.Fatal("a fresh Tally must be the context's and complete")
	}
	first, second := errors.New("first"), errors.New("second")
	scatter.FromContext(ctx).MarkPartial(first)
	scatter.FromContext(ctx).MarkPartial(second)
	if !tally.Partial() || tally.Fanouts != 0 || tally.Cause() != first {
		t.Fatalf("after MarkPartial: partial %v, %d fan-outs, cause %v; want true, 0, first", tally.Partial(), tally.Fanouts, tally.Cause())
	}
}
