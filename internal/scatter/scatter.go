// Package scatter is the one fan-out the remote-reading layers share:
// the federation's pattern fan-out over member endpoints and the cluster
// coordinator's reads of replica groups. Owners choose the targets and
// keep their own metric series. Read and Gather do the rest — replica
// order, failover, hedging, fan-out charging, health and the deadline —
// Merge is the one merge rule, and a Tally on the context marks an
// evaluation partial. DESIGN.md §13 states the rules.
package scatter

import (
	"context"
	"slices"
	"sync"
	"time"

	"applab/internal/admission"
	"applab/internal/rdf"
)

// Leg is one leg of a fan-out whose replicas each answer with an A.
type Leg[A any] struct {
	// Name labels the target's Result.
	Name string
	// Replicas are the names that can each answer for the whole target,
	// in preference order. A target without any is skipped: reported,
	// never asked. Only the first 64 are tracked for the deadline's
	// failure records.
	Replicas []string
	// Size is how many items one call asks for (the cluster's patterns
	// per read); zero counts as one. It reaches Fanout.HedgeAfter and
	// the Asked and Answered events, so a large request is not judged
	// by the latency of small ones.
	Size int
	// Call asks one replica. A non-nil error is a bad answer: the read
	// records it and fails over to the next replica.
	Call func(ctx context.Context, replica string) (A, error)
}

// Target is a leg answered with triples, the kind Gather merges.
type Target = Leg[[]rdf.Triple]

// Result is one target's outcome in a fan-out.
type Result struct {
	// Member is the target's Name.
	Member string
	// Triples is how many triples the accepted answer held (a Target's
	// answer; zero for other answer types).
	Triples int
	// Err is the last bad answer, when no replica answered well.
	Err error
	// TimedOut marks a target still unanswered when the deadline fired
	// or the read was aborted; a late answer is discarded.
	TimedOut bool
	// Skipped marks a target its owner chose not to ask.
	Skipped bool
}

// OK reports whether the target answered.
func (r Result) OK() bool { return r.Err == nil && !r.TimedOut && !r.Skipped }

// EventKind names what an Event reports.
type EventKind uint8

const (
	// Asked: a replica was sent the call.
	Asked EventKind = iota
	// Hedged: the hedge delay passed without an answer, so the next
	// eligible replica is asked as well.
	Hedged
	// Answered: a replica's answer was accepted as the target's.
	Answered
	// Failed: a replica answered badly, or was still silent when the
	// deadline fired.
	Failed
)

// Event is one replica-level step of a read, as Fanout.Observe sees it.
type Event struct {
	Kind    EventKind
	Replica string
	// Latency is how long the replica took (Answered, Failed); for a
	// replica the deadline gave up on, how long the read ran.
	Latency time.Duration
	// Hedge marks an Answered replica that a hedge asked.
	Hedge bool
	// Size is the leg's Size (Asked, Answered), at least one.
	Size int
	// Demoted marks a Failed outcome that newly demoted the replica.
	Demoted bool
}

// Fanout is one owner's configuration of the fan-out.
type Fanout struct {
	// Health decides which replicas are eligible and records every
	// outcome (required).
	Health *Health
	// Now and After are the clock hooks (time.Now/time.After when nil).
	Now   func() time.Time
	After func(time.Duration) <-chan time.Time
	// HedgeAfter, when set, returns how long a read of a leg of the
	// given Size (at least one) waits for its answer before it also asks
	// the next eligible replica; nil never hedges.
	HedgeAfter func(size int) time.Duration
	// Observe, when set, sees every Event, on the goroutine collecting
	// the read, before the read returns.
	Observe func(Event)
}

func (f *Fanout) now() time.Time {
	if f.Now != nil {
		return f.Now()
	}
	return time.Now()
}

func (f *Fanout) after(d time.Duration) <-chan time.Time {
	if f.After != nil {
		return f.After(d)
	}
	return time.After(d)
}

func (f *Fanout) observe(ev Event) {
	if f.Observe != nil {
		f.Observe(ev)
	}
}

// Read asks t's replicas for one answer, collecting on the calling
// goroutine. A non-nil error is always an abort (cancellation or a
// budget violation); otherwise the Result says whether t answered.
func Read[A any](ctx context.Context, f *Fanout, t Leg[A]) (A, Result, error) {
	a, res, abort := read(ctx, f, t, nil)
	count(ctx, []Result{res})
	return a, res, abort
}

// Gather reads every target in parallel and merges the answers of those
// that answered. timeout > 0 bounds the whole fan-out with one timer:
// every target starts together, so one deadline is every target's
// budget. The first abort any read hits stops the others too. Results
// are in target order; the error is an abort, or nil.
func (f *Fanout) Gather(ctx context.Context, targets []Target, timeout time.Duration) ([]rdf.Triple, []Result, error) {
	type leg struct {
		i     int
		ts    []rdf.Triple
		res   Result
		abort error
	}
	legs := make(chan leg, len(targets))
	stop := make(chan struct{})
	for i, t := range targets {
		if len(t.Replicas) == 0 {
			legs <- leg{i: i, res: Result{Member: t.Name, Skipped: true}}
			continue
		}
		go func() {
			ts, res, abort := read(ctx, f, t, stop)
			legs <- leg{i, ts, res, abort}
		}()
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		deadline = f.after(timeout)
	}
	stopped := false
	halt := func() {
		if !stopped {
			stopped = true
			close(stop)
		}
	}
	results := make([]Result, len(targets))
	answers := make([][]rdf.Triple, len(targets))
	var abort error
	for got := 0; got < len(targets); {
		select {
		case l := <-legs:
			got++
			results[l.i], answers[l.i] = l.res, l.ts
			if l.abort != nil && abort == nil {
				abort = l.abort
				halt()
			}
		case <-deadline:
			deadline = nil
			halt()
		}
	}
	if abort == nil {
		abort = admission.Check(ctx)
	}
	count(ctx, results)
	return Merge(answers), results, abort
}

// read is Read, also giving up when stop closes: replicas still
// silent then are recorded as failures unless the context says the
// query was aborted.
func read[A any](ctx context.Context, f *Fanout, t Leg[A], stop <-chan struct{}) (A, Result, error) {
	var none A
	res := Result{Member: t.Name}
	size := max(t.Size, 1)
	began := f.now()
	// Eligible replicas first, in the given order, benched ones behind
	// them; the given list is used as is while nothing is benched.
	ordered := t.Replicas
	var benched []string
	for i, r := range t.Replicas {
		switch {
		case !f.Health.Eligible(r, began):
			if benched == nil {
				ordered = append(make([]string, 0, len(t.Replicas)), t.Replicas[:i]...)
			}
			benched = append(benched, r)
		case benched != nil:
			ordered = append(ordered, r)
		}
	}
	eligible := len(ordered)
	ordered = append(ordered, benched...)
	budget := admission.FromContext(ctx)

	type reply struct {
		i     int // index into ordered
		a     A
		err   error
		hedge bool
		start time.Time
	}
	replies := make(chan reply, len(ordered))
	var silent uint64 // bit i: ordered[i] was asked and has not answered
	next, inflight := 0, 0
	issue := func(hedge bool) error {
		if err := budget.AddFanout(1); err != nil {
			return err
		}
		i, replica, call := next, ordered[next], t.Call
		next++
		inflight++
		silent |= 1 << i
		f.observe(Event{Kind: Asked, Replica: replica, Size: size})
		start := f.now()
		go func() {
			a, err := call(ctx, replica)
			replies <- reply{i: i, a: a, err: err, hedge: hedge, start: start}
		}()
		return nil
	}
	// take folds one reply into health and the result; true means it is
	// the target's answer. A replica that gave up because the query was
	// aborted did not fail.
	take := func(r reply) bool {
		inflight--
		silent &^= 1 << r.i
		now := f.now()
		ev := Event{Replica: ordered[r.i], Latency: now.Sub(r.start)}
		if r.err != nil {
			res.Err = r.err
			if ctx.Err() != nil && admission.Aborted(r.err) {
				return false
			}
			ev.Kind, ev.Demoted = Failed, f.Health.Record(ev.Replica, false, now)
			f.observe(ev)
			return false
		}
		f.Health.Record(ev.Replica, true, now)
		ev.Kind, ev.Hedge, ev.Size = Answered, r.hedge, size
		f.observe(ev)
		res.Err = nil
		if ts, ok := any(r.a).([]rdf.Triple); ok {
			res.Triples = len(ts)
		}
		return true
	}

	// A call the budget refuses is an abort only once nothing else is
	// in flight.
	abort := issue(false)
	var hedge <-chan time.Time
	if abort == nil && f.HedgeAfter != nil && next < eligible {
		hedge = f.after(f.HedgeAfter(size))
	}
loop:
	for inflight > 0 {
		select {
		case r := <-replies:
			if take(r) {
				return r.a, res, nil
			}
			// Failover: escalate to the next replica immediately.
			if next < len(ordered) {
				abort = issue(false)
			}
		case <-hedge:
			hedge = nil
			if next < eligible {
				f.observe(Event{Kind: Hedged})
				abort = issue(true)
				if next < eligible {
					hedge = f.after(f.HedgeAfter(size))
				}
			}
		case <-ctx.Done():
			break loop
		case <-stop:
			break loop
		}
	}
	if abort == nil {
		abort = admission.Check(ctx)
	}
	if inflight == 0 && abort == nil {
		return none, res, nil // every replica answered badly
	}
	// Given up: anything already delivered still counts.
	for inflight > 0 {
		select {
		case r := <-replies:
			if take(r) {
				return r.a, res, nil
			}
			continue
		default:
		}
		break
	}
	res.TimedOut = true
	if abort == nil {
		now := f.now()
		for i, r := range ordered[:next] {
			if silent&(1<<i) != 0 {
				f.observe(Event{Kind: Failed, Replica: r, Latency: now.Sub(began), Demoted: f.Health.Record(r, false, now)})
			}
		}
	}
	return none, res, abort
}

// Merge is the fan-out's merge rule: the answers concatenated, sorted
// with rdf.Triple.Compare, and adjacent duplicates (terms plus valid
// time) dropped, so overlapping answers — the same triple from two
// members, or from replicas that raced a move — come back once, in
// canonical order. Nil when every answer is empty.
func Merge(answers [][]rdf.Triple) []rdf.Triple {
	total := 0
	for _, a := range answers {
		total += len(a)
	}
	if total == 0 {
		return nil
	}
	out := make([]rdf.Triple, 0, total)
	for _, a := range answers {
		out = append(out, a...)
	}
	slices.SortFunc(out, func(a, b rdf.Triple) int { return a.Compare(&b) })
	return slices.CompactFunc(out, func(a, b rdf.Triple) bool { return a.Compare(&b) == 0 })
}

// Tally adds up every fan-out run under one context — one query
// evaluation, nested fan-outs included — so its owner can mark the
// answer partial and report which targets failed how. It is the one
// partial signal: sparql's evaluator attaches one when the caller
// brought none, marks the scans it reads as empty after an error, and
// sets Results.Partial from it. WithTally attaches one; read Fanouts
// and Members once the evaluation has returned.
type Tally struct {
	mu sync.Mutex
	// Fanouts counts the reads and gathers.
	Fanouts int
	// partial is set once any target did not answer or a reader marked
	// its answer incomplete.
	partial bool
	// cause is the first reason a reader marked the answer partial with.
	cause error
	// Members aggregates the outcomes of the named targets.
	Members map[string]*MemberTally
}

// MemberTally is one named target's outcomes across a Tally.
type MemberTally struct {
	Member                           string
	Answers, Errors, Timeouts, Skips int
	// LastErr is the target's most recent error.
	LastErr error
}

type tallyKey struct{}

// WithTally returns ctx carrying a fresh Tally.
func WithTally(ctx context.Context) (context.Context, *Tally) {
	t := &Tally{}
	return context.WithValue(ctx, tallyKey{}, t), t
}

// FromContext returns the Tally ctx carries, or nil.
func FromContext(ctx context.Context) *Tally {
	t, _ := ctx.Value(tallyKey{}).(*Tally)
	return t
}

// MarkPartial marks the answer partial without a fan-out: a read that
// degraded to an empty answer, or a remote answer its endpoint called
// partial. cause says why; the Tally keeps the first one. A nil Tally
// ignores it. A replica abandoned by its read may still mark after the
// evaluation returned; Partial and Cause stay safe to call.
func (t *Tally) MarkPartial(cause error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.partial = true
	if t.cause == nil {
		t.cause = cause
	}
	t.mu.Unlock()
}

// Cause returns the first cause a reader marked the answer partial
// with; nil when none did, and for a nil Tally.
func (t *Tally) Cause() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cause
}

// Partial reports whether any target did not answer or any read was
// marked partial; false for a nil Tally.
func (t *Tally) Partial() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.partial
}

// count adds one fan-out's results to the context's Tally, if any.
func count(ctx context.Context, results []Result) {
	t := FromContext(ctx)
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Fanouts++
	for _, r := range results {
		t.partial = t.partial || !r.OK()
		if r.Member == "" {
			continue
		}
		m := t.Members[r.Member]
		if m == nil {
			if t.Members == nil {
				t.Members = map[string]*MemberTally{}
			}
			m = &MemberTally{Member: r.Member}
			t.Members[r.Member] = m
		}
		switch {
		case r.Skipped:
			m.Skips++
		case r.TimedOut:
			m.Timeouts++
		case r.Err != nil:
			m.Errors++
			m.LastErr = r.Err
		default:
			m.Answers++
		}
	}
}
