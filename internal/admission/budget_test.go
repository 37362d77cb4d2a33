package admission_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"applab/internal/admission"
	"applab/internal/faults"
	"applab/internal/telemetry"
)

func TestLimitsEnabled(t *testing.T) {
	if (admission.Limits{}).Enabled() {
		t.Error("zero Limits reported enabled")
	}
	for _, l := range []admission.Limits{
		{Deadline: time.Second},
		{MaxRows: 1},
		{MaxIntermediate: 1},
		{MaxFanout: 1},
	} {
		if !l.Enabled() {
			t.Errorf("%+v reported disabled", l)
		}
	}
}

func TestBudgetErrorMessages(t *testing.T) {
	cases := []struct {
		be   *admission.BudgetError
		want string
	}{
		{&admission.BudgetError{Kind: admission.KindRows, Limit: 10}, "admission: query budget exceeded: rows limit 10"},
		{&admission.BudgetError{Kind: admission.KindIntermediate, Limit: 500}, "admission: query budget exceeded: intermediate limit 500"},
		{&admission.BudgetError{Kind: admission.KindFanout, Limit: 3}, "admission: query budget exceeded: fanout limit 3"},
		{&admission.BudgetError{Kind: admission.KindDeadline, Limit: int64(2 * time.Second)}, "admission: query budget exceeded: deadline 2s elapsed"},
	}
	for _, tc := range cases {
		if got := tc.be.Error(); got != tc.want {
			t.Errorf("message = %q, want %q", got, tc.want)
		}
	}
}

func TestBudgetFirstViolationWins(t *testing.T) {
	b := admission.NewBudget(admission.Limits{MaxIntermediate: 10, MaxRows: 1}, nil)
	first := b.AddIntermediate(100)
	if first == nil {
		t.Fatal("AddIntermediate(100) over a 10 cap returned nil")
	}
	// A later violation of a different dimension returns the first error.
	if err := b.CheckRows(5); err != first {
		t.Fatalf("CheckRows after violation = %v, want the first error %v", err, first)
	}
	if err := b.Err(); err != first {
		t.Fatalf("Err = %v, want %v", err, first)
	}
}

func TestBudgetConcurrentIdenticalError(t *testing.T) {
	// Many workers hammer the same budget: all of them must surface the
	// exact same *BudgetError value, never a count-dependent variant.
	b := admission.NewBudget(admission.Limits{MaxIntermediate: 1000}, nil)
	const workers = 8
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := b.AddIntermediate(64); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := b.Err()
	if want == nil {
		t.Fatal("budget never violated")
	}
	for w, err := range errs {
		if err == nil {
			t.Fatalf("worker %d finished without seeing the violation", w)
		}
		if err != want { // pointer identity: the CAS winner is shared
			t.Fatalf("worker %d error %v is not the shared violation %v", w, err, want)
		}
	}
}

func TestBudgetNilSafe(t *testing.T) {
	var b *admission.Budget
	if err := b.Err(); err != nil {
		t.Errorf("nil Err = %v", err)
	}
	if err := b.AddIntermediate(1 << 30); err != nil {
		t.Errorf("nil AddIntermediate = %v", err)
	}
	if err := b.AddFanout(1 << 30); err != nil {
		t.Errorf("nil AddFanout = %v", err)
	}
	if err := b.CheckRows(1 << 30); err != nil {
		t.Errorf("nil CheckRows = %v", err)
	}
	b.ExpireDeadline() // must not panic
	ctx, stop := b.StartDeadline(context.Background(), nil)
	stop()
	if ctx.Err() != nil {
		t.Errorf("nil StartDeadline cancelled ctx: %v", ctx.Err())
	}
	if l := b.Limits(); l.Enabled() {
		t.Errorf("nil Limits = %+v, want zero", l)
	}
}

func TestBudgetFanout(t *testing.T) {
	b := admission.NewBudget(admission.Limits{MaxFanout: 3}, nil)
	if err := b.AddFanout(3); err != nil {
		t.Fatalf("AddFanout(3) within cap: %v", err)
	}
	err := b.AddFanout(1)
	be, ok := admission.AsBudgetError(err)
	if !ok || be.Kind != admission.KindFanout || be.Limit != 3 {
		t.Fatalf("AddFanout over cap = %v, want fanout limit 3", err)
	}
}

func TestBudgetRows(t *testing.T) {
	b := admission.NewBudget(admission.Limits{MaxRows: 10}, nil)
	if err := b.CheckRows(10); err != nil {
		t.Fatalf("CheckRows(10) at cap: %v", err)
	}
	err := b.CheckRows(11)
	be, ok := admission.AsBudgetError(err)
	if !ok || be.Kind != admission.KindRows || be.Limit != 10 {
		t.Fatalf("CheckRows(11) = %v, want rows limit 10", err)
	}
}

func TestStartDeadlineFakeClock(t *testing.T) {
	clk := faults.NewClock(time.Unix(0, 0))
	reg := telemetry.NewRegistry()
	b := admission.NewBudget(admission.Limits{Deadline: 5 * time.Second}, reg)
	ctx, stop := b.StartDeadline(context.Background(), clk.After)
	defer stop()

	if err := admission.Check(admission.WithBudget(ctx, b)); err != nil {
		t.Fatalf("Check before deadline: %v", err)
	}
	clk.AwaitTimers(1)
	clk.Advance(5 * time.Second)
	// The watcher fires asynchronously; wait for the ctx cancellation it
	// performs (no fake-clock time passes while we spin).
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("deadline never cancelled the context")
	}
	err := admission.Check(admission.WithBudget(ctx, b))
	be, ok := admission.AsBudgetError(err)
	if !ok || be.Kind != admission.KindDeadline {
		t.Fatalf("Check after deadline = %v, want deadline budget error", err)
	}
	if got := reg.Counter("admission_budget_exceeded_total", "kind", "deadline").Value(); got != 1 {
		t.Fatalf("budget_exceeded{kind=deadline} = %d, want 1", got)
	}
}

func TestStartDeadlineStopReleasesWatcher(t *testing.T) {
	clk := faults.NewClock(time.Unix(0, 0))
	b := admission.NewBudget(admission.Limits{Deadline: time.Second}, nil)
	ctx, stop := b.StartDeadline(context.Background(), clk.After)
	clk.AwaitTimers(1)
	stop()
	stop() // double-stop is harmless
	if ctx.Err() == nil {
		t.Error("stop did not cancel the derived context")
	}
	if b.Err() != nil {
		t.Errorf("stopped deadline recorded a violation: %v", b.Err())
	}
}

func TestAborted(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("upstream 500"), false},
		{&admission.BudgetError{Kind: admission.KindRows, Limit: 1}, true},
		{context.Canceled, true},
		{context.DeadlineExceeded, true},
	}
	for _, tc := range cases {
		if got := admission.Aborted(tc.err); got != tc.want {
			t.Errorf("admission.Aborted(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestCheckPrefersBudgetOverContext(t *testing.T) {
	b := admission.NewBudget(admission.Limits{MaxRows: 1}, nil)
	ctx, cancel := context.WithCancel(admission.WithBudget(context.Background(), b))
	cancel()
	if err := admission.Check(ctx); err != context.Canceled {
		t.Fatalf("Check with clean budget = %v, want context.Canceled", err)
	}
	b.CheckRows(2)
	err := admission.Check(ctx)
	if _, ok := admission.AsBudgetError(err); !ok {
		t.Fatalf("Check = %v, want the budget error to win over ctx.Err", err)
	}
}

func TestFromContextMissing(t *testing.T) {
	if b := admission.FromContext(context.Background()); b != nil {
		t.Fatalf("admission.FromContext(empty) = %v, want nil", b)
	}
	if err := admission.Check(context.Background()); err != nil {
		t.Fatalf("admission.Check(empty) = %v, want nil", err)
	}
}

func TestBudgetAfterViolationEveryChargeFails(t *testing.T) {
	b := admission.NewBudget(admission.Limits{MaxIntermediate: 1, MaxRows: 1, MaxFanout: 1}, nil)
	first := b.AddIntermediate(2)
	if first == nil {
		t.Fatal("want violation")
	}
	// Once tripped, every subsequent charge reports the same violation,
	// whatever dimension it charges.
	if err := b.AddIntermediate(1); err != first {
		t.Errorf("AddIntermediate after violation = %v, want the first violation", err)
	}
	if err := b.AddFanout(1); err != first {
		t.Errorf("AddFanout after violation = %v, want the first violation", err)
	}
	if err := b.CheckRows(1); err != first {
		t.Errorf("CheckRows after violation = %v, want the first violation", err)
	}
}

func TestBudgetDisabledDimensionsNeverTrip(t *testing.T) {
	b := admission.NewBudget(admission.Limits{}, nil)
	if err := b.AddIntermediate(1 << 30); err != nil {
		t.Errorf("AddIntermediate with no cap: %v", err)
	}
	if err := b.AddFanout(1 << 30); err != nil {
		t.Errorf("AddFanout with no cap: %v", err)
	}
	if err := b.CheckRows(1 << 30); err != nil {
		t.Errorf("CheckRows with no cap: %v", err)
	}
	b.ExpireDeadline() // no deadline configured: must not record anything
	if err := b.Err(); err != nil {
		t.Errorf("Err after disabled charges = %v, want nil", err)
	}
}

func TestBudgetLimitsAccessor(t *testing.T) {
	var nilBudget *admission.Budget
	if got := nilBudget.Limits(); got != (admission.Limits{}) {
		t.Errorf("nil budget Limits() = %+v, want zero", got)
	}
	l := admission.Limits{MaxRows: 7}
	if got := admission.NewBudget(l, nil).Limits(); got != l {
		t.Errorf("Limits() = %+v, want %+v", got, l)
	}
}
