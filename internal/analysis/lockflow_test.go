package analysis_test

import (
	"strings"
	"testing"
)

const lockflowPrelude = `package fixture

import "sync"

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]int
}
`

func TestLockflow(t *testing.T) {
	runCases(t, "lockflow", []checkerCase{
		{
			name: "early return without unlock is flagged",
			src: lockflowPrelude + `
func (s *store) get(k string) (int, bool) {
	s.mu.Lock()
	v, ok := s.data[k]
	if !ok {
		return 0, false // mu still held
	}
	s.mu.Unlock()
	return v, true
}
`,
			want:       1,
			wantSubstr: "may still be write-locked",
		},
		{
			name: "deferred unlock covers every path",
			src: lockflowPrelude + `
func (s *store) get(k string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[k]
	if !ok {
		return 0, false
	}
	return v, true
}
`,
			want: 0,
		},
		{
			name: "unlock on both branches is fine",
			src: lockflowPrelude + `
func (s *store) get(k string) (int, bool) {
	s.mu.Lock()
	v, ok := s.data[k]
	if !ok {
		s.mu.Unlock()
		return 0, false
	}
	s.mu.Unlock()
	return v, true
}
`,
			want: 0,
		},
		{
			name: "double lock on every path deadlocks",
			src: lockflowPrelude + `
func (s *store) bad() {
	s.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock()
}
`,
			want:       1,
			wantSubstr: "already write-locked",
		},
		{
			name: "lock in a loop without unlock leaks at exit",
			src: lockflowPrelude + `
func (s *store) bad(keys []string) {
	for range keys {
		s.mu.Lock()
	}
}
`,
			want:       1, // iteration one arrives unlocked, so the re-lock is not a must; the exit leak still fires
			wantSubstr: "may still be write-locked",
		},
		{
			name: "finding inside a loop body is reported once",
			src: lockflowPrelude + `
func (s *store) bad(n int) {
	s.rw.Lock()
	for i := 0; i < n; i++ {
		s.rw.RLock()
	}
	s.rw.Unlock()
}
`,
			want:       1, // the solver visits the body twice; the finding comes from the converged fact
			wantSubstr: "write-locked on every path reaching this RLock",
		},
		{
			name: "read-to-write upgrade deadlocks",
			src: lockflowPrelude + `
func (s *store) bad() {
	s.rw.RLock()
	s.rw.Lock()
	s.rw.Unlock()
	s.rw.RUnlock()
}
`,
			want:       1,
			wantSubstr: "read-to-write upgrade",
		},
		{
			name: "read lock leaked on early return",
			src: lockflowPrelude + `
func (s *store) peek(k string) int {
	s.rw.RLock()
	if len(s.data) == 0 {
		return 0
	}
	v := s.data[k]
	s.rw.RUnlock()
	return v
}
`,
			want:       1,
			wantSubstr: "read-locked",
		},
		{
			name: "unlock then relock is a sequence, not a double lock",
			src: lockflowPrelude + `
func (s *store) twice() {
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
}
`,
			want: 0,
		},
		{
			name: "lock inside a literal is that literal's business",
			src: lockflowPrelude + `
func (s *store) spawn() func() {
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.data["x"] = 1
	}
}
`,
			want: 0,
		},
		{
			name: "panic path does not count as a leak",
			src: lockflowPrelude + `
func (s *store) strict(k string) int {
	s.mu.Lock()
	v, ok := s.data[k]
	if !ok {
		s.mu.Unlock()
		panic("missing key")
	}
	s.mu.Unlock()
	return v
}
`,
			want: 0,
		},
		{
			name: "lint:ignore suppresses with a reason",
			src: lockflowPrelude + `
func (s *store) handoff() {
	//lint:ignore lockflow reason: lock intentionally held across the handoff, released by the receiver
	s.mu.Lock()
}
`,
			want: 0,
		},
	})
}

// TestLockflowFix: a lock with no unlock anywhere gets a mechanical
// `defer mu.Unlock()` fix.
func TestLockflowFix(t *testing.T) {
	got := runChecker(t, "lockflow", checkerCase{
		name: "fix",
		src: lockflowPrelude + `
func (s *store) set(k string, v int) {
	s.mu.Lock()
	s.data[k] = v
}
`,
	})
	if len(got) != 1 {
		t.Fatalf("want 1 finding, got %v", got)
	}
	if got[0].Fix == nil {
		t.Fatal("finding has no suggested fix")
	}
	if got[0].Fix.Text != "defer s.mu.Unlock()" {
		t.Errorf("fix text = %q, want defer s.mu.Unlock()", got[0].Fix.Text)
	}
}

// TestLockflowNoFixInLoop: a defer inside a loop body would pile up, so
// the leak finding must come without a mechanical fix.
func TestLockflowNoFixInLoop(t *testing.T) {
	got := runChecker(t, "lockflow", checkerCase{
		name: "loop",
		src: lockflowPrelude + `
func (s *store) bad(keys []string) {
	for range keys {
		s.mu.Lock()
	}
}
`,
	})
	if len(got) != 1 {
		t.Fatalf("want 1 finding, got %v", got)
	}
	if got[0].Fix != nil {
		t.Errorf("lock inside a loop must not get a defer fix, got %q", got[0].Fix.Text)
	}
}

// TestLockflowNoFixWithPartialUnlock: some paths unlock, so a blanket
// defer would double-unlock.
func TestLockflowNoFixWithPartialUnlock(t *testing.T) {
	got := runChecker(t, "lockflow", checkerCase{
		name: "partial",
		src: lockflowPrelude + `
func (s *store) set(k string, v int) {
	s.mu.Lock()
	if v < 0 {
		return // leak
	}
	s.data[k] = v
	s.mu.Unlock()
}
`,
	})
	if len(got) != 1 {
		t.Fatalf("want 1 finding, got %v", got)
	}
	if got[0].Fix != nil {
		t.Errorf("partial unlock must not get a mechanical fix, got %q", got[0].Fix.Text)
	}
}

func TestLockflowOrderCycle(t *testing.T) {
	got := runChecker(t, "lockflow", checkerCase{
		name: "cycle",
		src: `package fixture

import "sync"

type a struct{ mu sync.Mutex }
type b struct{ mu sync.Mutex }

func lockAB(x *a, y *b) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

func lockBA(x *a, y *b) {
	y.mu.Lock()
	x.mu.Lock()
	x.mu.Unlock()
	y.mu.Unlock()
}
`,
	})
	if len(got) != 1 {
		t.Fatalf("want 1 cycle finding, got %v", got)
	}
	if want := "lock-order cycle"; !containsStr(got[0].Message, want) {
		t.Errorf("message %q lacks %q", got[0].Message, want)
	}
}

func TestLockflowOrderCycleViaCall(t *testing.T) {
	got := runChecker(t, "lockflow", checkerCase{
		name: "cycle-via-call",
		src: `package fixture

import "sync"

type a struct{ mu sync.Mutex }
type b struct{ mu sync.Mutex }

func (y *b) poke() {
	y.mu.Lock()
	y.mu.Unlock()
}

func lockAB(x *a, y *b) {
	x.mu.Lock()
	y.poke() // acquires b.mu while a.mu held
	x.mu.Unlock()
}

func lockBA(x *a, y *b) {
	y.mu.Lock()
	x.mu.Lock()
	x.mu.Unlock()
	y.mu.Unlock()
}
`,
	})
	if len(got) != 1 {
		t.Fatalf("want 1 cycle finding, got %v", got)
	}
}

func TestLockflowSelfDeadlockViaCall(t *testing.T) {
	got := runChecker(t, "lockflow", checkerCase{
		name: "self-deadlock",
		src: `package fixture

import "sync"

type reg struct{ mu sync.Mutex }

func (r *reg) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return 0
}

func (r *reg) report() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size() // re-locks r.mu: self-deadlock
}
`,
	})
	if len(got) != 1 {
		t.Fatalf("want 1 self-deadlock finding, got %v", got)
	}
	if want := "self-deadlock"; !containsStr(got[0].Message, want) {
		t.Errorf("message %q lacks %q", got[0].Message, want)
	}
}

func TestLockflowConsistentOrderNoCycle(t *testing.T) {
	got := runChecker(t, "lockflow", checkerCase{
		name: "consistent",
		src: `package fixture

import "sync"

type a struct{ mu sync.Mutex }
type b struct{ mu sync.Mutex }

func one(x *a, y *b) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

func two(x *a, y *b) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}
`,
	})
	if len(got) != 0 {
		t.Fatalf("consistent order must not be flagged, got %v", got)
	}
}

func containsStr(s, sub string) bool { return strings.Contains(s, sub) }
