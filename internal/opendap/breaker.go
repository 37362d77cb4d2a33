package opendap

import (
	"errors"
	"sync"
	"time"

	"applab/internal/telemetry"
)

// ErrCircuitOpen is returned by Client calls (and Breaker.Allow) while
// the breaker is open: the upstream has failed repeatedly and the client
// fails fast instead of queueing more doomed requests behind timeouts.
var ErrCircuitOpen = errors.New("opendap: circuit breaker open; failing fast")

// BreakerState is the circuit state.
type BreakerState int

const (
	// BreakerClosed: requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests fail fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe request is in flight; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

// String names the state for diagnostics.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a consecutive-failure circuit breaker for the remote
// OPeNDAP path. After Threshold consecutive failures it opens and every
// Allow fails fast with ErrCircuitOpen; once Cooldown has elapsed it
// half-opens, letting exactly one probe through. A successful probe
// closes the circuit, a failed one re-opens it for another cooldown.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the circuit
	// (default 5).
	Threshold int
	// Cooldown is how long the circuit stays open before the half-open
	// probe (default 10s).
	Cooldown time.Duration
	// Now allows tests to control the clock; time.Now when nil.
	Now func() time.Time
	// Metrics, when set, tracks the circuit state and its transitions
	// (see metrics.go).
	Metrics *telemetry.Registry

	mu       sync.Mutex
	state    BreakerState
	consec   int
	openedAt time.Time
	probing  bool
}

// NewBreaker returns a breaker; threshold <= 0 and cooldown <= 0 select
// the defaults.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{Threshold: threshold, Cooldown: cooldown}
}

func (b *Breaker) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

func (b *Breaker) threshold() int {
	if b.Threshold > 0 {
		return b.Threshold
	}
	return 5
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown > 0 {
		return b.Cooldown
	}
	return 10 * time.Second
}

// setState transitions the circuit, recording real changes in the
// registry. Called with b.mu held.
func (b *Breaker) setState(s BreakerState) {
	if b.state == s {
		return
	}
	b.state = s
	b.noteState(s)
}

// Allow reports whether a request may proceed, transitioning open →
// half-open when the cooldown has elapsed. Every successful Allow must
// be matched by a Record call with the request's outcome, or by release
// when the caller abandoned the request.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown() {
			return ErrCircuitOpen
		}
		b.setState(BreakerHalfOpen)
		b.probing = true
		return nil
	default: // BreakerHalfOpen
		if b.probing {
			return ErrCircuitOpen // a probe is already in flight
		}
		b.probing = true
		return nil
	}
}

// Record feeds a request outcome back into the breaker.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if err == nil {
		b.setState(BreakerClosed)
		b.consec = 0
		return
	}
	b.consec++
	if b.state == BreakerHalfOpen || b.consec >= b.threshold() {
		b.setState(BreakerOpen)
		b.openedAt = b.now()
	}
}

// release matches an Allow whose request the caller abandoned: no
// outcome is recorded, and a half-open circuit admits the next probe.
// A nil breaker is a no-op.
func (b *Breaker) release() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// State returns the current circuit state without transitioning it.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// ConsecutiveFailures reports the current consecutive-failure count.
func (b *Breaker) ConsecutiveFailures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consec
}
