package federation

import (
	"sync"
	"time"
)

// HealthTracker is the failure-driven demotion machinery behind
// federation member health, factored out so other fan-out layers (the
// cluster coordinator's replica selection) share the exact cooldown
// semantics PR2 pinned for federation members:
//
//   - DemoteAfter consecutive failures demote a member out of
//     selection; one success fully rehabilitates it.
//   - A demoted member sits out RetryCooldown, then becomes eligible
//     again as a probe; a failed probe re-demotes it for a fresh
//     cooldown, a successful one rehabilitates.
//   - Demotion must never make a fan-out impossible: callers that end
//     up with zero eligible members probe everyone (see Federation.
//     selectSources and cluster.Coordinator), so the tracker only
//     advises, it never blocks.
//
// The zero value is not usable; call NewHealthTracker. Safe for
// concurrent use.
type HealthTracker struct {
	mu sync.Mutex
	// demoteAfterN is the consecutive-failure count that demotes
	// (0 = default 3; negative disables demotion entirely).
	demoteAfterN int
	// retryCooldown is how long a demoted member sits out before it is
	// probed again (0 = default 30s).
	retryCooldown time.Duration
	m             map[string]*memberHealth
}

// NewHealthTracker returns a tracker with the given thresholds (0 picks
// the federation defaults: demote after 3, retry after 30s).
func NewHealthTracker(demoteAfter int, retryCooldown time.Duration) *HealthTracker {
	return &HealthTracker{
		demoteAfterN:  demoteAfter,
		retryCooldown: retryCooldown,
		m:             map[string]*memberHealth{},
	}
}

// SetLimits updates the thresholds. Federation forwards its public
// DemoteAfter/RetryDemoted fields through here before each fan-out, so
// the tracker's own lock covers the configuration reads its decisions
// depend on.
func (h *HealthTracker) SetLimits(demoteAfter int, retryCooldown time.Duration) {
	h.mu.Lock()
	h.demoteAfterN = demoteAfter
	h.retryCooldown = retryCooldown
	h.mu.Unlock()
}

// demoteAfter and cooldown resolve defaults; callers hold h.mu.
func (h *HealthTracker) demoteAfter() int {
	if h.demoteAfterN != 0 {
		return h.demoteAfterN
	}
	return 3
}

func (h *HealthTracker) cooldown() time.Duration {
	if h.retryCooldown > 0 {
		return h.retryCooldown
	}
	return 30 * time.Second
}

// Record folds one outcome into the member's health. It reports whether
// this outcome newly demoted the member (the demotion-metric edge).
func (h *HealthTracker) Record(name string, ok bool, now time.Time) (demoted bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.m[name]
	if st == nil {
		st = &memberHealth{}
		h.m[name] = st
	}
	if ok {
		st.consecFails = 0
		st.demoted = false
		return false
	}
	st.consecFails++
	if h.demoteAfter() > 0 && st.consecFails >= h.demoteAfter() {
		newly := !st.demoted
		st.demoted = true
		st.demotedAt = now
		return newly
	}
	return false
}

// Eligible reports whether the member should be targeted: true unless
// it is demoted and still inside its cooldown. A demoted member past
// the cooldown reads eligible — that call is its probe.
func (h *HealthTracker) Eligible(name string, now time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.m[name]
	if st == nil || !st.demoted {
		return true
	}
	return now.Sub(st.demotedAt) >= h.cooldown()
}

// Status reports a member's consecutive-failure count and whether it is
// currently demoted.
func (h *HealthTracker) Status(name string) (consecFails int, demoted bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.m[name]
	if st == nil {
		return 0, false
	}
	return st.consecFails, st.demoted
}
