package scatter

import (
	"sync"
	"time"
)

// Health is the failure-driven demotion machinery every fan-out target
// shares, keyed by replica name (a federation member, a cluster node):
//
//   - DemoteAfter consecutive failures demote a replica out of
//     selection; one success fully rehabilitates it.
//   - A demoted replica sits out RetryCooldown, then becomes eligible
//     again as a probe; a failed probe re-demotes it for a fresh
//     cooldown, a successful one rehabilitates.
//   - Demotion must never make a read impossible: Read asks benched
//     replicas as failover, and the federation probes every member when
//     all are demoted, so the tracker only advises, it never blocks.
//
// The zero value is not usable; call NewHealth. Safe for concurrent use.
type Health struct {
	mu sync.Mutex
	// demoteAfterN is the consecutive-failure count that demotes
	// (0 = default 3; negative disables demotion entirely).
	demoteAfterN int
	// retryCooldown is how long a demoted replica sits out before it is
	// probed again (0 = default 30s).
	retryCooldown time.Duration
	m             map[string]*replicaHealth
}

type replicaHealth struct {
	consecFails int
	demoted     bool
	demotedAt   time.Time
}

// NewHealth returns a tracker with the given thresholds (0 picks the
// defaults: demote after 3, retry after 30s).
func NewHealth(demoteAfter int, retryCooldown time.Duration) *Health {
	return &Health{
		demoteAfterN:  demoteAfter,
		retryCooldown: retryCooldown,
		m:             map[string]*replicaHealth{},
	}
}

// SetLimits updates the thresholds. The federation forwards its public
// DemoteAfter/RetryDemoted fields through here before each fan-out, so
// the tracker's own lock covers the configuration reads its decisions
// depend on.
func (h *Health) SetLimits(demoteAfter int, retryCooldown time.Duration) {
	h.mu.Lock()
	h.demoteAfterN = demoteAfter
	h.retryCooldown = retryCooldown
	h.mu.Unlock()
}

// demoteAfter and cooldown resolve defaults; callers hold h.mu.
func (h *Health) demoteAfter() int {
	if h.demoteAfterN != 0 {
		return h.demoteAfterN
	}
	return 3
}

func (h *Health) cooldown() time.Duration {
	if h.retryCooldown > 0 {
		return h.retryCooldown
	}
	return 30 * time.Second
}

// Record folds one outcome into the replica's health. It reports
// whether this outcome newly demoted the replica (the demotion-metric
// edge).
func (h *Health) Record(name string, ok bool, now time.Time) (demoted bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.m[name]
	if st == nil {
		st = &replicaHealth{}
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

// Eligible reports whether the replica should be targeted: true unless
// it is demoted and still inside its cooldown. A demoted replica past
// the cooldown reads eligible — that call is its probe.
func (h *Health) Eligible(name string, now time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.m[name]
	if st == nil || !st.demoted {
		return true
	}
	return now.Sub(st.demotedAt) >= h.cooldown()
}

// Status reports a replica's consecutive-failure count and whether it
// is currently demoted.
func (h *Health) Status(name string) (consecFails int, demoted bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.m[name]
	if st == nil {
		return 0, false
	}
	return st.consecFails, st.demoted
}
