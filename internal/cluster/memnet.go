package cluster

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrUnreachable is what MemNetwork returns for calls to nodes that are
// dead or partitioned away from the coordinator.
var ErrUnreachable = errors.New("cluster: node unreachable")

// MemNetwork is an in-process Transport with scripted fault injection:
// node kill/restart, coordinator-side partitions, and per-node added
// latency that waits on an injectable After (the faults.Clock in tests
// and the chaos harness), so every failure schedule runs with zero real
// sleeps. The bench's hedging scenario runs on it too.
type MemNetwork struct {
	// After supplies timers for injected latency; defaults to
	// time.After. Tests plug (*faults.Clock).After.
	After func(time.Duration) <-chan time.Time

	mu    sync.Mutex
	nodes map[string]*Node
	down  map[string]bool
	cut   map[string]bool
	slow  map[string]time.Duration
	// calls counts the calls in flight; waits holds the latency timer of
	// each one that is waiting its injected latency out.
	calls int
	waits map[<-chan time.Time]struct{}
}

// NewMemNetwork returns an empty fabric.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{
		nodes: map[string]*Node{},
		down:  map[string]bool{},
		cut:   map[string]bool{},
		slow:  map[string]time.Duration{},
		waits: map[<-chan time.Time]struct{}{},
	}
}

// AddNode attaches a node to the fabric under its ID.
func (m *MemNetwork) AddNode(n *Node) {
	m.mu.Lock()
	m.nodes[n.ID] = n
	m.mu.Unlock()
}

// Node returns the attached node by ID (nil if unknown).
func (m *MemNetwork) Node(id string) *Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nodes[id]
}

// Kill marks the node dead and wipes its state — a process crash of an
// in-memory node. Calls fail immediately with ErrUnreachable.
func (m *MemNetwork) Kill(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.down[id] = true
	if n := m.nodes[id]; n != nil {
		n.Reset()
	}
}

// Restart brings a killed node back empty; it must be re-bootstrapped
// via Coordinator.Repair before it can serve caught-up reads.
func (m *MemNetwork) Restart(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.down, id)
}

// Partition cuts the node off from the coordinator without killing it:
// its state survives, it just misses writes until Heal.
func (m *MemNetwork) Partition(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cut[id] = true
}

// Heal undoes Partition.
func (m *MemNetwork) Heal(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cut, id)
}

// SetSlow adds fixed latency to every call to the node (0 clears it).
func (m *MemNetwork) SetSlow(id string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d <= 0 {
		delete(m.slow, id)
		return
	}
	m.slow[id] = d
}

// Parked reports whether the fabric can only move on by its clock
// advancing: calls are in flight and every one of them waits on a
// latency timer that has not fired. A driver that steps a fake clock
// steps it only then — while a call is still running, or has its reply
// under way, fake time would overtake a delivery that takes no time and
// fire hedge timers a real clock never reaches. A fired timer shows as
// a buffered value, which an After hook like faults.Clock's leaves until
// the call wakes; between its waking and its leaving waits a call still
// looks parked, so a schedule with injected latency can get one step
// more than it needed, one without never gets any.
func (m *MemNetwork) Parked() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.calls == 0 || len(m.waits) < m.calls {
		return false
	}
	for timer := range m.waits {
		if len(timer) > 0 {
			return false
		}
	}
	return true
}

// Call delivers the request unless the node is dead or partitioned,
// waiting out any injected latency on the fabric's clock first. Faults
// are re-checked after the wait: a node killed while a slow call was in
// flight fails, it does not answer from the grave.
func (m *MemNetwork) Call(ctx context.Context, id string, req Message) (Message, error) {
	m.mu.Lock()
	n := m.nodes[id]
	unreachable := n == nil || m.down[id] || m.cut[id]
	d := m.slow[id]
	after := m.After
	m.calls++
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.calls--
		m.mu.Unlock()
	}()
	if unreachable {
		return Message{}, ErrUnreachable
	}
	if d > 0 {
		if after == nil {
			after = time.After
		}
		timer := after(d)
		m.mu.Lock()
		m.waits[timer] = struct{}{}
		m.mu.Unlock()
		var err error
		select {
		case <-timer:
		case <-ctx.Done():
			err = ctx.Err()
		}
		m.mu.Lock()
		delete(m.waits, timer)
		unreachable = m.down[id] || m.cut[id]
		m.mu.Unlock()
		if err != nil {
			return Message{}, err
		}
		if unreachable {
			return Message{}, ErrUnreachable
		}
	}
	if err := ctx.Err(); err != nil {
		return Message{}, err
	}
	resp := n.Handle(req)
	if req.Read != nil {
		return resp, req.Read(resp)
	}
	return resp, nil
}
