package admission

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"applab/internal/telemetry"
)

// Overload is returned by Acquire when a request is shed at the door
// (queue full) or evicted after waiting past the queue deadline.
// RetryAfter is the hint clients should wait before retrying; the
// endpoint turns it into a Retry-After header.
type Overload struct {
	Evicted    bool
	RetryAfter time.Duration
}

func (e *Overload) Error() string {
	if e.Evicted {
		return fmt.Sprintf("admission: overloaded: evicted from queue (retry after %s)", e.RetryAfter)
	}
	return fmt.Sprintf("admission: overloaded: queue full (retry after %s)", e.RetryAfter)
}

// RetryAfterSeconds renders the hint for the Retry-After header: whole
// seconds, rounded up, at least 1.
func (e *Overload) RetryAfterSeconds() int {
	s := int(math.Ceil(e.RetryAfter.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// AsOverload unwraps err to an *Overload when it is one.
func AsOverload(err error) (*Overload, bool) {
	ov, ok := err.(*Overload)
	return ov, ok
}

// Controller bounds concurrent request evaluation. Up to MaxInflight
// requests run at once; the next MaxQueue wait in FIFO order; everyone
// else is shed immediately. A queued request that waits longer than
// QueueTimeout is evicted (CoDel-style: by its own timer while waiting,
// and again at hand-off time, so a stale head-of-line request is never
// served past its useful deadline). Configure before first use; the
// zero hooks use real time.
type Controller struct {
	// MaxInflight is the concurrent-evaluation cap (required, > 0).
	MaxInflight int
	// MaxQueue is the FIFO wait-queue capacity; 0 means shed immediately
	// when all slots are busy.
	MaxQueue int
	// QueueTimeout evicts requests that waited this long; 0 waits forever.
	QueueTimeout time.Duration
	// Now/After are the clock hooks (time.Now/time.After when nil).
	Now   func() time.Time
	After func(time.Duration) <-chan time.Time
	// Metrics receives the admission counter family; nil disables.
	Metrics *telemetry.Registry

	initOnce sync.Once
	met      *ctrlMetrics

	mu       sync.Mutex
	inflight int
	queue    []*waiter
}

// waiter is one queued Acquire call. admit is buffered so release and
// eviction never block handing over the verdict.
type waiter struct {
	admit    chan error
	enqueued time.Time
}

func (c *Controller) init() {
	c.initOnce.Do(func() {
		c.met = newCtrlMetrics(c.Metrics)
	})
}

func (c *Controller) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

func (c *Controller) afterFn(d time.Duration) <-chan time.Time {
	if c.After != nil {
		return c.After(d)
	}
	return time.After(d)
}

// retryAfter is the deterministic client back-off hint: one queue
// deadline (the earliest a freshly-shed client could plausibly be
// admitted), or one second when queueing is unbounded.
func (c *Controller) retryAfter() time.Duration {
	if c.QueueTimeout > 0 {
		return c.QueueTimeout
	}
	return time.Second
}

// Stats reports the instantaneous controller state.
func (c *Controller) Stats() (inflight, queued int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight, len(c.queue)
}

// Acquire admits the caller, queues it, or rejects it with *Overload.
// On success the returned release function must be called exactly when
// the request finishes; it hands the slot to the queue head. A
// cancelled ctx abandons the wait (counted as an eviction, since the
// request left the queue unserved).
func (c *Controller) Acquire(ctx context.Context) (func(), error) {
	c.init()
	c.mu.Lock()
	if c.inflight < c.MaxInflight {
		c.inflight++
		c.met.admitted.Inc()
		c.met.inflight.Set(float64(c.inflight))
		c.mu.Unlock()
		return c.releaseFunc(), nil
	}
	if len(c.queue) >= c.MaxQueue {
		c.met.shed.Inc()
		c.mu.Unlock()
		return nil, &Overload{RetryAfter: c.retryAfter()}
	}
	w := &waiter{admit: make(chan error, 1), enqueued: c.now()}
	c.queue = append(c.queue, w)
	c.met.queued.Inc()
	c.met.depth.Set(float64(len(c.queue)))
	c.mu.Unlock()

	var expire <-chan time.Time
	if c.QueueTimeout > 0 {
		expire = c.afterFn(c.QueueTimeout)
	}
	select {
	case err := <-w.admit:
		if err != nil {
			return nil, err
		}
		return c.releaseFunc(), nil
	case <-expire:
		if c.evict(w) {
			return nil, &Overload{Evicted: true, RetryAfter: c.retryAfter()}
		}
		// Lost the race against release: the slot is already ours.
		if err := <-w.admit; err != nil {
			return nil, err
		}
		return c.releaseFunc(), nil
	case <-ctx.Done():
		if c.evict(w) {
			return nil, ctx.Err()
		}
		if err := <-w.admit; err != nil {
			return nil, err
		}
		return c.releaseFunc(), nil
	}
}

// evict removes w from the queue; false means release already dequeued
// it (its verdict is in w.admit).
func (c *Controller) evict(w *waiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			c.met.evicted.Inc()
			c.met.depth.Set(float64(len(c.queue)))
			return true
		}
	}
	return false
}

// releaseFunc wraps release so double-calls are harmless.
func (c *Controller) releaseFunc() func() {
	var once sync.Once
	return func() { once.Do(c.release) }
}

// release hands the slot to the queue head, skipping (and evicting)
// heads that already waited past the queue deadline. Every verdict is
// decided under c.mu but sent after unlocking: each waiter is already
// out of the queue, so nothing else can answer it.
func (c *Controller) release() {
	var evicted []*waiter
	var next *waiter
	c.mu.Lock()
	for len(c.queue) > 0 && next == nil {
		w := c.queue[0]
		c.queue = c.queue[1:]
		c.met.depth.Set(float64(len(c.queue)))
		wait := c.now().Sub(w.enqueued)
		if c.QueueTimeout > 0 && wait > c.QueueTimeout {
			c.met.evicted.Inc()
			evicted = append(evicted, w)
			continue
		}
		c.met.waitSeconds.Observe(wait.Seconds())
		c.met.admitted.Inc()
		next = w
	}
	if next == nil {
		c.inflight--
		c.met.inflight.Set(float64(c.inflight))
	}
	c.mu.Unlock()
	for _, w := range evicted {
		w.admit <- &Overload{Evicted: true, RetryAfter: c.retryAfter()}
	}
	if next != nil {
		next.admit <- nil
	}
}

// Middleware wraps next with admission control: rejected requests get
// 503 + Retry-After without reaching next. Used by cmd/opendapd to put
// the DAP server behind the same controller as the SPARQL endpoint.
func (c *Controller) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, err := c.Acquire(r.Context())
		if err != nil {
			RejectHTTP(w, err)
			return
		}
		defer release()
		next.ServeHTTP(w, r)
	})
}

// RejectHTTP writes the plain-text 503 for an Acquire error, with the
// Retry-After header when the error carries a hint.
func RejectHTTP(w http.ResponseWriter, err error) {
	if ov, ok := AsOverload(err); ok {
		w.Header().Set("Retry-After", strconv.Itoa(ov.RetryAfterSeconds()))
	}
	http.Error(w, err.Error(), http.StatusServiceUnavailable)
}
