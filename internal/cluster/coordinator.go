package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"applab/internal/admission"
	"applab/internal/federation"
	"applab/internal/rdf"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/telemetry"
)

// Config describes a coordinator's cluster.
type Config struct {
	// Groups lists the replica groups: Groups[i] are the node names
	// (transport addresses) replicating shard i. Every group needs at
	// least one member; replication factor is the group size.
	Groups [][]string
	// Transport delivers RPCs to nodes.
	Transport Transport
	// Metrics receives the cluster_* series (nil disables).
	Metrics *telemetry.Registry
	// Now/After inject the clock (defaults: time.Now/time.After). The
	// chaos harness plugs a faults.Clock so hedging and slow-replica
	// schedules run on fake time.
	Now   func() time.Time
	After func(time.Duration) <-chan time.Time
	// HedgeAfter fixes the hedge delay. When zero the delay is the
	// hedgePercentile of the recent read-latency window, floored at
	// hedgeMin (defaultHedge while the window is empty).
	HedgeAfter time.Duration
	// DemoteAfter / RetryCooldown tune the replica health tracker
	// (federation cooldown semantics; zero picks its defaults).
	DemoteAfter   int
	RetryCooldown time.Duration
}

// Coordinator routes writes and BGP fragment reads across the replica
// groups. It implements sparql.Source, sparql.ErrorSource (keeping the
// evaluator's outer loop sequential — the parallelism lives in the
// exchange fan-out) and sparql.ExchangeSource, so the compiled planner
// pushes per-shard pattern scans through it.
//
// Correctness invariant: a replica's answer is accepted only when its
// replication position covers everything the coordinator has committed
// for that shard, so reads are read-your-writes and — with dedup and
// canonical merge in the exchange operator — byte-identical to a
// single store holding the same acknowledged writes. Replicas that
// cannot prove that are treated as failures, which is what drives
// hedging, failover, demotion and, when a whole group is unreadable,
// partial results.
type Coordinator struct {
	// Metrics is the registry the cluster_* series report into
	// (nil-safe).
	Metrics *telemetry.Registry

	ring   *Ring
	groups [][]string
	tr     Transport
	health *federation.HealthTracker
	now    func() time.Time
	after  func(time.Duration) <-chan time.Time

	hedgeAfter time.Duration

	wmu  []sync.Mutex
	logs []*shardLog
	lat  latWindow
}

// Adaptive hedging: the delay is the p95 of recent reads, never under
// 1 ms, and defaultHedge before any latency samples exist.
const (
	hedgePercentile = 0.95
	hedgeMin        = time.Millisecond
	defaultHedge    = 5 * time.Millisecond
)

// NewCoordinator validates the topology and builds a coordinator.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("cluster: no replica groups configured")
	}
	for i, g := range cfg.Groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("cluster: replica group %d has no members", i)
		}
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("cluster: no transport configured")
	}
	c := &Coordinator{
		Metrics:    cfg.Metrics,
		ring:       NewRing(len(cfg.Groups)),
		groups:     cfg.Groups,
		tr:         cfg.Transport,
		health:     federation.NewHealthTracker(cfg.DemoteAfter, cfg.RetryCooldown),
		now:        cfg.Now,
		after:      cfg.After,
		hedgeAfter: cfg.HedgeAfter,
		wmu:        make([]sync.Mutex, len(cfg.Groups)),
		logs:       make([]*shardLog, len(cfg.Groups)),
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.after == nil {
		c.after = time.After
	}
	for i := range c.logs {
		c.logs[i] = newShardLog()
	}
	return c, nil
}

// Shards reports the shard (= replica group) count.
func (c *Coordinator) Shards() int { return len(c.groups) }

// ShardOf reports the shard that owns a triple, by consistent-hashing
// its subject key.
func (c *Coordinator) ShardOf(t rdf.Triple) int {
	return c.ring.Lookup(t.S.Key())
}

// LogSeq reports the committed log position of a shard.
func (c *Coordinator) LogSeq(shard int) uint64 { return c.logs[shard].last() }

// TruncateLog drops shard log entries at or below seq. Operators (and
// the chaos harness) compact after Repair confirms replicas caught up;
// a replica behind the truncation point re-bootstraps via snapshot.
func (c *Coordinator) TruncateLog(shard int, seq uint64) {
	c.logs[shard].truncateTo(seq)
}

// ---- write path ----

// AddAll replicates the triples, routed to their shards. It returns the
// triples durably acknowledged by at least one replica — on error the
// returned prefix of shard batches is still committed (there is no
// cross-shard rollback), which is what the differential oracle applies.
func (c *Coordinator) AddAll(ctx context.Context, ts []rdf.Triple) ([]rdf.Triple, error) {
	return c.replicate(ctx, false, ts)
}

// DeleteAll replicates deletes for the triples, routed like AddAll.
func (c *Coordinator) DeleteAll(ctx context.Context, ts []rdf.Triple) ([]rdf.Triple, error) {
	return c.replicate(ctx, true, ts)
}

func (c *Coordinator) replicate(ctx context.Context, del bool, ts []rdf.Triple) ([]rdf.Triple, error) {
	buckets := make(map[int][]rdf.Triple)
	for _, t := range ts {
		sh := c.ShardOf(t)
		buckets[sh] = append(buckets[sh], t)
	}
	shards := make([]int, 0, len(buckets))
	for sh := range buckets {
		shards = append(shards, sh)
	}
	sort.Ints(shards)
	var applied []rdf.Triple
	var firstErr error
	for _, sh := range shards {
		if err := c.writeShard(ctx, uint32(sh), segment.LogRecord{Delete: del, Triples: buckets[sh]}); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		applied = append(applied, buckets[sh]...)
	}
	return applied, firstErr
}

// writeShard commits one record to a shard: assign the next sequence,
// push it to every group member in parallel, and commit to the shard
// log once at least one replica acknowledged. Replicas that are down or
// behind (they refuse gapped sequences) simply miss the write and catch
// up later via Repair.
func (c *Coordinator) writeShard(ctx context.Context, shard uint32, rec segment.LogRecord) error {
	img, err := segment.EncodeLogRecord(rec)
	if err != nil {
		return err
	}
	c.wmu[shard].Lock()
	defer c.wmu[shard].Unlock()
	seq := c.logs[shard].last() + 1
	members := c.groups[shard]
	budget := admission.FromContext(ctx)
	if err := budget.AddFanout(len(members)); err != nil {
		return err
	}
	var wg sync.WaitGroup
	acks := make([]bool, len(members))
	for i, node := range members {
		wg.Add(1)
		c.noteRPC("apply")
		go func(i int, node string) {
			defer wg.Done()
			resp, err := c.tr.Call(ctx, node, Message{Type: MsgApplyReq, Shard: shard, Seq: seq, Records: img})
			ok := err == nil && resp.Type == MsgApplyResp && resp.OK && resp.Seq >= seq
			acks[i] = ok
			if !ok {
				c.noteReplicaError(node)
			}
			if c.health.Record(node, ok, c.now()) {
				c.noteDemotion(node)
			}
		}(i, node)
	}
	wg.Wait()
	n := 0
	for _, ok := range acks {
		if ok {
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("cluster: shard %d write %d: no replica acknowledged", shard, seq)
	}
	c.logs[shard].commit(seq, img)
	c.noteWrite()
	return nil
}

// ---- read path ----

// fragmentRead answers one pattern from one shard's replica group with
// failover and hedging. ok=false means the whole group was unreadable
// (every member down, stale, or refusing) — the partial-results case.
// A non-nil error is always an admission abort (cancellation/budget)
// and aborts the query.
func (c *Coordinator) fragmentRead(ctx context.Context, shard uint32, s, p, o rdf.Term) (ts []rdf.Triple, ok bool, err error) {
	members := c.groups[shard]
	now := c.now()
	// Eligible members first in configured order; demoted members still
	// queue at the back so an all-demoted group gets probed rather than
	// abandoned. They are failover-only: a hedge duplicates a read that
	// may still answer, which is never worth waking a benched member.
	ordered := make([]string, 0, len(members))
	var benched []string
	for _, m := range members {
		if c.health.Eligible(m, now) {
			ordered = append(ordered, m)
		} else {
			benched = append(benched, m)
		}
	}
	eligible := len(ordered)
	ordered = append(ordered, benched...)
	want := c.logs[shard].last()
	budget := admission.FromContext(ctx)

	type reply struct {
		node   string
		msg    Message
		err    error
		hedged bool
		start  time.Time
	}
	replies := make(chan reply, len(ordered))
	inflight, next := 0, 0
	issue := func(hedged bool) error {
		if err := budget.AddFanout(1); err != nil {
			return err
		}
		node := ordered[next]
		next++
		inflight++
		c.noteRPC("match")
		start := c.now()
		go func() {
			msg, err := c.tr.Call(ctx, node, Message{Type: MsgMatchReq, Shard: shard, S: s, P: p, O: o})
			replies <- reply{node: node, msg: msg, err: err, hedged: hedged, start: start}
		}()
		return nil
	}
	if err := issue(false); err != nil {
		return nil, false, err
	}
	var hedge <-chan time.Time
	if next < eligible {
		hedge = c.after(c.hedgeDelay())
	}
	for inflight > 0 {
		select {
		case r := <-replies:
			inflight--
			if triples, good := c.acceptRead(r.node, r.msg, r.err, want); good {
				c.noteReadLatency(c.now().Sub(r.start))
				c.lat.add(c.now().Sub(r.start))
				if r.hedged {
					c.noteHedgeWin()
				}
				return triples, true, nil
			}
			// Failover: escalate to the next replica immediately.
			if next < len(ordered) {
				if err := issue(false); err != nil && inflight == 0 {
					return nil, false, err
				}
			}
		case <-hedge:
			hedge = nil
			if next < eligible {
				c.noteHedge()
				if err := issue(true); err != nil && inflight == 0 {
					return nil, false, err
				}
				if next < eligible {
					hedge = c.after(c.hedgeDelay())
				}
			}
		case <-ctx.Done():
			if berr := budget.Err(); berr != nil {
				return nil, false, berr
			}
			return nil, false, ctx.Err()
		}
	}
	return nil, false, nil
}

// acceptRead validates one replica's match answer against the
// committed log position and folds the outcome into health tracking.
func (c *Coordinator) acceptRead(node string, msg Message, err error, want uint64) ([]rdf.Triple, bool) {
	var triples []rdf.Triple
	good := err == nil && msg.Type == MsgMatchResp && msg.Seq >= want
	if good {
		recs, derr := segment.DecodeLogRecords(msg.Records)
		if derr != nil {
			good = false
		} else {
			for _, rec := range recs {
				triples = append(triples, rec.Triples...)
			}
		}
	}
	if !good {
		c.noteReplicaError(node)
	}
	if c.health.Record(node, good, c.now()) {
		c.noteDemotion(node)
	}
	if !good {
		return nil, false
	}
	return triples, true
}

// hedgeDelay resolves the current hedge delay.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.hedgeAfter > 0 {
		return c.hedgeAfter
	}
	if d := c.lat.percentile(hedgePercentile); d > 0 {
		return max(d, hedgeMin)
	}
	return defaultHedge
}

// ---- sparql source surface ----

// Fragments implements sparql.ExchangeSource: one fragment per shard.
func (c *Coordinator) Fragments() int { return len(c.groups) }

// Route implements sparql.ExchangeSource: a bound subject pins the
// pattern to its placement group; anything else needs the fan-out.
func (c *Coordinator) Route(s, p, o rdf.Term) (int, bool) {
	if s.IsZero() {
		return 0, false
	}
	return c.ring.Lookup(s.Key()), true
}

// FragmentMatch implements sparql.ExchangeSource. An unreadable group
// degrades to an empty contribution (counted as partial); use
// EvalPartialContext to observe the flag per evaluation.
func (c *Coordinator) FragmentMatch(ctx context.Context, frag int, s, p, o rdf.Term) ([]rdf.Triple, error) {
	ts, ok, err := c.fragmentRead(ctx, uint32(frag), s, p, o)
	if err != nil {
		return nil, err
	}
	if !ok {
		c.notePartial()
	}
	return ts, nil
}

// Match implements sparql.Source for direct (non-exchange) callers: a
// full fan-out with canonical merge; unreadable groups read as empty.
func (c *Coordinator) Match(s, p, o rdf.Term) []rdf.Triple {
	ts, _ := c.MatchErr(s, p, o)
	return ts
}

// MatchErr implements sparql.ErrorSource, surfacing group
// unavailability as an error for callers that care.
func (c *Coordinator) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	ctx := context.Background()
	var out []rdf.Triple
	var firstErr error
	if frag, routed := c.Route(s, p, o); routed {
		ts, ok, err := c.fragmentRead(ctx, uint32(frag), s, p, o)
		if err == nil && !ok {
			c.notePartial()
			err = fmt.Errorf("cluster: replica group %d unreadable", frag)
		}
		return ts, err
	}
	for frag := range c.groups {
		ts, ok, err := c.fragmentRead(ctx, uint32(frag), s, p, o)
		if err != nil {
			return nil, err
		}
		if !ok {
			c.notePartial()
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: replica group %d unreadable", frag)
			}
			continue
		}
		out = append(out, ts...)
	}
	sortCanonical(out)
	return out, firstErr
}

// partialSession wraps the coordinator for one evaluation, recording
// whether any fragment degraded to a partial (empty) answer.
type partialSession struct {
	*Coordinator
	partial atomic.Bool
}

func (s *partialSession) FragmentMatch(ctx context.Context, frag int, a, b, o rdf.Term) ([]rdf.Triple, error) {
	ts, ok, err := s.fragmentRead(ctx, uint32(frag), a, b, o)
	if err != nil {
		return nil, err
	}
	if !ok {
		s.notePartial()
		s.partial.Store(true)
	}
	return ts, nil
}

// EvalPartialContext evaluates a query against the cluster and reports
// whether the answer is partial (some replica group was entirely
// unreadable). The endpoint surfaces the flag as X-Applab-Partial.
func (c *Coordinator) EvalPartialContext(ctx context.Context, query string) (*sparql.Results, bool, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, false, err
	}
	sess := &partialSession{Coordinator: c}
	res, err := q.EvalContext(ctx, sess)
	return res, sess.partial.Load(), err
}

// ---- catch-up ----

// Repair reconciles every replica with the committed shard logs: a
// laggard inside the log tail replays the missing records; one behind
// the truncation point is re-bootstrapped with a snapshot from a
// caught-up peer, then replays whatever tail remains. Run it after
// healing a partition or restarting a node (cmd/strabon runs it on a
// timer). Unreachable replicas are skipped, not errors.
func (c *Coordinator) Repair(ctx context.Context) {
	for shard := range c.groups {
		c.repairShard(ctx, uint32(shard))
	}
}

func (c *Coordinator) repairShard(ctx context.Context, shard uint32) {
	target := c.logs[shard].last()
	for _, node := range c.groups[shard] {
		c.noteRPC("seq")
		resp, err := c.tr.Call(ctx, node, Message{Type: MsgSeqReq, Shard: shard})
		if err != nil || resp.Type != MsgSeqResp {
			continue
		}
		nodeSeq := resp.Seq
		if nodeSeq >= target {
			if c.health.Record(node, true, c.now()) {
				c.noteDemotion(node)
			}
			continue
		}
		imgs, ok := c.logs[shard].tail(nodeSeq)
		if !ok {
			snapSeq, snapped := c.snapshotInto(ctx, shard, node, target)
			if !snapped {
				continue
			}
			nodeSeq = snapSeq
			if imgs, ok = c.logs[shard].tail(nodeSeq); !ok {
				continue
			}
		}
		replayed := 0
		for i, img := range imgs {
			c.noteRPC("apply")
			resp, err := c.tr.Call(ctx, node, Message{Type: MsgApplyReq, Shard: shard, Seq: nodeSeq + 1 + uint64(i), Records: img})
			if err != nil || resp.Type != MsgApplyResp || !resp.OK {
				break
			}
			replayed++
		}
		c.noteCatchupRecords(replayed)
		if replayed == len(imgs) {
			c.health.Record(node, true, c.now())
		}
	}
}

// snapshotInto bootstraps a laggard from the first caught-up peer's
// snapshot, returning the installed sequence.
func (c *Coordinator) snapshotInto(ctx context.Context, shard uint32, laggard string, target uint64) (uint64, bool) {
	for _, donor := range c.groups[shard] {
		if donor == laggard {
			continue
		}
		c.noteRPC("snap")
		snap, err := c.tr.Call(ctx, donor, Message{Type: MsgSnapReq, Shard: shard})
		if err != nil || snap.Type != MsgSnapResp || snap.Seq < target {
			continue
		}
		c.noteRPC("install")
		resp, err := c.tr.Call(ctx, laggard, Message{Type: MsgInstallReq, Shard: shard, Seq: snap.Seq, Records: snap.Records})
		if err != nil || resp.Type != MsgInstallResp {
			continue
		}
		c.noteCatchupSnapshot()
		return snap.Seq, true
	}
	return 0, false
}

// ---- helpers ----

// latWindow is a fixed-size ring of recent read latencies the
// percentile hedge delay derives from.
type latWindow struct {
	mu  sync.Mutex
	buf [128]time.Duration
	n   int
	idx int
}

func (w *latWindow) add(d time.Duration) {
	w.mu.Lock()
	w.buf[w.idx] = d
	w.idx = (w.idx + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

func (w *latWindow) percentile(p float64) time.Duration {
	// Every fragment read asks: copy the window to the stack under the
	// lock and sort it there.
	w.mu.Lock()
	n := w.n
	buf := w.buf
	w.mu.Unlock()
	if n == 0 {
		return 0
	}
	samples := buf[:n]
	slices.Sort(samples)
	return samples[min(int(float64(n)*p), n-1)]
}

// sortCanonical orders triples the way the engine's canonical merge
// does: by term keys, then valid time.
func sortCanonical(ts []rdf.Triple) {
	slices.SortFunc(ts, func(a, b rdf.Triple) int { return a.Compare(&b) })
}
