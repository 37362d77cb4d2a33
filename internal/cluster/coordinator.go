package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"applab/internal/admission"
	"applab/internal/rdf"
	"applab/internal/scatter"
	"applab/internal/segment"
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
	// hedgePercentile of the recent read-latency window, scaled to the
	// read's pattern count and floored at hedgeMin (defaultHedge while
	// the window is empty).
	HedgeAfter time.Duration
	// DemoteAfter / RetryCooldown tune the replica health tracker
	// (scatter.Health; zero picks its defaults).
	DemoteAfter   int
	RetryCooldown time.Duration
}

// Coordinator routes writes and BGP fragment reads across the replica
// groups. It implements sparql.Source, sparql.ErrorSource (keeping the
// evaluator's outer loop sequential — the parallelism lives in the
// exchange fan-out), sparql.ExchangeSource, so the compiled planner
// pushes per-shard pattern scans through it, and
// sparql.BatchExchangeSource, so every engine scan reads by reference
// and a nested-loop join step reads each replica group once for all the
// rows it routes there.
//
// Correctness invariant: a replica's answer is accepted only when its
// replication position covers everything the coordinator has committed
// for that shard, so reads are read-your-writes and — shards being
// disjoint, and with the exchange operator's canonical merge — identical
// to a single store holding the same acknowledged writes. Replicas that
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
	health *scatter.Health
	// fan reads replica groups: health-ordered failover, hedging, fan-out
	// charging. Its Now is always set; the write path shares it.
	fan scatter.Fanout

	hedgeAfter time.Duration

	wmu  []sync.Mutex
	logs []*shardLog
	lat  latWindow
}

// Adaptive hedging: the delay is the p95 of recent reads, scaled to the
// read's pattern count, never under 1 ms, and defaultHedge before any
// latency samples exist.
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
		health:     scatter.NewHealth(cfg.DemoteAfter, cfg.RetryCooldown),
		hedgeAfter: cfg.HedgeAfter,
		wmu:        make([]sync.Mutex, len(cfg.Groups)),
		logs:       make([]*shardLog, len(cfg.Groups)),
	}
	c.fan = scatter.Fanout{Health: c.health, Now: cfg.Now, After: cfg.After, HedgeAfter: c.hedgeDelay, Observe: c.observe}
	if c.fan.Now == nil {
		c.fan.Now = time.Now
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
	return c.ring.LookupTerm(t.S)
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
			if c.health.Record(node, ok, c.fan.Now()) {
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

// readGroup answers patterns from one shard's replica group, one answer
// per pattern in pattern order, with failover and hedging; decode turns
// an accepted answer's records into one answer per record. Every read
// is a batch: a single pattern is a batch of one. An answer the node
// cut short to fit its frame is completed by further reads of the
// remaining patterns. ok=false means the group was unreadable (every
// member down, stale, or refusing): that read is counted partial once
// and the patterns it left unanswered read as empty. A non-nil error is
// always an admission abort (cancellation/budget) and aborts the query.
func readGroup[A any](ctx context.Context, c *Coordinator, shard uint32, pats []rdf.Ref, decode func([]byte, []rdf.Ref) ([]A, error)) (answers []A, ok bool, err error) {
	for len(answers) < len(pats) {
		rest := pats[len(answers):]
		got, res, err := scatter.Read(ctx, &c.fan, matchLeg(c, shard, rest, decode))
		if err != nil {
			return nil, false, err
		}
		if !res.OK() {
			c.notePartial()
			return append(answers, make([]A, len(rest))...), false, nil
		}
		if answers == nil && len(got) == len(pats) {
			return got, true, nil
		}
		answers = append(answers, got...)
	}
	return answers, true, nil
}

// matchLeg is one read of patterns from a shard: its replica group,
// each answer accepted only when it covers everything committed to the
// shard when the read began, and decoded by its own call, in the frame,
// into memory only that call holds: a hedged read's loser never touches
// the winner's.
func matchLeg[A any](c *Coordinator, shard uint32, pats []rdf.Ref, decode func([]byte, []rdf.Ref) ([]A, error)) scatter.Leg[[]A] {
	want := c.logs[shard].last()
	return scatter.Leg[[]A]{
		Replicas: c.groups[shard],
		Size:     len(pats),
		Call: func(ctx context.Context, node string) (answers []A, err error) {
			read := func(msg Message) (err error) {
				if msg.Type != MsgMatchResp || msg.Seq < want {
					return errStaleRead
				}
				if answers, err = decode(msg.Records, pats); err == nil && (len(answers) == 0 || len(answers) > len(pats)) {
					err = errStaleRead
				}
				return err
			}
			_, err = c.tr.Call(ctx, node, Message{Type: MsgMatchReq, Shard: shard, Patterns: pats, Read: read})
			return answers, err
		},
	}
}

// errStaleRead rejects a replica answer that is not a match answer,
// lags the shard's committed log position, holds a delete record, or
// does not answer between one and all of the patterns asked.
var errStaleRead = errors.New("cluster: replica answer stale or malformed")

// decodeTriples decodes a match answer's records into one triple slice
// per record, each the slice its payload decoded into.
func decodeTriples(records []byte, _ []rdf.Ref) ([][]rdf.Triple, error) {
	recs, err := segment.DecodeLogRecords(records)
	answers := make([][]rdf.Triple, len(recs))
	for i, rec := range recs {
		if rec.Delete {
			return nil, errStaleRead
		}
		answers[i] = rec.Triples
	}
	return answers, err
}

// hedgeDelay resolves the hedge delay of a read of n patterns: fixed
// by Config.HedgeAfter, otherwise hedgePercentile of the recent reads
// with each smaller read's latency scaled up to n patterns (see
// latWindow.percentile), floored at hedgeMin.
func (c *Coordinator) hedgeDelay(n int) time.Duration {
	if c.hedgeAfter > 0 {
		return c.hedgeAfter
	}
	if d := c.lat.percentile(hedgePercentile, n); d > 0 {
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
	return c.ring.LookupTerm(s), true
}

// FragmentMatch implements sparql.ExchangeSource: a batch of one,
// answered as triples with their valid time, for callers that need it
// (the engine scans through FragmentMatchBatch). An unreadable group
// degrades to an empty contribution (counted as
// partial, and marked on the context's scatter.Tally, from which the
// evaluation sets Results.Partial).
func (c *Coordinator) FragmentMatch(ctx context.Context, frag int, s, p, o rdf.Term) ([]rdf.Triple, error) {
	answers, _, err := readGroup(ctx, c, uint32(frag), []rdf.Ref{rdf.PatternRef(s, p, o)}, decodeTriples)
	if err != nil {
		return nil, err
	}
	return answers[0], nil
}

// FragmentMatchBatch implements sparql.BatchExchangeSource: one read
// of the fragment's replica group carrying every pattern (more only
// when the answer outgrows a frame), its records decoded in the frame
// straight into refs (segment.DecodeLogRefs) over terms the answer or
// the pattern owns. An unreadable group degrades like FragmentMatch,
// counted once per read.
func (c *Coordinator) FragmentMatchBatch(ctx context.Context, frag int, pats []rdf.Ref) ([][]rdf.Ref, error) {
	answers, _, err := readGroup(ctx, c, uint32(frag), pats, segment.DecodeLogRefs)
	return answers, err
}

// Match implements sparql.Source for direct (non-exchange) callers: a
// full fan-out with canonical merge; unreadable groups read as empty.
func (c *Coordinator) Match(s, p, o rdf.Term) []rdf.Triple {
	ts, _ := c.MatchErr(s, p, o)
	return ts
}

// MatchErr implements sparql.ErrorSource, surfacing group
// unavailability as an error for callers that care. An unrouted pattern
// reads every group in parallel, so it takes as long as the slowest
// group, not their sum.
func (c *Coordinator) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	ctx := context.Background()
	pats := []rdf.Ref{rdf.PatternRef(s, p, o)}
	if frag, routed := c.Route(s, p, o); routed {
		answers, ok, err := readGroup(ctx, c, uint32(frag), pats, decodeTriples)
		if err != nil {
			return nil, err
		}
		if !ok {
			err = fmt.Errorf("cluster: replica group %d unreadable", frag)
		}
		return answers[0], err
	}
	targets := make([]scatter.Target, len(c.groups))
	for frag := range targets {
		leg := matchLeg(c, uint32(frag), pats, decodeTriples)
		targets[frag] = scatter.Target{
			Replicas: leg.Replicas,
			Size:     leg.Size,
			Call: func(ctx context.Context, node string) ([]rdf.Triple, error) {
				answers, err := leg.Call(ctx, node)
				if err != nil {
					return nil, err
				}
				return answers[0], nil
			},
		}
	}
	out, results, err := c.fan.Gather(ctx, targets, 0)
	if err != nil {
		return nil, err
	}
	for frag, r := range results {
		if !r.OK() {
			c.notePartial()
			if err == nil {
				err = fmt.Errorf("cluster: replica group %d unreadable", frag)
			}
		}
	}
	return out, err
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
			if c.health.Record(node, true, c.fan.Now()) {
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
			c.health.Record(node, true, c.fan.Now())
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
		var snap Message
		keep := func(resp Message) error {
			snap, snap.Records = resp, slices.Clone(resp.Records)
			return nil
		}
		_, err := c.tr.Call(ctx, donor, Message{Type: MsgSnapReq, Shard: shard, Read: keep})
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

// latWindow is a fixed-size ring of recent read latencies, each with
// the pattern count of its read, that the percentile hedge delay
// derives from.
type latWindow struct {
	mu  sync.Mutex
	buf [128]latSample
	n   int
	idx int
}

type latSample struct {
	d        time.Duration
	patterns int
}

func (w *latWindow) add(d time.Duration, patterns int) {
	w.mu.Lock()
	w.buf[w.idx] = latSample{d, max(patterns, 1)}
	w.idx = (w.idx + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// percentile is the p-th percentile of the window as a read of n
// patterns would see it: a sample from a read of k < n patterns counts
// as its latency times n/k, a sample from a read at least as large as
// is. A batch is thus never held to the latency of single-pattern
// reads, and a read of one pattern sees the raw window.
func (w *latWindow) percentile(p float64, n int) time.Duration {
	// Every read asks: copy the window to the stack under the lock and
	// scale and sort it there.
	w.mu.Lock()
	k := w.n
	buf := w.buf
	w.mu.Unlock()
	if k == 0 {
		return 0
	}
	var scaled [len(buf)]time.Duration
	for i, s := range buf[:k] {
		scaled[i] = s.d
		if s.patterns < n {
			scaled[i] = s.d * time.Duration(n) / time.Duration(s.patterns)
		}
	}
	samples := scaled[:k]
	slices.Sort(samples)
	return samples[min(int(float64(k)*p), k-1)]
}
