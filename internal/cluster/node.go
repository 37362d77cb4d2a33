package cluster

import (
	"fmt"
	"sync"

	"applab/internal/rdf"
	"applab/internal/segment"
	"applab/internal/strabon"
)

// Node is one cluster member: a process holding per-shard stores and
// answering shard RPCs. A node is configuration-free — it creates a
// shard store lazily on the first message addressed to that shard, so
// topology (which groups a node belongs to) lives only in the
// coordinator.
type Node struct {
	// ID names the node in coordinator topology and health tracking.
	ID string

	mu     sync.Mutex
	shards map[uint32]*nodeShard
}

// nodeShard is one replica-group-local store plus its replication
// position. The mutex serializes applies with reads so a MatchResp's
// sequence stamp is exact for the triples it carries.
type nodeShard struct {
	mu      sync.Mutex
	store   *strabon.Store
	lastSeq uint64
}

// NewNode creates an empty node.
func NewNode(id string) *Node {
	return &Node{ID: id, shards: map[uint32]*nodeShard{}}
}

func (n *Node) shard(id uint32) *nodeShard {
	n.mu.Lock()
	defer n.mu.Unlock()
	sh := n.shards[id]
	if sh == nil {
		sh = &nodeShard{store: strabon.New()}
		n.shards[id] = sh
	}
	return sh
}

// Reset drops all shard state, modeling a process restart of a node
// with in-memory stores: data and replication positions are gone and
// the node must be bootstrapped again (Coordinator.Repair).
func (n *Node) Reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.shards = map[uint32]*nodeShard{}
}

// errMsg builds a MsgErr response.
func errMsg(format string, args ...any) Message {
	return Message{Type: MsgErr, Msg: fmt.Sprintf(format, args...)}
}

// Handle serves one request message. It never panics on hostile input:
// malformed record payloads come back as MsgErr. The answer owns its
// bytes.
func (n *Node) Handle(req Message) Message { return n.handle(req, &answerBufs{}) }

// answerBufs hold a node connection's match answer: the triples matched,
// where each pattern's end, and the records encoded from them.
type answerBufs struct {
	triples []rdf.Triple
	ends    []int
	records []byte
}

// reset readies the buffers for the next answer: the triples cleared,
// pinning no store terms, and a buffer grown past its cap dropped.
func (b *answerBufs) reset() {
	clear(b.triples)
	b.triples, b.ends = reuse(b.triples, maxConnPatterns), reuse(b.ends, maxConnPatterns)
	b.records = reuse(b.records, maxConnBuf)
}

// handle is Handle with a match answer built in bufs: the answer
// aliases bufs.records until the caller resets bufs.
func (n *Node) handle(req Message, bufs *answerBufs) Message {
	switch req.Type {
	case MsgPingReq:
		return Message{Type: MsgPingResp}
	case MsgMatchReq:
		return n.handleMatch(req, bufs)
	case MsgApplyReq:
		return n.handleApply(req)
	case MsgSnapReq:
		return n.handleSnap(req)
	case MsgInstallReq:
		return n.handleInstall(req)
	case MsgSeqReq:
		sh := n.shard(req.Shard)
		sh.mu.Lock()
		seq := sh.lastSeq
		sh.mu.Unlock()
		return Message{Type: MsgSeqResp, Seq: seq}
	default:
		return errMsg("cluster: node cannot handle message type %d", req.Type)
	}
}

// matchAnswerCap bounds the records of one match answer: what a frame
// body holds besides the answer's sequence and length. It is a variable
// only so tests can force split answers without 64 MiB of triples.
var matchAnswerCap = maxWireBody - 12

// handleMatch answers a pattern list with one record per pattern. The
// patterns are matched into b under one lock, so the sequence stamp is
// exact for every record, and encoded after it. When the next pattern's
// record would push the answer past matchAnswerCap, the answer stops
// before it and the coordinator asks again for the rest; the first
// pattern is always answered, so every request makes progress.
func (n *Node) handleMatch(req Message, b *answerBufs) Message {
	ts, ends := b.triples[:0], b.ends[:0]
	sh := n.shard(req.Shard)
	sh.mu.Lock()
	for _, p := range req.Patterns {
		s, p, o := p.Terms()
		ts = sh.store.AppendMatch(ts, s, p, o)
		ends = append(ends, len(ts))
	}
	seq := sh.lastSeq
	sh.mu.Unlock()
	b.triples, b.ends = ts, ends
	img := b.records[:0]
	lo := 0
	for i, hi := range ends {
		mark := len(img)
		var err error
		if img, err = segment.AppendLogRecord(img, segment.LogRecord{Triples: ts[lo:hi]}); err != nil {
			return errMsg("cluster: encoding match result: %v", err)
		}
		if i > 0 && len(img) > matchAnswerCap {
			img = img[:mark]
			break
		}
		lo = hi
	}
	b.records = img
	return Message{Type: MsgMatchResp, Seq: seq, Records: img}
}

// handleApply applies one replicated record at the given sequence.
// Apply is idempotent — a sequence at or below the shard's position is
// acknowledged without reapplying (the coordinator retries after
// ambiguous failures) — and strictly ordered: a gap is refused with
// OK=false and the shard's position, which tells the coordinator to
// run catch-up first.
func (n *Node) handleApply(req Message) Message {
	recs, err := segment.DecodeLogRecords(req.Records)
	if err != nil {
		return errMsg("cluster: apply payload: %v", err)
	}
	sh := n.shard(req.Shard)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case req.Seq <= sh.lastSeq:
		return Message{Type: MsgApplyResp, Seq: sh.lastSeq, OK: true}
	case req.Seq != sh.lastSeq+1:
		return Message{Type: MsgApplyResp, Seq: sh.lastSeq, OK: false}
	}
	applyRecords(sh.store, recs)
	sh.lastSeq = req.Seq
	return Message{Type: MsgApplyResp, Seq: sh.lastSeq, OK: true}
}

// handleSnap serializes the shard's full contents as one AWAL1 add
// record stamped with the shard's replication position.
func (n *Node) handleSnap(req Message) Message {
	sh := n.shard(req.Shard)
	sh.mu.Lock()
	ts := sh.store.Match(rdf.Term{}, rdf.Term{}, rdf.Term{})
	seq := sh.lastSeq
	sh.mu.Unlock()
	img, err := segment.EncodeLogRecord(segment.LogRecord{Triples: ts})
	if err != nil {
		return errMsg("cluster: encoding snapshot: %v", err)
	}
	return Message{Type: MsgSnapResp, Seq: seq, Records: img}
}

// handleInstall replaces the shard's contents with a snapshot, setting
// its replication position to the snapshot's sequence.
func (n *Node) handleInstall(req Message) Message {
	recs, err := segment.DecodeLogRecords(req.Records)
	if err != nil {
		return errMsg("cluster: install payload: %v", err)
	}
	store := strabon.New()
	applyRecords(store, recs)
	sh := n.shard(req.Shard)
	sh.mu.Lock()
	sh.store = store
	sh.lastSeq = req.Seq
	sh.mu.Unlock()
	return Message{Type: MsgInstallResp}
}

func applyRecords(store *strabon.Store, recs []segment.LogRecord) {
	for _, rec := range recs {
		if rec.Delete {
			for _, t := range rec.Triples {
				store.Delete(t)
			}
			continue
		}
		store.AddAll(rec.Triples)
	}
}
