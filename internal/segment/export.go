package segment

import (
	"fmt"
	"hash/crc32"

	"applab/internal/rdf"
)

// Wire export of the AWAL1 record framing, for the cluster replication
// path (internal/cluster): snapshot transfer and log-tail catch-up ship
// triple batches as exactly the frames the WAL commits — length, CRC,
// chunk groups and the capped-preallocation decode rules included — so
// one framing, fuzzed once, covers disk recovery and the wire.

// LogRecord is one replication batch in wire form: an add or delete of
// a triple set. It corresponds to one committed WAL chunk group.
type LogRecord struct {
	Delete  bool
	Triples []rdf.Triple
}

// EncodeLogRecord frames one batch with the AWAL1 record framing
// (splitting into a chunk group when it exceeds the record cap) and
// returns the concatenated frames. It fails only when a single triple
// is too large to frame at all — the same refusal the WAL applies.
func EncodeLogRecord(rec LogRecord) ([]byte, error) {
	img, err := AppendLogRecord(nil, rec)
	if err != nil {
		return nil, err
	}
	return img, nil
}

// AppendLogRecord appends one batch's frames to dst, encoding them in
// place; on error dst comes back unchanged.
func AppendLogRecord(dst []byte, rec LogRecord) ([]byte, error) {
	op := byte(opAdd)
	if rec.Delete {
		op = opDelete
	}
	dst, _, err := appendFrames(dst, op, rec.Triples)
	return dst, err
}

// AppendLogRecords encodes a record sequence back-to-back; the result
// decodes with DecodeLogRecords.
func AppendLogRecords(dst []byte, recs []LogRecord) ([]byte, error) {
	for _, rec := range recs {
		var err error
		if dst, err = AppendLogRecord(dst, rec); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeLogRecords decodes a concatenation of AWAL1 frames into record
// batches. Unlike WAL replay — which treats a torn tail as the end of
// the committed prefix — the wire decode is strict: a short, corrupt or
// unfinished frame sequence is an error, because a transport must
// deliver frames whole or not at all. Preallocation stays capped the
// way decodeWALPayload caps it, so a hostile header cannot force a
// large allocation. A record's triples are decoded into one slice, its
// chunks appended in place; an empty batch decodes to nil triples.
func DecodeLogRecords(data []byte) ([]LogRecord, error) {
	var s sink
	if err := decodeFrames(data, &s); err != nil {
		return nil, err
	}
	return s.recs, nil
}

// DecodeLogRefs decodes AWAL1 add records like DecodeLogRecords, into
// one ref slice per record: the same S/P/O terms in the same order,
// valid time checked and dropped; a delete record is an error. A term
// equal to the previous triple's in its position is shared, and term
// blocks are sized from the triples left in the payload (capped) plus 2.
func DecodeLogRefs(data []byte) ([][]rdf.Ref, error) {
	s := sink{byRef: true}
	if err := decodeFrames(data, &s); err != nil {
		return nil, err
	}
	return s.out, nil
}

// decodeFrames is the strict wire frame loop: every frame is checked
// for length and CRC and its payload decoded into s, and a record is
// closed at each chunk group's final frame. A chunk group that switches
// op, or misses its final frame, is an error.
func decodeFrames(data []byte, s *sink) error {
	open := false // a chunk group awaits its final frame
	var groupOp byte
	for pos := 0; pos < len(data); {
		rest := data[pos:]
		if len(rest) < 8 {
			return fmt.Errorf("segment: torn wire frame header (%d trailing bytes)", len(rest))
		}
		c := cursor{data: rest}
		n, _ := c.u32()
		sum, _ := c.u32()
		if n == 0 || n > maxWALRecord || int(n) > len(rest)-8 {
			return fmt.Errorf("segment: wire frame length %d invalid", n)
		}
		payload := rest[8 : 8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return errCorrupt
		}
		op, more, err := decodePayload(payload, s)
		if err != nil {
			return err
		}
		if open && op != groupOp {
			return fmt.Errorf("segment: wire chunk group switched op mid-batch")
		}
		pos += 8 + int(n)
		if open, groupOp = more, op; !more {
			s.record(op == opDelete)
		}
	}
	if open {
		return fmt.Errorf("segment: wire chunk group missing its final frame")
	}
	return nil
}

// sink collects what decodePayload and decodeFrames decode: triples, or
// with byRef set, refs over term blocks that never regrow. It is one
// concrete type, passed by pointer, so it never escapes to the heap.
type sink struct {
	byRef bool
	prev  rdf.Triple   // the triple decoded last
	recs  []LogRecord  // triple records
	cur   []rdf.Triple // the open triple record
	out   [][]rdf.Ref  // ref records
	refs  []rdf.Ref    // refs[start:] are the open ref record
	start int
	last  rdf.Ref // prev by reference
	block []rdf.Term
	left  uint32 // triples left in the payload, the one decoding included
}

// payload decodes a payload's count triples off c, which is past the op
// and the count, and returns the offset after them.
func (s *sink) payload(op byte, count uint32, c cursor) (int, error) {
	switch {
	case s.byRef && op == opDelete:
		return 0, fmt.Errorf("segment: delete record where only adds may appear")
	case s.byRef && s.refs == nil:
		s.refs = make([]rdf.Ref, 0, min(count, maxCountHint))
	case !s.byRef && s.cur == nil && count > 0:
		s.cur = make([]rdf.Triple, 0, min(count, maxCountHint))
	}
	for s.left = count; s.left > 0; s.left-- {
		t, err := c.triple(&s.prev)
		if err != nil {
			return 0, err
		}
		if s.prev = t; !s.byRef {
			s.cur = append(s.cur, t)
			continue
		}
		s.last = rdf.Ref{S: s.term(t.S, s.last.S), P: s.term(t.P, s.last.P), O: s.term(t.O, s.last.O)}
		s.refs = append(s.refs, s.last)
	}
	return c.off, nil
}

// term is last when t equals it, else t's new block entry.
func (s *sink) term(t rdf.Term, last *rdf.Term) *rdf.Term {
	if last != nil && *last == t {
		return last
	}
	if len(s.block) == cap(s.block) {
		s.block = make([]rdf.Term, 0, int(min(s.left, maxCountHint))+2)
	}
	s.block = append(s.block, t)
	return &s.block[len(s.block)-1]
}

// record closes a record: its chunk group's final frame is decoded.
func (s *sink) record(del bool) {
	if !s.byRef {
		s.recs, s.cur = append(s.recs, LogRecord{Delete: del, Triples: s.cur}), nil
		return
	}
	var r []rdf.Ref
	if n := len(s.refs); n > s.start {
		r = s.refs[s.start:n:n]
	}
	s.out, s.start = append(s.out, r), len(s.refs)
}
