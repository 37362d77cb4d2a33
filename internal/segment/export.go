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
// large allocation. A batch framed as one record keeps the slice its
// payload decoded into; an empty batch decodes to nil triples.
func DecodeLogRecords(data []byte) ([]LogRecord, error) {
	var recs []LogRecord
	var pending []rdf.Triple
	var pendingOp byte
	pos := 0
	for pos < len(data) {
		rest := data[pos:]
		if len(rest) < 8 {
			return nil, fmt.Errorf("segment: torn wire frame header (%d trailing bytes)", len(rest))
		}
		c := cursor{data: rest}
		n, _ := c.u32()
		sum, _ := c.u32()
		if n == 0 || n > maxWALRecord || int(n) > len(rest)-8 {
			return nil, fmt.Errorf("segment: wire frame length %d invalid", n)
		}
		payload := rest[8 : 8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, errCorrupt
		}
		op, err := decodeWALPayload(payload)
		if err != nil {
			return nil, err
		}
		pos += 8 + int(n)
		if len(pending) > 0 && op.op != pendingOp {
			return nil, fmt.Errorf("segment: wire chunk group switched op mid-batch")
		}
		pendingOp = op.op
		if len(pending) == 0 && !op.more {
			// A whole batch in one frame: hand its slice over as is.
			if len(op.triples) == 0 {
				op.triples = nil
			}
			recs = append(recs, LogRecord{Delete: op.op == opDelete, Triples: op.triples})
			continue
		}
		pending = append(pending, op.triples...)
		if op.more {
			continue
		}
		recs = append(recs, LogRecord{Delete: pendingOp == opDelete, Triples: pending})
		pending = nil
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("segment: wire chunk group missing its final frame")
	}
	return recs, nil
}
