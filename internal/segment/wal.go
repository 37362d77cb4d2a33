package segment

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"applab/internal/rdf"
)

// Write-ahead log ("AWAL1"): the durability path of incremental ingest.
// Every mutation is appended and fsynced before it touches the
// memtable, so a crash loses at most the batch whose append failed.
//
//	magic "AWAL1"
//	record: payloadLen u32 | crc32(payload) u32 | payload
//	payload: op u8 (1=add, 2=delete; bit 0x80 set = the batch
//	         continues in the next record) | count u32 | count triples
//
// A batch whose payload would exceed maxWALRecord is split into a
// chunk group: every record but the last carries the walMore flag, and
// the group commits as a unit — append never writes a frame replay
// would have to reject as corrupt.
//
// Recovery contract (see DESIGN.md §10):
//
//   - A record is committed iff its frame is fully present with a
//     matching checksum AND its chunk group is complete (a group is
//     closed by its first record without the walMore flag). Replay
//     applies records in order and stops at the first torn or corrupt
//     frame or unfinished group; everything after that point is
//     discarded and the file is truncated back to the last committed
//     boundary ("repair") — so a crash mid-group loses the whole
//     batch, never a prefix of it.
//   - Replay is idempotent: adds dedup in the memtable and deletes are
//     tombstone writes, so replaying a WAL twice (the crash window
//     between segment publication and WAL reset) converges to the same
//     triple set.
//   - A failed append (short write, write error, or fsync error) leaves
//     the tail in an unknown state; the writer truncates back to the
//     last committed boundary before reporting the error. If even the
//     truncate fails the WAL is marked broken and refuses further
//     appends — readers are unaffected.
const walMagic = "AWAL1"

const (
	opAdd    = 1
	opDelete = 2
	// walMore marks a record whose batch continues in the next record;
	// replay only applies a chunk group once its final (unflagged)
	// record is present.
	walMore = 0x80
)

// maxWALRecord caps a record's declared payload size: larger frames are
// treated as corruption. The writer enforces the same bound by
// chunking oversized batches (see appendFrames), so every frame it
// commits is one replay accepts.
const maxWALRecord = 1 << 26

// walChunkPayload is the writer-side payload cap per chunk. It equals
// maxWALRecord in production; it is a variable only so tests can force
// multi-chunk framing without building 64MiB batches.
var walChunkPayload = maxWALRecord

// Sink is the surface the WAL writes through: *os.File in production,
// a fault injector (faults.File) in crash tests.
type Sink interface {
	io.Writer
	Sync() error
}

// walOp is one replayed operation.
type walOp struct {
	op byte
	// more is set while decoding a chunk group: the batch continues in
	// the next record. Replay strips it; ops handed to the engine never
	// carry it.
	more    bool
	triples []rdf.Triple
}

// wal is the append side of the log. It is not self-locking: the
// engine serializes access under its write lock.
type wal struct {
	path string
	f    *os.File
	sink Sink
	// size is the offset of the last committed record boundary.
	size int64
	// broken is set when a failed append could not be repaired.
	broken bool
	// counters owned by the engine, bumped by the wal.
	records *uint64
	fsyncs  *uint64
}

// openWAL opens (creating if absent) the log at path, replays its
// committed records, repairs any torn tail, and leaves the file
// positioned for appends. wrap, when non-nil, wraps the file before it
// is used as the append sink (fault injection). It returns the ops to
// apply and the number of bytes discarded by tail repair.
func openWAL(path string, wrap func(Sink) Sink) (*wal, []walOp, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, nil, 0, err
	}
	w := &wal{path: path, f: f}
	w.sink = Sink(f)
	if wrap != nil {
		w.sink = wrap(f)
	}
	if len(data) == 0 {
		// Fresh log: write the header through the real file (header
		// creation is not part of the injected fault surface).
		if _, err := f.WriteString(walMagic); err != nil {
			_ = f.Close()
			return nil, nil, 0, err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, 0, err
		}
		w.size = int64(len(walMagic))
		return w, nil, 0, nil
	}
	ops, good, err := replayWAL(data)
	if err != nil {
		_ = f.Close()
		return nil, nil, 0, err
	}
	discarded := int64(len(data)) - good
	w.size = good
	if discarded > 0 {
		// Torn tail: cut back to the last committed boundary so new
		// appends never land after garbage.
		if err := f.Truncate(good); err != nil {
			_ = f.Close()
			return nil, nil, 0, err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, 0, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, 0, err
	}
	return w, ops, discarded, nil
}

// replayWAL decodes the committed prefix of a WAL image, returning the
// operations and the byte offset of the last committed boundary. A bad
// header is an error (the file is not a WAL); a bad or torn record
// merely ends the committed prefix. Chunk groups commit atomically:
// the boundary only advances past a group's final (unflagged) record,
// so a crash mid-group discards the whole batch.
func replayWAL(data []byte) ([]walOp, int64, error) {
	if len(data) < len(walMagic) {
		return nil, 0, fmt.Errorf("segment: short WAL header")
	}
	if string(data[:len(walMagic)]) != walMagic {
		return nil, 0, fmt.Errorf("segment: bad WAL magic %q", data[:len(walMagic)])
	}
	var ops []walOp
	var pending []walOp // chunks of a group whose final record is unseen
	committed := int64(len(walMagic))
	pos := committed
	for {
		rest := data[pos:]
		if len(rest) < 8 {
			return ops, committed, nil // clean end or torn frame header
		}
		c := cursor{data: rest}
		n, _ := c.u32()
		sum, _ := c.u32()
		if n == 0 || n > maxWALRecord || int(n) > len(rest)-8 {
			return ops, committed, nil // torn or corrupt length
		}
		payload := rest[8 : 8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return ops, committed, nil // torn or corrupt payload
		}
		op, err := decodeWALPayload(payload)
		if err != nil {
			return ops, committed, nil // framed but undecodable: treat as torn
		}
		pos += 8 + int64(n)
		if op.more {
			pending = append(pending, op)
			continue
		}
		for i := range pending {
			pending[i].more = false
		}
		ops = append(ops, pending...)
		ops = append(ops, op)
		pending = nil
		committed = pos
	}
}

// decodeWALPayload decodes one record payload into triples. The walMore
// flag is stripped off the op byte into walOp.more.
func decodeWALPayload(payload []byte) (walOp, error) {
	var s sink
	op, more, err := decodePayload(payload, &s)
	if err != nil {
		return walOp{}, err
	}
	return walOp{op: op, more: more, triples: s.cur}, nil
}

// maxCountHint caps how far a payload's declared triple count sizes
// what a sink preallocates: real decodes grow past it.
const maxCountHint = 1 << 14

// decodePayload decodes one record payload into s: the op byte
// (walMore stripped off into more), the count, and that many triples,
// which must use up the payload.
func decodePayload(payload []byte, s *sink) (op byte, more bool, err error) {
	c := cursor{data: payload}
	if op, err = c.u8(); err != nil {
		return 0, false, err
	}
	more = op&walMore != 0
	op &^= walMore
	if op != opAdd && op != opDelete {
		return 0, false, fmt.Errorf("segment: WAL op %d invalid", op)
	}
	count, err := c.u32()
	if err != nil {
		return 0, false, err
	}
	if count > maxTriples {
		return 0, false, errCorrupt
	}
	end, err := s.payload(op, count, c)
	if err == nil && end != len(payload) {
		err = errCorrupt
	}
	return op, more, err
}

// appendFrames appends a batch's frame sequence to dst and reports how
// many frames it wrote. Each chunk's frame header is reserved, its
// payload encoded in place, and the chunk sealed by patching the count,
// the walMore flag (every chunk but the last carries it, so the group is
// only committed once its final frame is durable), the length and the
// CRC. A chunk holds as many triples as fit within walChunkPayload (and
// therefore within the maxWALRecord bound replay enforces); a single
// triple too large to frame at all is an error, because append must
// never emit a record replay would reject. On error dst comes back at
// its original length.
func appendFrames(dst []byte, op byte, triples []rdf.Triple) ([]byte, int, error) {
	start := len(dst)
	// open reserves a frame header plus the op byte and count of a new
	// chunk, returning the offset of the frame.
	open := func() int {
		at := len(dst)
		dst = appendU32(dst, 0) // payload length, patched on seal
		dst = appendU32(dst, 0) // payload CRC, patched on seal
		dst = append(dst, op)
		dst = appendU32(dst, 0) // count, patched on seal
		return at
	}
	seal := func(at, end int, count uint32, more bool) {
		payload := dst[at+8 : end]
		if more {
			payload[0] |= walMore
		}
		putU32(payload[1:5], count)
		putU32(dst[at:], uint32(len(payload)))
		putU32(dst[at+4:], crc32.ChecksumIEEE(payload))
	}
	tooBig := func(at int) error {
		return fmt.Errorf("segment: triple of %d bytes exceeds the %d-byte WAL record cap",
			len(dst)-at-8-5, walChunkPayload)
	}
	frames := 1
	at := open()
	count := uint32(0)
	for _, t := range triples {
		prev := len(dst)
		dst = appendTriple(dst, t)
		if len(dst)-at-8 <= walChunkPayload {
			count++
			continue
		}
		if count == 0 {
			return dst[:start], 0, tooBig(at)
		}
		// The triple overflows this chunk: seal the chunk without it and
		// encode it again as the first triple of the next one.
		dst = dst[:prev]
		seal(at, prev, count, true)
		frames++
		at = open()
		dst = appendTriple(dst, t)
		if len(dst)-at-8 > walChunkPayload {
			return dst[:start], 0, tooBig(at)
		}
		count = 1
	}
	seal(at, len(dst), count, false)
	return dst, frames, nil
}

// append frames, writes, and fsyncs one batch (one record, or a chunk
// group for batches over the record cap — one write and one fsync
// either way). On any failure it repairs the tail back to the last
// committed boundary and returns the error; none of the batch is
// committed.
func (w *wal) append(op byte, triples []rdf.Triple) error {
	if w.broken {
		return fmt.Errorf("segment: WAL %s is broken after an unrepaired write failure", w.path)
	}
	group, frames, err := appendFrames(nil, op, triples)
	if err != nil {
		return err
	}
	if _, err := w.sink.Write(group); err != nil {
		w.repair()
		return fmt.Errorf("segment: WAL append: %w", err)
	}
	if err := w.sink.Sync(); err != nil {
		// The bytes may or may not be durable; either way the batch is
		// not committed, so cut back to the committed boundary.
		w.repair()
		return fmt.Errorf("segment: WAL fsync: %w", err)
	}
	w.size += int64(len(group))
	if w.records != nil {
		*w.records += uint64(frames)
	}
	if w.fsyncs != nil {
		*w.fsyncs++
	}
	return nil
}

// repair truncates the file back to the last committed boundary after
// a failed append. Truncation goes through the sink when it supports
// it (fault injectors forward to the real file) so the repaired state
// is what a reopened engine will see.
func (w *wal) repair() {
	type truncater interface{ Truncate(int64) error }
	var err error
	if t, ok := w.sink.(truncater); ok {
		err = t.Truncate(w.size)
	} else {
		err = w.f.Truncate(w.size)
	}
	if err == nil {
		_, err = w.f.Seek(w.size, io.SeekStart)
	}
	if err != nil {
		w.broken = true
	}
}

// reset empties the log back to its header after a successful memtable
// flush: the flushed records are now durable in a published segment.
func (w *wal) reset() error {
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return err
	}
	if _, err := w.f.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size = int64(len(walMagic))
	if w.fsyncs != nil {
		*w.fsyncs++
	}
	return nil
}

// bytes reports the committed log size (header included).
func (w *wal) bytes() int64 { return w.size }

func (w *wal) close() error { return w.f.Close() }
