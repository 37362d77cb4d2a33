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
// Recovery contract (see DESIGN.md §12):
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
// chunking oversized batches (see chunkPayloads), so every frame it
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

// decodeWALPayload decodes one record payload. The walMore flag is
// stripped off the op byte into walOp.more.
func decodeWALPayload(payload []byte) (walOp, error) {
	c := cursor{data: payload}
	op, err := c.u8()
	if err != nil {
		return walOp{}, err
	}
	more := op&walMore != 0
	op &^= walMore
	if op != opAdd && op != opDelete {
		return walOp{}, fmt.Errorf("segment: WAL op %d invalid", op)
	}
	count, err := c.u32()
	if err != nil {
		return walOp{}, err
	}
	if count > maxTriples {
		return walOp{}, errCorrupt
	}
	// Preallocation capped: the declared count only sizes the slice up
	// to a bound, real decodes grow it.
	hint := count
	if hint > 1<<14 {
		hint = 1 << 14
	}
	triples := make([]rdf.Triple, 0, hint)
	for i := uint32(0); i < count; i++ {
		t, err := c.triple()
		if err != nil {
			return walOp{}, err
		}
		triples = append(triples, t)
	}
	if c.remaining() != 0 {
		return walOp{}, errCorrupt
	}
	return walOp{op: op, more: more, triples: triples}, nil
}

// chunkPayloads encodes a batch into one or more record payloads, each
// within walChunkPayload (and therefore within the maxWALRecord bound
// replay enforces). A single triple too large to frame at all is an
// error: append must never emit a record replay would reject.
func chunkPayloads(op byte, triples []rdf.Triple) ([][]byte, error) {
	newChunk := func() []byte {
		p := make([]byte, 0, 256)
		p = append(p, op)
		return appendU32(p, 0) // count, patched when the chunk seals
	}
	seal := func(p []byte, count uint32) []byte {
		putU32(p[1:5], count)
		return p
	}
	var payloads [][]byte
	cur := newChunk()
	count := uint32(0)
	for _, t := range triples {
		prev := len(cur)
		cur = appendTriple(cur, t)
		if len(cur) > walChunkPayload {
			if count == 0 {
				return nil, fmt.Errorf("segment: triple of %d bytes exceeds the %d-byte WAL record cap",
					len(cur)-5, walChunkPayload)
			}
			payloads = append(payloads, seal(cur[:prev], count))
			cur = newChunk()
			count = 0
			cur = appendTriple(cur, t)
			if len(cur) > walChunkPayload {
				return nil, fmt.Errorf("segment: triple of %d bytes exceeds the %d-byte WAL record cap",
					len(cur)-5, walChunkPayload)
			}
		}
		count++
	}
	return append(payloads, seal(cur, count)), nil
}

// encodeFrames turns a batch into its on-disk frame sequence: every
// chunk but the last carries the walMore flag, so the group is only
// committed once its final frame is durable.
func encodeFrames(op byte, triples []rdf.Triple) ([][]byte, error) {
	payloads, err := chunkPayloads(op, triples)
	if err != nil {
		return nil, err
	}
	frames := make([][]byte, len(payloads))
	for i, payload := range payloads {
		if i < len(payloads)-1 {
			payload[0] |= walMore
		}
		frame := make([]byte, 0, len(payload)+8)
		frame = appendU32(frame, uint32(len(payload)))
		frame = appendU32(frame, crc32.ChecksumIEEE(payload))
		frames[i] = append(frame, payload...)
	}
	return frames, nil
}

// append frames, writes, and fsyncs one batch (one record, or a chunk
// group for batches over the record cap — one fsync either way). On
// any failure it repairs the tail back to the last committed boundary
// and returns the error; none of the batch is committed.
func (w *wal) append(op byte, triples []rdf.Triple) error {
	if w.broken {
		return fmt.Errorf("segment: WAL %s is broken after an unrepaired write failure", w.path)
	}
	frames, err := encodeFrames(op, triples)
	if err != nil {
		return err
	}
	var total int64
	for _, frame := range frames {
		if _, err := w.sink.Write(frame); err != nil {
			w.repair()
			return fmt.Errorf("segment: WAL append: %w", err)
		}
		total += int64(len(frame))
	}
	if err := w.sink.Sync(); err != nil {
		// The bytes may or may not be durable; either way the batch is
		// not committed, so cut back to the committed boundary.
		w.repair()
		return fmt.Errorf("segment: WAL fsync: %w", err)
	}
	w.size += total
	if w.records != nil {
		*w.records += uint64(len(frames))
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
