package segment

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"applab/internal/rdf"
)

// The byte oracle for the WAL writer: the original two-pass encoder,
// which builds every chunk's payload in a buffer of its own, then frames
// each one in a copy. appendFrames must produce exactly these bytes and
// these errors.

// chunkPayloads encodes a batch into one or more record payloads, each
// within walChunkPayload. A single triple too large to frame at all is
// an error.
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

// encodeFrames turns a batch into its frame sequence: every chunk but
// the last carries the walMore flag.
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

// TestAppendFramesMatchesReference: for 0–60-triple batches of both ops
// under several chunk caps, appendFrames writes exactly the reference
// frames after whatever dst already held, reports their count, and
// refuses an oversized triple with the reference's error, leaving dst
// as it found it.
func TestAppendFramesMatchesReference(t *testing.T) {
	huge := rdf.NewTriple(rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/p"),
		rdf.NewLiteral(strings.Repeat("x", 300)))
	// Mixed shapes: repeated subjects, typed and language literals, and
	// valid times, so chunk boundaries fall on triples of every size.
	batch := make([]rdf.Triple, 0, 60)
	for i := 0; i < 60; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i/3))
		var tr rdf.Triple
		switch i % 4 {
		case 0:
			tr = rdf.NewTriple(s, rdf.NewIRI("http://ex/n"), rdf.NewInteger(int64(i)))
		case 1:
			tr = rdf.NewTriple(s, rdf.NewIRI("http://ex/label"), rdf.NewLangLiteral(strings.Repeat("l", i), "en"))
		case 2:
			tr = rdf.NewTriple(s, rdf.NewIRI("http://ex/o"), rdf.NewIRI(fmt.Sprintf("http://ex/o%d", i)))
		default:
			tr = tri(fmt.Sprintf("v%d", i), "valid", "o")
			tr.ValidFrom = time.Unix(int64(i), 0).UTC()
			tr.ValidTo = time.Unix(int64(i)+60, 0).UTC()
		}
		batch = append(batch, tr)
	}
	dirty := []byte("previous bytes that must survive")
	for _, limit := range []int{maxWALRecord, 256, 120, 64} {
		setChunkPayload(t, limit)
		for n := 0; n <= len(batch); n++ {
			for _, op := range []byte{opAdd, opDelete} {
				checkAppendFrames(t, dirty, op, batch[:n])
			}
		}
		// An oversized triple alone, after small ones, and mid-batch.
		if limit < maxWALRecord {
			checkAppendFrames(t, dirty, opAdd, []rdf.Triple{huge})
			checkAppendFrames(t, dirty, opAdd, append(batch[:5:5], huge))
			checkAppendFrames(t, dirty, opAdd, append(append(batch[:5:5], huge), batch[5:9]...))
		}
	}
}

func checkAppendFrames(t *testing.T, prefix []byte, op byte, ts []rdf.Triple) {
	t.Helper()
	want, wantErr := encodeFrames(op, ts)
	// A reused buffer: stale bytes beyond the prefix, room for a few
	// frames before append has to grow it.
	buf := bytes.Repeat([]byte{0xa5}, 4096)
	copy(buf, prefix)
	got, frames, err := appendFrames(buf[:len(prefix)], op, ts)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("cap %d, %d triples: error %v, want %v", walChunkPayload, len(ts), err, wantErr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("cap %d, %d triples: failed append left %d bytes, want the %d-byte prefix",
				walChunkPayload, len(ts), len(got), len(prefix))
		}
		return
	}
	if err != nil {
		t.Fatalf("cap %d, %d triples: %v", walChunkPayload, len(ts), err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("cap %d, %d triples: prefix overwritten", walChunkPayload, len(ts))
	}
	if frames != len(want) {
		t.Fatalf("cap %d, %d triples: %d frames, reference %d", walChunkPayload, len(ts), frames, len(want))
	}
	if ref := bytes.Join(want, nil); !bytes.Equal(got[len(prefix):], ref) {
		t.Fatalf("cap %d, %d triples, op %d: frames differ from the reference\n got %x\nwant %x",
			walChunkPayload, len(ts), op, got[len(prefix):], ref)
	}
}
