package segment

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"applab/internal/faults"
	"applab/internal/rdf"
)

// The crash-recovery matrix: every test injects a storage fault (torn
// tail, short write, write error, fsync error, duplicate replay) and
// asserts the reopened engine serves EXACTLY the committed pre-crash
// set — nothing lost, nothing resurrected. All scenarios run with zero
// real sleeps; the background-compaction test drives a fake clock.

// abandon simulates a crash: close the raw file descriptors without
// flushing or resetting anything, as a killed process would.
func abandon(e *Engine) {
	if e.wal != nil {
		e.wal.f.Close()
	}
	for _, r := range e.segs {
		r.close()
	}
}

// committedSet is the canonical triple set of an engine.
func committedSet(e *Engine) map[string]bool { return canonicalSet(e.Triples()) }

// TestRecoveryTornTail: the WAL ends mid-record (power loss during a
// write). Reopen recovers every fully committed record, discards the
// torn frame, and accepts new appends.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	batch1 := nTriples(5)
	batch2 := []rdf.Triple{tri("x", "y", "z"), tri("q", "r", "s")}
	mustAdd(t, e, batch1...)
	mustAdd(t, e, batch2...)
	abandon(e)

	walPath := filepath.Join(dir, "wal.log")
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut one byte: the second record loses its checksum tail.
	if err := os.Truncate(walPath, info.Size()-1); err != nil {
		t.Fatal(err)
	}

	e2 := mustOpen(t, dir, Options{})
	if got, want := committedSet(e2), canonicalSet(batch1); !reflect.DeepEqual(got, want) {
		t.Fatalf("torn tail: got %d triples, want exactly batch1 (%d)", len(got), len(want))
	}
	if e2.Stats().WALDiscarded == 0 {
		t.Fatal("expected discarded bytes to be reported")
	}
	// The log must accept appends after repair and survive another cycle.
	batch3 := []rdf.Triple{tri("after", "the", "crash")}
	mustAdd(t, e2, batch3...)
	abandon(e2)
	e3 := mustOpen(t, dir, Options{})
	defer e3.Close()
	want := canonicalSet(append(append([]rdf.Triple{}, batch1...), batch3...))
	if got := committedSet(e3); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-repair append lost: got %d want %d", len(got), len(want))
	}
}

// TestRecoveryShortWrite: the kernel accepts only a prefix of the
// frame (ENOSPC mid-write). The append must fail, the engine must
// repair its tail, and a reopened engine sees only committed batches.
func TestRecoveryShortWrite(t *testing.T) {
	dir := t.TempDir()
	writes := faults.Seq(
		faults.Step{Kind: faults.OK},
		faults.Step{Kind: faults.Truncate, KeepBytes: 7},
	)
	e := mustOpen(t, dir, Options{WrapWAL: func(s Sink) Sink {
		return faults.NewFile(s.(*os.File), writes, nil)
	}})
	batch1 := nTriples(4)
	mustAdd(t, e, batch1...)
	if _, err := e.AddAll([]rdf.Triple{tri("torn", "torn", "torn")}); !errors.Is(err, faults.ErrInjectedWrite) {
		t.Fatalf("short write not surfaced: %v", err)
	}
	// The failed batch is invisible in the live engine too.
	if got, want := committedSet(e), canonicalSet(batch1); !reflect.DeepEqual(got, want) {
		t.Fatalf("failed batch leaked into live engine")
	}
	// And a later append still works (tail was repaired in place).
	batch3 := []rdf.Triple{tri("recovered", "p", "o")}
	mustAdd(t, e, batch3...)
	abandon(e)

	e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	want := canonicalSet(append(append([]rdf.Triple{}, batch1...), batch3...))
	if got := committedSet(e2); !reflect.DeepEqual(got, want) {
		t.Fatalf("short-write recovery: got %d triples, want %d", len(got), len(want))
	}
	if e2.Stats().WALDiscarded != 0 {
		t.Fatalf("repair should have cleaned the tail before the crash, found %d stray bytes",
			e2.Stats().WALDiscarded)
	}
}

// TestRecoveryWriteError: the write fails before any byte lands. The
// append reports the error and nothing changes on disk.
func TestRecoveryWriteError(t *testing.T) {
	dir := t.TempDir()
	writes := faults.Seq(
		faults.Step{Kind: faults.OK},
		faults.Step{Kind: faults.ConnError},
	)
	e := mustOpen(t, dir, Options{WrapWAL: func(s Sink) Sink {
		return faults.NewFile(s.(*os.File), writes, nil)
	}})
	batch1 := nTriples(3)
	mustAdd(t, e, batch1...)
	if _, err := e.Add(tri("lost", "lost", "lost")); !errors.Is(err, faults.ErrInjectedWrite) {
		t.Fatalf("write error not surfaced: %v", err)
	}
	abandon(e)

	e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	if got, want := committedSet(e2), canonicalSet(batch1); !reflect.DeepEqual(got, want) {
		t.Fatalf("write-error recovery: got %d triples, want %d", len(got), len(want))
	}
}

// TestRecoveryFsyncError: the bytes reached the file but the
// durability barrier failed — the record is NOT committed. The engine
// truncates it away, so neither the live engine nor a reopened one
// ever serves it.
func TestRecoveryFsyncError(t *testing.T) {
	dir := t.TempDir()
	syncs := faults.Seq(
		faults.Step{Kind: faults.OK},
		faults.Step{Kind: faults.SyncError},
	)
	e := mustOpen(t, dir, Options{WrapWAL: func(s Sink) Sink {
		return faults.NewFile(s.(*os.File), nil, syncs)
	}})
	batch1 := nTriples(6)
	mustAdd(t, e, batch1...)
	if _, err := e.Add(tri("unsynced", "p", "o")); !errors.Is(err, faults.ErrInjectedSync) {
		t.Fatalf("fsync error not surfaced: %v", err)
	}
	if got, want := committedSet(e), canonicalSet(batch1); !reflect.DeepEqual(got, want) {
		t.Fatalf("unsynced batch visible in live engine")
	}
	abandon(e)

	e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	if got, want := committedSet(e2), canonicalSet(batch1); !reflect.DeepEqual(got, want) {
		t.Fatalf("fsync-error recovery: got %d triples, want %d", len(got), len(want))
	}
	if e2.Stats().WALDiscarded != 0 {
		t.Fatalf("fsync failure should have been repaired before the crash")
	}
}

// TestRecoveryDuplicateReplay: crash in the window between segment
// publication and WAL reset. On reopen the WAL replays records whose
// triples are already in the published run; newest-wins dedup
// converges to the exact committed set.
func TestRecoveryDuplicateReplay(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	ts := nTriples(10)
	mustAdd(t, e, ts...)

	// Save the WAL as it is before the flush...
	walPath := filepath.Join(dir, "wal.log")
	preFlush, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// ...then put it back, as if the machine died after the manifest
	// rename but before the WAL truncate.
	if err := os.WriteFile(walPath, preFlush, 0o644); err != nil {
		t.Fatal(err)
	}
	abandon(e)

	e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	if e2.Stats().WALReplayed != 10 {
		t.Fatalf("expected all 10 triples replayed, got %d", e2.Stats().WALReplayed)
	}
	if e2.Segments() != 1 {
		t.Fatalf("segments = %d, want 1", e2.Segments())
	}
	if got, want := committedSet(e2), canonicalSet(ts); !reflect.DeepEqual(got, want) {
		t.Fatalf("duplicate replay diverged: got %d triples, want %d", len(got), len(want))
	}
	if e2.Len() != 10 {
		t.Fatalf("Len = %d after duplicate replay, want 10 (dedup failed)", e2.Len())
	}
}

// TestRecoveryDeleteReplay: tombstones replay idempotently too — a
// delete in the replayed window stays deleted.
func TestRecoveryDeleteReplay(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	ts := nTriples(5)
	mustAdd(t, e, ts...)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Delete(ts[2]); err != nil {
		t.Fatal(err)
	}
	abandon(e) // crash with the delete only in the WAL

	e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	if e2.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (replayed delete lost)", e2.Len())
	}
	if got := e2.Match(ts[2].S, ts[2].P, ts[2].O); len(got) != 0 {
		t.Fatalf("deleted triple resurrected: %v", got)
	}
}

// TestRecoveryCrashBeforeManifest: the segment file was renamed into
// place but the crash hit before the manifest commit. The orphaned run
// is ignored and removed; the WAL still has everything.
func TestRecoveryCrashBeforeManifest(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	ts := nTriples(8)
	mustAdd(t, e, ts...)
	abandon(e)

	// Fabricate the crash artifact: a fully written run file that never
	// made it into the manifest.
	img, err := encodeRun(ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, runName(0))
	if err := os.WriteFile(orphan, img, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	if e2.Segments() != 0 {
		t.Fatalf("orphan run adopted: %d segments", e2.Segments())
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan run not cleaned up")
	}
	if got, want := committedSet(e2), canonicalSet(ts); !reflect.DeepEqual(got, want) {
		t.Fatalf("WAL-backed set wrong after orphan cleanup: %d vs %d", len(got), len(want))
	}
}

// TestBackgroundCompactionFakeClock drives the periodic compactor with
// a manual clock: no compaction before the tick, one full merge after.
func TestBackgroundCompactionFakeClock(t *testing.T) {
	dir := t.TempDir()
	clock := faults.NewClock(time.Unix(0, 0))
	e := mustOpen(t, dir, Options{
		CompactAt:    2,
		CompactEvery: time.Minute,
		After:        clock.After,
	})
	mustAdd(t, e, nTriples(10)...)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, e, tri("second", "run", "here"))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Segments() != 2 {
		t.Fatalf("segments = %d before tick, want 2 (compaction ran early?)", e.Segments())
	}

	clock.AwaitTimers(1) // the loop armed its first timer
	clock.Advance(time.Minute)
	clock.AwaitTimers(2) // the loop re-armed: the first tick's work is done

	if e.Segments() != 1 {
		t.Fatalf("segments = %d after tick, want 1", e.Segments())
	}
	if e.Stats().Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", e.Stats().Compactions)
	}
	if e.Len() != 11 {
		t.Fatalf("Len = %d after background compaction, want 11", e.Len())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundCompactionHonorsNegativeCompactAt: a negative CompactAt
// disables compaction in the background loop too, so a tick over three
// runs leaves them alone.
func TestBackgroundCompactionHonorsNegativeCompactAt(t *testing.T) {
	clock := faults.NewClock(time.Unix(0, 0))
	e := mustOpen(t, t.TempDir(), Options{
		CompactAt:    -1,
		CompactEvery: time.Minute,
		After:        clock.After,
	})
	for _, sub := range []string{"first", "second", "third"} {
		mustAdd(t, e, tri(sub, "run", "here"))
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	clock.AwaitTimers(1)
	clock.Advance(time.Minute)
	clock.AwaitTimers(2) // the tick's work is done

	if got := e.Segments(); got != 3 {
		t.Fatalf("segments = %d after tick, want 3", got)
	}
	if got := e.Stats().Compactions; got != 0 {
		t.Fatalf("compactions = %d, want 0", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
