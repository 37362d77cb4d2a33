package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"applab/internal/strabon"
)

// writer is mat-ingest's single writer: batches of new LAI observations
// through Store.AddAll, and after every deleteEvery-th batch the oldest
// live batch deleted again, triple by triple (the store has no batch
// delete).
type writer struct {
	store *strabon.Store

	next      int   // id of the next batch
	live      []int // acknowledged and not deleted, oldest first
	deleted   []int
	lastAcked atomic.Int64 // id of the newest acknowledged batch, -1 before the first

	addAll  []time.Duration // one per AddAll: the foreground stall a flush or compaction causes shows here
	busy    time.Duration   // time inside the store's write calls, adds and deletes
	triples int             // acknowledged adds
	load    written
	err     error
}

// Small batches, often: the data epoch then advances faster than reads
// arrive and the result cache's hit ratio collapses whatever the timing.
// One batch in eighty is deleted, not one in ten: Engine.Match scans
// every memtable tombstone on every call, so at one in ten a read costs
// four times more at the end of a memtable's life than at its start and
// the workload measures the tombstone count (README.md, mat-ingest).
const (
	writeBatchTriples = 32
	deleteEvery       = 80
)

func newWriter(store *strabon.Store) *writer {
	w := &writer{store: store}
	w.lastAcked.Store(-1)
	return w
}

// step writes one batch. A batch is acknowledged when AddAll returned
// and the store recorded no write error: the WAL fsync is inside AddAll.
func (w *writer) step() {
	batch := ingestBatch(w.next, writeBatchTriples)
	before := w.store.Engine().Stats()
	start := time.Now()
	w.store.AddAll(batch)
	w.addAll = append(w.addAll, time.Since(start))
	if err := w.store.Err(); err != nil {
		if w.err == nil {
			w.err = fmt.Errorf("batch %d: %w", w.next, err)
		}
		return
	}
	w.load.observe(before, w.store.Engine().Stats())
	w.live = append(w.live, w.next)
	w.lastAcked.Store(int64(w.next))
	w.triples += len(batch)
	w.next++
	if w.next%deleteEvery == 0 && len(w.live) > 1 {
		victim := w.live[0]
		w.live = w.live[1:]
		for _, t := range ingestBatch(victim, writeBatchTriples) {
			w.store.Delete(t)
		}
		w.deleted = append(w.deleted, victim)
	}
	w.busy += time.Since(start)
}

// run writes one batch every writeBatchTriples/tps seconds, on a fixed
// schedule, until stop closes.
func (w *writer) run(stop <-chan struct{}, tps float64) {
	start := time.Now()
	interval := time.Duration(float64(time.Second) * writeBatchTriples / tps)
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		case <-time.After(time.Until(start.Add(time.Duration(k) * interval))):
		}
		w.step()
	}
}

// beside runs f with the writer running next to it at tps.
func (w *writer) beside(tps float64, f func()) {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); w.run(stop, tps) }()
	f()
	close(stop)
	<-done
}

// encodedSizes is the N-Triples size of everything added and the WAL
// record bytes of the adds and the single-triple deletes.
func (w *writer) encodedSizes() (ntBytes, walBytes int64) {
	for b := 0; b < w.next; b++ {
		nt, wal := encodedSizes(ingestBatch(b, writeBatchTriples), writeBatchTriples, false)
		ntBytes, walBytes = ntBytes+nt, walBytes+wal
	}
	for _, b := range w.deleted {
		_, wal := encodedSizes(ingestBatch(b, writeBatchTriples), 1, true)
		walBytes += wal
	}
	return ntBytes, walBytes
}

// probe is the read-your-writes query: the marker triple of the newest
// acknowledged batch must be visible to a read that starts now.
func (w *writer) probe() (string, bool) {
	b := w.lastAcked.Load()
	if b < 0 {
		return "", false
	}
	marker := ingestBatch(int(b), 1)[0]
	return fmt.Sprintf("ASK { %s a lai:Observation }", marker.S), true
}

// verifyReopened checks durability after close and reopen: every triple
// of every acknowledged, undeleted batch is readable, and no triple of a
// deleted batch is. One operation per batch.
func (w *writer) verifyReopened(st *strabon.Store) (attempted int, failures []error) {
	check := func(batch int, want int) {
		attempted++
		for _, t := range ingestBatch(batch, writeBatchTriples) {
			if got := len(st.Match(t.S, t.P, t.O)); got != want {
				failures = append(failures, fmt.Errorf("after reopen, batch %d: %s matched %d times, want %d", batch, t.String(), got, want))
				return
			}
		}
	}
	for _, b := range w.live {
		check(b, 1)
	}
	for _, b := range w.deleted {
		check(b, 0)
	}
	return attempted, failures
}
