// Package segment is the disk-backed storage engine under the Strabon
// side of the paper's Figure 1: an LSM-style store of immutable sorted
// runs plus an in-memory memtable, fed through a write-ahead log.
//
// The design (DESIGN.md §10) in one paragraph: every mutation is
// appended to the WAL and fsynced, then applied to the memtable (an
// rdf.Graph plus a tombstone set). When the memtable reaches the flush
// threshold it is written as an immutable run — term dictionary,
// SPO-sorted rows, POS/OSP permutations, per-term index sections that
// double as cardinality statistics — published via an atomically
// renamed file and a MANIFEST update, and the WAL is reset. Reads merge
// the memtable and the runs newest-first, so a triple's newest
// occurrence (add or tombstone) wins; compaction folds all runs into
// one, dropping masked rows and tombstones. Opening an engine reads the
// MANIFEST, the run footers, and the WAL tail — not the dataset — so a
// node serves within milliseconds of boot.
//
// A memory-only engine (New) is just the memtable: it behaves
// bit-for-bit like the seed in-memory store, which the differential
// oracle tests pin.
package segment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"applab/internal/rdf"
)

// Options tune an engine opened with Open. The zero value is usable.
type Options struct {
	// FlushEvery is the memtable size — live triples plus tombstones —
	// that triggers a flush to a new run (default 8192; negative
	// disables auto-flush).
	FlushEvery int
	// CompactAt is the run count that triggers compaction (default 4;
	// negative disables).
	CompactAt int
	// CompactEvery, when positive, moves compaction to a background
	// goroutine woken on this period; zero compacts synchronously at
	// flush time. Background compaction uses the After hook, so tests
	// drive it with a fake clock and zero real sleeps.
	CompactEvery time.Duration
	// After is the timer hook for background compaction (default
	// time.After).
	After func(time.Duration) <-chan time.Time
	// WrapWAL, when set, wraps the WAL file before it is written
	// through — the fault-injection seam (faults.NewFile).
	WrapWAL func(Sink) Sink
}

func (o Options) flushEvery() int {
	if o.FlushEvery == 0 {
		return 8192
	}
	return o.FlushEvery
}

func (o Options) compactAt() int {
	if o.CompactAt == 0 {
		return 4
	}
	return o.CompactAt
}

// memtable is the mutable head of the engine: newly added triples in
// insertion order plus the tombstones that mask older runs. Tombstones
// live in a graph of their own, so a read reaches the ones that can
// match its pattern through the graph's indexes instead of walking them
// all. A memory-only engine has no runs (and never will), so its
// memtable keeps no tombstones — deletes there are plain graph removals
// and nothing accumulates.
type memtable struct {
	g *rdf.Graph
	// tombs is nil in a memory-only engine.
	tombs *rdf.Graph
}

func newMemtable(disk bool) *memtable {
	m := &memtable{g: rdf.NewGraph()}
	if disk {
		m.tombs = rdf.NewGraph()
	}
	return m
}

// add inserts a triple, clearing any tombstone for it (a re-add after
// delete revives the triple). It reports whether the memtable changed
// shape the way rdf.Graph.Add does.
func (m *memtable) add(t rdf.Triple) bool {
	if m.tombs != nil {
		m.tombs.Remove(t)
	}
	return m.g.Add(t)
}

// delete removes a triple from the memtable graph and, in a
// disk-backed engine, records a tombstone to mask any older run.
func (m *memtable) delete(t rdf.Triple) bool {
	removed := m.g.Remove(t)
	if m.tombs == nil {
		return removed
	}
	newTomb := m.tombs.Add(t)
	return removed || newTomb
}

func (m *memtable) tombstones() int {
	if m.tombs == nil {
		return 0
	}
	return m.tombs.Len()
}

func (m *memtable) empty() bool { return m.g.Len() == 0 && m.tombstones() == 0 }

// Stats is a point-in-time snapshot of the engine's shape and
// lifetime counters, the backing data of the segment_* metrics.
type Stats struct {
	Segments        int
	SegmentBytes    int64
	SegmentRows     int
	Tombstones      int
	MemtableTriples int
	WALBytes        int64
	Flushes         uint64
	Compactions     uint64
	WALRecords      uint64
	WALFsyncs       uint64
	WALReplayed     int
	WALDiscarded    int64
	ReadErrors      uint64
	// FlushTime and CompactTime are the cumulative wall time spent
	// writing runs under the write lock: encoding, writing, fsyncing
	// and committing a flush (its compaction excluded), and likewise a
	// compaction.
	FlushTime   time.Duration
	CompactTime time.Duration
}

// Engine is the storage engine. Safe for concurrent use: mutations and
// maintenance take the write lock, queries the read lock.
type Engine struct {
	mu   sync.RWMutex
	dir  string // "" = memory-only
	opts Options
	mem  *memtable
	wal  *wal
	segs []*Run // oldest first
	next uint64 // next run sequence number

	closed bool
	stopBg chan struct{}
	bgDone chan struct{}
	// bgOnce guards the background-compaction shutdown: concurrent
	// Close calls must not double-close stopBg.
	bgOnce sync.Once

	// statsMu guards the advisory fields written on read paths
	// (readErr, stats.ReadErrors); everything else in stats is written
	// under the main write lock.
	statsMu sync.Mutex
	stats   Stats
	// readErr records the first segment read error; queries proceed
	// over what they could read (the resilient-subset rule the spatial
	// index already follows).
	readErr error
}

// New returns a memory-only engine: no WAL, no runs, just the
// memtable. It is the backing of the seed-compatible in-memory store.
func New() *Engine {
	return &Engine{mem: newMemtable(false)}
}

const manifestName = "MANIFEST"
const manifestMagic = "ASEGM1"

// Open opens (creating if needed) a disk-backed engine in dir: reads
// the MANIFEST, opens the listed run footers, removes orphaned files
// from interrupted flushes or compactions, and replays the WAL tail
// into the memtable.
func Open(dir string, opts Options) (*Engine, error) {
	if dir == "" {
		return nil, errors.New("segment: Open needs a directory; use New for a memory-only engine")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &Engine{dir: dir, opts: opts, mem: newMemtable(true)}
	names, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	listed := map[string]bool{}
	for _, name := range names {
		listed[name] = true
		r, err := OpenRun(filepath.Join(dir, name))
		if err != nil {
			e.closeAll()
			return nil, err
		}
		if r.seq, err = runSeq(name); err != nil {
			e.closeAll()
			return nil, err
		}
		if r.seq >= e.next {
			e.next = r.seq + 1
		}
		e.segs = append(e.segs, r)
	}
	sort.Slice(e.segs, func(i, j int) bool { return e.segs[i].seq < e.segs[j].seq })

	// Remove orphans: run or temp files a crash left outside the
	// manifest. They are not part of the committed state (their content
	// is either still in the WAL or still in the pre-compaction runs).
	entries, err := os.ReadDir(dir)
	if err != nil {
		e.closeAll()
		return nil, err
	}
	for _, ent := range entries {
		name := ent.Name()
		orphanRun := strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") && !listed[name]
		tmp := strings.HasSuffix(name, ".tmp")
		if orphanRun || tmp {
			_ = os.Remove(filepath.Join(dir, name)) // best-effort cleanup
		}
	}

	w, ops, discarded, err := openWAL(filepath.Join(dir, "wal.log"), opts.WrapWAL)
	if err != nil {
		e.closeAll()
		return nil, err
	}
	e.wal = w
	w.records = &e.stats.WALRecords
	w.fsyncs = &e.stats.WALFsyncs
	e.stats.WALDiscarded = discarded
	for _, op := range ops {
		for _, t := range op.triples {
			if op.op == opAdd {
				e.mem.add(t)
			} else {
				e.mem.delete(t)
			}
			e.stats.WALReplayed++
		}
	}
	if opts.CompactEvery > 0 {
		e.stopBg = make(chan struct{})
		e.bgDone = make(chan struct{})
		go e.backgroundCompact()
	}
	return e, nil
}

func (e *Engine) closeAll() {
	for _, r := range e.segs {
		_ = r.close()
	}
}

// runSeq parses the sequence number out of a seg-%08d.seg name.
func runSeq(name string) (uint64, error) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "seg-%08d.seg", &seq); err != nil {
		return 0, fmt.Errorf("segment: bad run name %q", name)
	}
	return seq, nil
}

func runName(seq uint64) string { return fmt.Sprintf("seg-%08d.seg", seq) }

// readManifest returns the run names of the committed state, oldest
// first. A missing manifest is an empty engine.
func readManifest(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != manifestMagic {
		return nil, fmt.Errorf("segment: bad manifest header in %s", path)
	}
	var names []string
	for _, ln := range lines[1:] {
		if ln == "" {
			continue
		}
		if strings.ContainsAny(ln, "/\\") || !strings.HasPrefix(ln, "seg-") {
			return nil, fmt.Errorf("segment: bad manifest entry %q", ln)
		}
		names = append(names, ln)
	}
	return names, nil
}

// writeManifest atomically replaces the manifest (tmp + rename +
// directory fsync): the rename is the commit point of every flush and
// compaction.
func (e *Engine) writeManifest(names []string) error {
	path := filepath.Join(e.dir, manifestName)
	tmp := path + ".tmp"
	body := manifestMagic + "\n" + strings.Join(names, "\n")
	if len(names) > 0 {
		body += "\n"
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(body); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return e.syncDir()
}

func (e *Engine) syncDir() error {
	d, err := os.Open(e.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Add inserts one triple durably (WAL first, then memtable). It
// reports whether the memtable changed, and fails without mutating
// anything when the WAL append fails.
func (e *Engine) Add(t rdf.Triple) (bool, error) {
	return e.apply(opAdd, []rdf.Triple{t})
}

// AddAll inserts a batch as one atomic WAL commit (a single record,
// or a chunk group for batches over the record cap — either way the
// batch replays all-or-nothing after a crash).
func (e *Engine) AddAll(ts []rdf.Triple) (bool, error) {
	if len(ts) == 0 {
		return false, nil
	}
	return e.apply(opAdd, ts)
}

// Delete removes a triple: from the memtable if present, and via a
// tombstone masking any occurrence in older runs.
func (e *Engine) Delete(t rdf.Triple) (bool, error) {
	return e.apply(opDelete, []rdf.Triple{t})
}

func (e *Engine) apply(op byte, ts []rdf.Triple) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false, errors.New("segment: engine is closed")
	}
	if e.wal != nil {
		if err := e.wal.append(op, ts); err != nil {
			return false, err
		}
	}
	changed := false
	for _, t := range ts {
		if op == opAdd {
			if e.mem.add(t) {
				changed = true
			}
		} else if e.mem.delete(t) {
			changed = true
		}
	}
	if e.dir != "" && e.opts.flushEvery() > 0 && e.mem.g.Len()+e.mem.tombstones() >= e.opts.flushEvery() {
		if err := e.flushLocked(); err != nil {
			return changed, err
		}
	}
	return changed, nil
}

// Flush publishes the memtable as a new run and resets the WAL. A
// memory-only engine ignores it.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dir == "" || e.closed {
		return nil
	}
	return e.flushLocked()
}

func (e *Engine) flushLocked() error {
	if e.mem.empty() {
		return nil
	}
	start := time.Now()
	// encodeRun orders the rows, so the run's bytes do not depend on the
	// order the memtable hands them over in.
	img, err := encodeRun(e.mem.g.Triples(), e.mem.tombs.Triples())
	if err != nil {
		return err
	}
	r, err := e.publishRun(img)
	if err != nil {
		return err
	}
	e.segs = append(e.segs, r)
	e.mem = newMemtable(true)
	if err := e.wal.reset(); err != nil {
		return fmt.Errorf("segment: WAL reset after flush: %w", err)
	}
	e.stats.Flushes++
	e.stats.FlushTime += time.Since(start)
	if e.opts.CompactEvery == 0 && e.opts.compactAt() > 0 && len(e.segs) >= e.opts.compactAt() {
		return e.compactLocked()
	}
	return nil
}

// publishRun writes a run image to a temp file, fsyncs, renames it
// into place, fsyncs the directory, and commits it by rewriting the
// manifest with the new name appended. Returns the opened run.
func (e *Engine) publishRun(img []byte) (*Run, error) {
	seq := e.next
	name := runName(seq)
	path := filepath.Join(e.dir, name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(img); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	if err := e.syncDir(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(e.segs)+1)
	for _, s := range e.segs {
		names = append(names, runName(s.seq))
	}
	names = append(names, name)
	if err := e.writeManifest(names); err != nil {
		return nil, err
	}
	r, err := OpenRun(path)
	if err != nil {
		return nil, err
	}
	r.seq = seq
	e.next = seq + 1
	return r, nil
}

// Compact folds every run into one, dropping rows masked by newer
// occurrences and all tombstones (after a full merge nothing older
// remains for a tombstone to mask; crash-orphaned pre-compaction runs
// are outside the manifest and removed on open, so they can never
// resurrect).
func (e *Engine) Compact() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errors.New("segment: engine is closed")
	}
	return e.compactLocked()
}

func (e *Engine) compactLocked() error {
	if len(e.segs) < 2 {
		return nil
	}
	start := time.Now()
	img, err := e.mergeRuns()
	if err != nil {
		return err
	}
	old := e.segs
	r, err := e.publishRun(img)
	if err != nil {
		return err
	}
	// publishRun appended the merged run to a manifest still listing the
	// old runs; rewrite it to the merged run alone — the commit point.
	if err := e.writeManifest([]string{runName(r.seq)}); err != nil {
		_ = r.close()
		return err
	}
	e.segs = []*Run{r}
	for _, s := range old {
		_ = s.close()
		_ = os.Remove(s.path) // best-effort; orphans are collected on open
	}
	e.stats.Compactions++
	e.stats.CompactTime += time.Since(start)
	return nil
}

// mergeRuns encodes the image of the run that replaces all current
// runs: the merged cursor over the runs alone (the memtable stays
// mutable and keeps masking at read time) yields exactly the rows that
// survive, already in row order, and only their dictionary ids are
// carried — no triple is materialized.
func (e *Engine) mergeRuns() ([]byte, error) {
	var m merge
	var failed error
	e.open(&m, rdf.Term{}, rdf.Term{}, rdf.Term{}, false, func(err error) {
		if failed == nil {
			failed = err
		}
	})
	if failed != nil {
		return nil, failed
	}
	rows := make([]row, 0, m.upper)
	from := make([]int, 0, m.upper) // the run each row's ids belong to
	dicts := make([][]rdf.Term, len(e.segs))
	used := make([][]bool, len(e.segs))
	for i := 0; i < m.n; i++ {
		src := m.src(i)
		dicts[src.run], used[src.run] = src.terms, make([]bool, len(src.terms))
	}
	for h := m.next(); h != nil; h = m.next() {
		rows = append(rows, *h.row)
		from = append(from, h.run)
		u := used[h.run]
		u[h.row.s], u[h.row.p], u[h.row.o] = true, true, true
	}
	terms, newID := mergeDicts(dicts, used)
	for i := range rows {
		r, ids := &rows[i], newID[from[i]]
		r.s, r.p, r.o = ids[r.s], ids[r.p], ids[r.o]
	}
	return encodeRows(terms, rows), nil
}

// mergeDicts folds the used terms of several strictly sorted
// dictionaries into one, returning it with each dictionary's old-to-new
// id table.
func mergeDicts(dicts [][]rdf.Term, used [][]bool) ([]rdf.Term, [][]uint32) {
	newID := make([][]uint32, len(dicts))
	pos := make([]int, len(dicts))
	skip := func(d int) {
		for pos[d] < len(dicts[d]) && !used[d][pos[d]] {
			pos[d]++
		}
	}
	for d := range dicts {
		newID[d] = make([]uint32, len(dicts[d]))
		skip(d)
	}
	n := 0
	for _, d := range dicts {
		n += len(d)
	}
	terms := make([]rdf.Term, 0, n)
	for {
		least := -1
		for d := range dicts {
			if pos[d] < len(dicts[d]) && (least < 0 || dicts[d][pos[d]].Compare(dicts[least][pos[least]]) < 0) {
				least = d
			}
		}
		if least < 0 {
			return terms, newID
		}
		t := dicts[least][pos[least]]
		for d := range dicts {
			if pos[d] < len(dicts[d]) && dicts[d][pos[d]].Equal(t) {
				newID[d][pos[d]] = uint32(len(terms))
				pos[d]++
				skip(d)
			}
		}
		terms = append(terms, t)
	}
}

// backgroundCompact is the timer-driven compaction loop.
func (e *Engine) backgroundCompact() {
	defer close(e.bgDone)
	after := e.opts.After
	if after == nil {
		after = time.After
	}
	for {
		select {
		case <-e.stopBg:
			return
		case <-after(e.opts.CompactEvery):
			e.mu.Lock()
			if !e.closed && e.opts.compactAt() > 0 && len(e.segs) >= e.opts.compactAt() {
				if err := e.compactLocked(); err != nil {
					e.noteReadErr(err)
				}
			}
			e.mu.Unlock()
		}
	}
}

// Close flushes the memtable (so the next open boots from footers, not
// a WAL replay), stops background compaction, and closes every file.
// Safe to call more than once, including concurrently.
func (e *Engine) Close() error {
	if e.stopBg != nil {
		e.bgOnce.Do(func() {
			close(e.stopBg)
			<-e.bgDone
		})
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	var first error
	if e.dir != "" {
		if err := e.flushLocked(); err != nil {
			first = err
		}
		if err := e.wal.close(); err != nil && first == nil {
			first = err
		}
	}
	for _, r := range e.segs {
		if err := r.close(); err != nil && first == nil {
			first = err
		}
	}
	e.closed = true
	return first
}

// open points m at the merged cursor over everything the pattern can
// match: the memtable's live triples and tombstones (withMem) and every
// run, newest first. A run that cannot be read is reported to fail and
// left out. The caller holds the lock.
func (e *Engine) open(m *merge, s, p, o rdf.Term, withMem bool, fail func(error)) {
	m.free = [3]bool{s.IsZero(), p.IsZero(), o.IsZero()}
	if withMem {
		if e.mem.g.Len() > 0 {
			m.addMem(e.mem.g.Match(s, p, o), 0)
		}
		if e.mem.tombstones() > 0 {
			m.addMem(e.mem.tombs.Match(s, p, o), rowTombstone)
		}
	}
	for i := len(e.segs) - 1; i >= 0; i-- {
		sc, err := e.segs[i].scan(s, p, o)
		if err != nil {
			fail(err)
			continue
		}
		m.addRun(i, sc)
	}
}

// Match returns all triples matching the pattern. With no runs it is
// exactly the memtable graph's answer (insertion order); with runs the
// merged answer is returned in canonical (term-key) order.
func (e *Engine) Match(s, p, o rdf.Term) []rdf.Triple { return e.AppendMatch(nil, s, p, o) }

// AppendMatch appends Match's answer to dst and returns the extended
// slice; onto a nil dst, no match answers nil.
func (e *Engine) AppendMatch(dst []rdf.Triple, s, p, o rdf.Term) []rdf.Triple {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.segs) == 0 {
		return e.mem.g.AppendMatch(dst, s, p, o)
	}
	out, early := collect(e, dst, s, p, o, head.triple)
	if dst == nil && len(out) == 0 {
		return nil
	}
	if early {
		hoistTimeless(out[len(dst):])
	}
	return out
}

// AppendRefs is Match by reference, appended to dst in Match's order:
// with no runs, handles into the memtable graph's term table (see
// rdf.Graph.AppendRefs); with runs, handles into the run dictionaries
// or the memtable's per-call copy. The terms behind them are never
// mutated and outlive writes, flushes and compactions: a flush starts a
// new memtable graph, and a compaction closes run files, not decoded
// dictionaries. Matches carry no valid time, so matches differing only
// in it are value-identical and their canonical order needs no
// hoistTimeless. A run that cannot be read is left out, as in Match;
// the error is always nil.
func (e *Engine) AppendRefs(ctx context.Context, dst []rdf.Ref, s, p, o rdf.Term) ([]rdf.Ref, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.segs) == 0 {
		return e.mem.g.AppendRefs(ctx, dst, s, p, o)
	}
	dst, _ = collect(e, dst, s, p, o, head.ref)
	return dst, nil
}

// collect drains the merged cursor over the pattern onto dst,
// converting every live head with conv, and reports whether a triple
// valid from before 1970 was among them (see hoistTimeless). The caller
// holds the lock. conv takes the head by value: a pointer into the
// merge would move it to the heap. dst grows in one allocation
// (slices.Grow makes a second, temporary one under -race, which
// TestMatchAllocations counts).
func collect[T any](e *Engine, dst []T, s, p, o rdf.Term, conv func(head) T) ([]T, bool) {
	var m merge
	e.open(&m, s, p, o, true, e.noteReadErr)
	if m.upper == 0 {
		return dst, false
	}
	if cap(dst)-len(dst) < m.upper {
		dst = append(make([]T, 0, len(dst)+m.upper), dst...)
	}
	for h := m.next(); h != nil; h = m.next() {
		dst = append(dst, conv(*h))
	}
	return dst, m.early
}

// noteReadErr records the first segment read error seen by a query.
// Queries run under the read lock, so these advisory fields have their
// own mutex.
func (e *Engine) noteReadErr(err error) {
	e.statsMu.Lock()
	e.stats.ReadErrors++
	if e.readErr == nil {
		e.readErr = err
	}
	e.statsMu.Unlock()
}

// Cardinality estimates the match count: the memtable's estimate plus
// each run's, each the smallest bound-position bucket. Like the
// graph's estimator it is an upper bound, exact for a single-position
// pattern in a freshly compacted engine.
func (e *Engine) Cardinality(s, p, o rdf.Term) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	total := e.mem.g.Cardinality(s, p, o)
	for _, r := range e.segs {
		n, err := r.cardinality(s, p, o)
		if err != nil {
			e.noteReadErr(err)
			continue
		}
		total += n
	}
	return total
}

// Len returns the number of live triples. With runs this is an O(data)
// merge (exactness over speed — it backs a snapshot-time gauge and
// load-time logs, not the query path).
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.segs) == 0 {
		return e.mem.g.Len()
	}
	var m merge
	e.open(&m, rdf.Term{}, rdf.Term{}, rdf.Term{}, true, e.noteReadErr)
	n := 0
	for m.next() != nil {
		n++
	}
	return n
}

// Triples returns every live triple (memtable order when memory-only,
// canonical order once runs exist).
func (e *Engine) Triples() []rdf.Triple {
	return e.Match(rdf.Term{}, rdf.Term{}, rdf.Term{})
}

// MemGraph exposes the memtable graph. For a memory-only engine this
// is the entire store (the seed-compatible surface strabon.Store.Graph
// relies on); for a disk-backed engine it is only the unflushed head.
func (e *Engine) MemGraph() *rdf.Graph {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.mem.g
}

// Segments reports the current run count.
func (e *Engine) Segments() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.segs)
}

// Dir reports the engine's directory ("" when memory-only).
func (e *Engine) Dir() string { return e.dir }

// Err returns the first segment read error observed by a query, nil
// when every read verified. Mirrors strabon.Store.IndexErr.
func (e *Engine) Err() error {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.readErr
}

// Stats snapshots the engine's shape and counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.statsMu.Lock()
	s := e.stats
	e.statsMu.Unlock()
	s.Segments = len(e.segs)
	s.MemtableTriples = e.mem.g.Len()
	for _, r := range e.segs {
		s.SegmentBytes += r.bytes()
		s.SegmentRows += r.Rows()
		s.Tombstones += r.Tombstones()
	}
	s.Tombstones += e.mem.tombstones()
	if e.wal != nil {
		s.WALBytes = e.wal.bytes()
	}
	return s
}
