package sparql

import (
	"sync"

	"applab/internal/rdf"
)

// A pipeline runs a join unit's scans and the FILTERs and BINDs after
// them without materializing any step's output: each input row is pushed
// depth-first through the steps, every step writes the rows it passes on
// into one reusable scratch row of its own, and a row is copied into the
// chunk's arena only when it leaves the last step. Rows therefore come
// out in the order operator-at-a-time evaluation produced them — input
// row first, then each step's match order — for any worker count.
//
// Boundaries (compiler.compileGroup): a join unit's scans and the
// FILTERs and BINDs that follow them form one pipeline, so no scan's
// output is materialized for the next; a cross-join head is chunked over
// (row, match) pairs (pipeOp.run). OPTIONAL, UNION, EXISTS, VALUES and
// the spatial join end a pipeline, and over an ExchangeSource every scan
// starts one, so a bind-join step still reads its whole chunk in one
// batch per fragment (exchangeRows).

// step is one stage of a pipeline: a *scanOp, *filterOp or *bindOp.
// push takes row r at step k — r is a scratch row when scratch is set —
// and hands every row it produces to pc.next.
type step interface {
	push(pc *pipeChunk, k int, r row, scratch bool) error
}

// pipeOp is a compiled pipeline.
type pipeOp struct {
	steps    []step
	filtered bool       // some step is a FILTER: the output is not presized
	binds    []bindStep // the computed BIND steps, whose scratch values leave through emit
}

type bindStep struct{ k, slot int }

func (p *pipeOp) add(s step) {
	switch s := s.(type) {
	case *filterOp:
		p.filtered = true
	case *bindOp:
		if s.konst == nil {
			p.binds = append(p.binds, bindStep{k: len(p.steps), slot: s.slot})
		}
	}
	p.steps = append(p.steps, s)
}

// run pushes the input through the steps, chunked across the worker
// pool; the chunks share each scan step's run state. Step 0 is prepared
// once, up front: a cross head with m matches (none ends the run) is
// chunked over the len(in)·m (row, match) pairs, any other over rows.
func (p *pipeOp) run(ec *execCtx, in []row) ([]row, error) {
	pc := p.chunk(ec, in, nil)
	defer pc.release()
	if sc, ok := p.steps[0].(*scanOp); ok {
		st := pc.prepare(0, sc)
		if st.err != nil {
			return nil, st.err
		}
		if st.strategy == joinCross {
			if pc.m = st.build.Len(); pc.m == 0 {
				return nil, nil
			}
		}
	}
	n := len(in) * pc.m
	if ec.serial(n) {
		return pc.run(in, 0, n)
	}
	return chunkedRange(ec, n, func(lo, hi int) ([]row, error) {
		c := p.chunk(ec, in, pc.scans)
		defer c.release()
		c.m = pc.m
		return c.run(in, lo, hi)
	})
}

// pipeChunk is one chunk's execution state: the run's scan state, the
// per-step scratch rows, BIND values and scan buffers, and the chunk's
// output.
type pipeChunk struct {
	ec      *execCtx
	p       *pipeOp
	in      int         // rows entering the pipeline run
	scans   []scanRun   // step k's scan state is scans[k]
	rows    []*rdf.Term // step k's scratch row is rows[k*width:(k+1)*width]
	width   int
	terms   []rdf.Term  // step k's BIND value is terms[k]
	refs    [][]rdf.Ref // step k's nested-loop scan buffer is refs[k]
	kb      []byte      // hash-probe key buffer
	n       int         // rows since the last checkpoint
	at      int         // index of the input row being pushed, in the chunk
	lo, hi  int         // its window of a cross head's m matches (m is 1 for other heads)
	m       int
	batched [][]rdf.Ref
	out     []row
	ar      rowArena

	scanBuf []scanRun // backs scans in a run that is one chunk
}

// chunkPool recycles chunk state: an OPTIONAL or EXISTS body runs its
// pipelines once per row, and would otherwise allocate a chunk per row.
var chunkPool = sync.Pool{New: func() any { return new(pipeChunk) }}

// chunk returns a chunk of a run over in sharing scans, or, for a run
// that is one chunk (scans nil), with scan state of its own.
func (p *pipeOp) chunk(ec *execCtx, in []row, scans []scanRun) *pipeChunk {
	pc := chunkPool.Get().(*pipeChunk)
	pc.ec, pc.p, pc.in, pc.scans, pc.width, pc.m = ec, p, len(in), scans, len(in[0]), 1
	pc.rows = sized(pc.rows, len(p.steps)*pc.width)
	if scans == nil {
		pc.scanBuf = sized(pc.scanBuf, len(p.steps))
		pc.scans = pc.scanBuf
	}
	if len(p.binds) > 0 {
		pc.terms = sized(pc.terms, len(p.steps))
	}
	pc.refs = sized(pc.refs, len(p.steps))
	return pc
}

// sized returns s resized to n, reusing its array when it is large
// enough. Pooled arrays come back cleared.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release returns the chunk to the pool. The rows it produced are the
// caller's, arena included; the pool keeps only buffers that no row
// points into, cleared of what they referenced. Ref buffers qualify —
// rows point at the terms behind refs, not into the buffer — so each
// step's scan buffer and each scan state's build buffer is kept,
// emptied, for the next run; a triple answer (rdf.Matches.Triples) is
// pointed into by rows and is never kept.
func (pc *pipeChunk) release() {
	for i := range pc.scanBuf {
		pc.scanBuf[i] = scanRun{refs: pooledRefs(pc.scanBuf[i].refs)}
	}
	for i := range pc.refs {
		pc.refs[i] = pooledRefs(pc.refs[i])
	}
	clear(pc.rows)
	clear(pc.terms)
	*pc = pipeChunk{scanBuf: pc.scanBuf, rows: pc.rows[:0], terms: pc.terms[:0], kb: pc.kb[:0], refs: pc.refs[:0]}
	chunkPool.Put(pc)
}

// maxPooledRefs is the largest ref buffer the pool keeps (24 KiB).
// sync.Pool empties at a GC, and the next evaluation regrows the
// buffers it held: the cap keeps that regrowth, and so how much an
// evaluation allocates, small whenever the GC happens to run
// (TestBGPJoinBytesCeiling allows +8 KiB between two evaluations).
const maxPooledRefs = 1 << 10

// pooledRefs readies a ref buffer for the pool: cleared over its whole
// capacity, so a pooled chunk pins no source's terms (an old view, a
// closed run's dictionary), or dropped when it is too large to keep.
func pooledRefs(b []rdf.Ref) []rdf.Ref {
	if cap(b) > maxPooledRefs {
		return nil
	}
	clear(b[:cap(b)])
	return b[:0]
}

// run pushes pairs [lo, hi) of the run's input through the steps, input
// row by input row, each with its window of the head's matches.
func (pc *pipeChunk) run(in []row, lo, hi int) ([]row, error) {
	ec, p, m := pc.ec, pc.p, pc.m
	first := lo / m
	rows := in[first : (hi+m-1)/m]
	if sc, ok := p.steps[0].(*scanOp); ok && pc.scans[0].strategy == joinNested && ec.bx != nil {
		// Over a batching partitioned source a nested-loop head reads
		// the chunk's scans first, one read per fragment.
		var err error
		if pc.batched, err = ec.exchangeRows(sc, rows); err != nil {
			return nil, err
		}
	}
	if !p.filtered && hi-lo >= 2 {
		// A join that keeps its rows emits about one per pair; a FILTER
		// keeps an unknown share, so a filtered pipeline grows its
		// output on demand. A single row gets nothing up front, so an
		// OPTIONAL/EXISTS body run per row allocates only if it matches.
		pc.out = make([]row, 0, hi-lo)
		pc.ar.buf = make([]*rdf.Term, (hi-lo)*pc.width)
	}
	head := p.steps[0]
	for i, r := range rows {
		if err := ec.tick(&pc.n); err != nil {
			return nil, err
		}
		at := (first + i) * m
		pc.at, pc.lo, pc.hi = i, max(lo-at, 0), min(hi-at, m)
		if err := head.push(pc, 0, r, false); err != nil {
			return nil, err
		}
	}
	return pc.out, nil
}

// scratch is step k's scratch row.
func (pc *pipeChunk) scratch(k int) row {
	return pc.rows[k*pc.width : (k+1)*pc.width : (k+1)*pc.width]
}

// next hands row r, produced by step k, to step k+1, charging it as a
// row entering that step, or emits it after the last step.
func (pc *pipeChunk) next(k int, r row, scratch bool) error {
	k++
	if k == len(pc.p.steps) {
		pc.emit(r, scratch)
		return nil
	}
	if err := pc.ec.tick(&pc.n); err != nil {
		return err
	}
	return pc.p.steps[k].push(pc, k, r, scratch)
}

// emit appends a row leaving the pipeline to the chunk's output. An
// input row that no step changed leaves as it is; a scratch row is
// copied into the arena, and so is every computed BIND value it holds:
// scratch rows and values never escape the pipeline.
func (pc *pipeChunk) emit(r row, scratch bool) {
	if scratch {
		r = pc.ar.clone(r)
		for _, b := range pc.p.binds {
			if v := &pc.terms[b.k]; r[b.slot] == v {
				r[b.slot] = pc.ar.term(*v)
			}
		}
	}
	pc.out = append(pc.out, r)
}

// sameRow reports whether a and b share their backing array.
func sameRow(a, b row) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// filterOp drops rows whose condition is false or errors.
type filterOp struct {
	cond compiledExpr
}

func (f *filterOp) push(pc *pipeChunk, k int, r row, scratch bool) error {
	if v, err := compiledEBV(f.cond, r); err == nil && v {
		return pc.next(k, r, scratch)
	}
	return nil
}

// bindOp implements BIND(expr AS ?var): a fresh binding on success,
// join-style agreement when the variable is already bound, and the row
// passed on unchanged (variable unbound) on expression error. Every row
// points at konst, the plan's term, when the expression is a constant.
type bindOp struct {
	slot  int
	expr  compiledExpr
	konst *rdf.Term
}

func (b *bindOp) push(pc *pipeChunk, k int, r row, scratch bool) error {
	v := b.konst
	if v == nil {
		t, err := b.expr(r)
		if err != nil {
			return pc.next(k, r, scratch)
		}
		pc.terms[k] = t
		v = &pc.terms[k]
	}
	if old := r[b.slot]; old != nil {
		if old.Equal(*v) {
			return pc.next(k, r, scratch)
		}
		return nil
	}
	nr := copyRow(pc.scratch(k), r)
	nr[b.slot] = v
	return pc.next(k, nr, true)
}

// planBuilder appends operators to a plan and keeps the pipeline that
// FILTERs and BINDs join: the one a join unit's later scans opened, or
// one a FILTER or BIND opened itself.
type planBuilder struct {
	ops  []op
	open *pipeOp // nil when the last operator ends a pipeline
}

// add appends an operator that ends any open pipeline.
func (b *planBuilder) add(ops ...op) {
	b.ops = append(b.ops, ops...)
	b.open = nil
}

// step appends s to the open pipeline, opening one when there is none.
func (b *planBuilder) step(s step) {
	if b.open == nil {
		b.open = &pipeOp{}
		b.ops = append(b.ops, b.open)
	}
	b.open.add(s)
}
