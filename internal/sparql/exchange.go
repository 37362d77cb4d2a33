package sparql

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"applab/internal/rdf"
)

// ExchangeSource is implemented by partitioned sources — the cluster
// coordinator — that can answer a pattern per data fragment (replica
// group / shard). The compiled planner routes every BGP pattern scan
// through the exchange operator for such a source: a pattern whose
// placement is provable (bound subject under subject-hash placement)
// goes to its single owning fragment, anything else fans out to every
// fragment in parallel and the partial streams are merged back into
// canonical (term-key) order. Fragments are disjoint (placement puts
// each triple in exactly one), so the merge drops nothing.
//
// The engine reads every exchange scan through FragmentMatchBatch; a
// source without it is read through an adapter whose every pattern is
// one FragmentMatch. A fragment failure reads as an empty contribution,
// counted in sparql_scan_errors_total{path="exchange"} (the source
// itself tracks partiality — see cluster.Coordinator), except
// cancellation/budget violations (admission.Aborted), which abort the
// query.
type ExchangeSource interface {
	Source
	// Fragments reports the fragment count (stable per evaluation).
	Fragments() int
	// Route returns the single fragment that holds every possible match
	// of the pattern, when placement can prove one.
	Route(s, p, o rdf.Term) (frag int, ok bool)
	// FragmentMatch answers the pattern from one fragment, valid time
	// included; the engine reads it only through the batch adapter.
	FragmentMatch(ctx context.Context, frag int, s, p, o rdf.Term) ([]rdf.Triple, error)
}

// BatchExchangeSource is implemented by partitioned sources that can
// answer many patterns of one fragment in one read, by reference — the
// cluster coordinator sends the replica group one request. Every
// exchange scan goes through it: a routed scan is a batch of one, a
// fan-out one batch per fragment, and a nested-loop join step reads
// each fragment's routed patterns as one batch, the fragments in
// parallel. A pattern is by reference, a nil handle a wildcard. Errors
// follow FragmentMatch. Answers follow RefSource's rules, except that
// the terms may be the answer's own or the pattern's: the slices are
// the caller's, and the terms are never mutated.
type BatchExchangeSource interface {
	ExchangeSource
	// FragmentMatchBatch answers every pattern from one fragment, one
	// answer per pattern, in pattern order.
	FragmentMatchBatch(ctx context.Context, frag int, pats []rdf.Ref) ([][]rdf.Ref, error)
}

// exchangeMatch is the exchange operator's scan: the pattern-level
// fan-out/merge every scan strategy (cross, hash, nested_loop) drives
// its probes through when the source is partitioned. A routed scan is a
// batch of one; a fan-out merges into *buf (see execCtx.match).
func (ec *execCtx) exchangeMatch(buf *[]rdf.Ref, s, p, o rdf.Term) ([]rdf.Ref, error) {
	pat := rdf.PatternRef(s, p, o)
	if frag, ok := ec.ex.Route(s, p, o); ok {
		noteExchange("routed")
		answers, err := ec.ex.FragmentMatchBatch(ec.ctx, frag, []rdf.Ref{pat})
		if err != nil || len(answers) == 0 {
			return nil, ec.scanErr("exchange", err)
		}
		return answers[0], nil
	}
	refs, err := ec.exchangeFanout((*buf)[:0], pat)
	*buf = refs
	return refs, err
}

// fragmentBatch is the BatchExchangeSource adapter of an ExchangeSource
// without the batch: it answers each pattern with FragmentMatch, taking
// the triples by reference. A failed pattern fails the batch.
type fragmentBatch struct{ ExchangeSource }

func (f fragmentBatch) FragmentMatchBatch(ctx context.Context, frag int, pats []rdf.Ref) ([][]rdf.Ref, error) {
	answers := make([][]rdf.Ref, len(pats))
	for i, pat := range pats {
		s, p, o := pat.Terms()
		ts, err := f.FragmentMatch(ctx, frag, s, p, o)
		if err != nil {
			return nil, err
		}
		answers[i] = appendTripleRefs(nil, ts)
	}
	return answers, nil
}

// exchangeRows is the exchange operator's scan for a nested-loop join
// step: the answer to the pattern each row resolves to, in row order.
// Rows without a route fan out one by one; the routed patterns are laid
// out grouped by fragment, and each fragment gets one batch, the
// fragments read in parallel. Scans are counted per row, as
// exchangeMatch counts them. A routed pattern points at the row's terms
// and the scan's constants; the pattern list is the call's own: a hedged
// read's losers may still be encoding it.
func (ec *execCtx) exchangeRows(sc *scanOp, rows []row) ([][]rdf.Ref, error) {
	answers := make([][]rdf.Ref, len(rows))
	frags := make([]int, len(rows))           // the row's fragment, -1 when it fanned out
	start := make([]int, ec.ex.Fragments()+1) // fragment f's patterns are pats[start[f]:start[f+1]]
	routed := 0
	for i, r := range rows {
		// Poll without charging: the join step charges these rows as it
		// extends them.
		if err := ec.checkpoint(0); err != nil {
			return nil, err
		}
		s := resolve(sc.sSlot, sc.s, r)
		p := resolve(sc.pSlot, sc.p, r)
		o := resolve(sc.oSlot, sc.o, r)
		frag, ok := ec.ex.Route(s, p, o)
		if !ok {
			frags[i] = -1
			refs, err := ec.exchangeFanout(nil, rdf.PatternRef(s, p, o))
			if err != nil {
				return nil, err
			}
			answers[i] = refs
			continue
		}
		noteExchange("routed")
		frags[i] = frag
		start[frag+1]++
		routed++
	}
	if routed == 0 {
		return answers, nil
	}
	busy := 0 // fragments with patterns
	for f := 1; f < len(start); f++ {
		if start[f] > 0 {
			busy++
		}
		start[f] += start[f-1]
	}
	pats := make([]rdf.Ref, routed)
	owner := make([]int, routed) // pats[j] is rows[owner[j]]'s pattern
	next := append([]int(nil), start[:len(start)-1]...)
	for i, f := range frags {
		if f < 0 {
			continue
		}
		r := rows[i]
		j := next[f]
		next[f]++
		pats[j] = rdf.Ref{S: handle(sc.sSlot, &sc.s, r), P: handle(sc.pSlot, &sc.p, r), O: handle(sc.oSlot, &sc.o, r)}
		owner[j] = i
	}
	errs := make([]error, len(start)-1)
	read := func(f int) {
		lo, hi := start[f], start[f+1]
		got, err := ec.ex.FragmentMatchBatch(ec.ctx, f, pats[lo:hi])
		if err != nil {
			errs[f] = err
			return
		}
		for j := range min(len(got), hi-lo) {
			answers[owner[lo+j]] = got[j]
		}
	}
	var wg sync.WaitGroup
	for f := range errs {
		switch {
		case start[f] == start[f+1]:
		case busy == 1:
			read(f)
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				read(f)
			}()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err := ec.scanErr("exchange", err); err != nil {
			return nil, err
		}
	}
	return answers, nil
}

// handle is a pattern position by reference: nil for an unbound slot.
func handle(slot int, constant *rdf.Term, r row) *rdf.Term {
	if slot < 0 {
		return constant
	}
	return r[slot]
}

// exchangeFanout reads an unrouted pattern from every fragment in
// parallel and appends the answers to dst in canonical (term-key) order.
func (ec *execCtx) exchangeFanout(dst []rdf.Ref, pat rdf.Ref) ([]rdf.Ref, error) {
	n := max(ec.ex.Fragments(), 1)
	noteExchange("fanout")
	parts := make([][]rdf.Ref, n)
	errs := make([]error, n)
	pats := []rdf.Ref{pat}
	var wg sync.WaitGroup
	for frag := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers, err := ec.ex.FragmentMatchBatch(ec.ctx, frag, pats)
			if err == nil && len(answers) > 0 {
				parts[frag] = answers[0]
			}
			errs[frag] = err
		}()
	}
	wg.Wait()
	total, start := 0, len(dst)
	for _, refs := range parts {
		total += len(refs)
	}
	dst = slices.Grow(dst, total)
	for i, refs := range parts {
		if err := ec.scanErr("exchange", errs[i]); err != nil {
			return dst, err
		}
		dst = append(dst, refs...)
	}
	slices.SortFunc(dst[start:], compareRefs)
	return dst, nil
}

// compareRefs orders refs by their terms' keys, subject first.
func compareRefs(a, b rdf.Ref) int {
	return cmp.Or(a.S.Compare(*b.S), a.P.Compare(*b.P), a.O.Compare(*b.O))
}
