package sparql

import (
	"context"
	"sync"

	"applab/internal/rdf"
	"applab/internal/scatter"
)

// ExchangeSource is implemented by partitioned sources — the cluster
// coordinator — that can answer a pattern per data fragment (replica
// group / shard). The compiled planner routes every BGP pattern scan
// through the exchange operator for such a source: a pattern whose
// placement is provable (bound subject under subject-hash placement)
// goes to its single owning fragment, anything else fans out to every
// fragment in parallel and the partial streams are merged back into
// canonical (term-key) order with duplicates suppressed.
//
// Error semantics follow Source/ErrorSource: a fragment failure reads
// as an empty contribution (the source itself tracks partiality — see
// cluster.Coordinator), except cancellation/budget violations
// (admission.Aborted), which abort the query.
type ExchangeSource interface {
	Source
	// Fragments reports the fragment count (stable per evaluation).
	Fragments() int
	// Route returns the single fragment that holds every possible match
	// of the pattern, when placement can prove one.
	Route(s, p, o rdf.Term) (frag int, ok bool)
	// FragmentMatch answers the pattern from one fragment.
	FragmentMatch(ctx context.Context, frag int, s, p, o rdf.Term) ([]rdf.Triple, error)
}

// BatchExchangeSource is implemented by partitioned sources that can
// answer many patterns of one fragment in one read — the cluster
// coordinator sends the replica group one request. A nested-loop join
// step over such a source resolves every row's pattern first, reads
// each fragment's routed patterns as one batch, the fragments in
// parallel, and extends each row from its own pattern's answer; rows
// whose pattern has no route fan out one by one as before. Errors
// follow FragmentMatch.
type BatchExchangeSource interface {
	ExchangeSource
	// FragmentMatchBatch answers every pattern from one fragment, one
	// answer per pattern, in pattern order.
	FragmentMatchBatch(ctx context.Context, frag int, pats []rdf.Pattern) ([][]rdf.Triple, error)
}

// exchangeMatch is the exchange operator's scan: the pattern-level
// fan-out/merge every scan strategy (cross, hash, nested_loop) drives
// its probes through when the source is partitioned.
func (ec *execCtx) exchangeMatch(s, p, o rdf.Term) ([]rdf.Triple, error) {
	if frag, ok := ec.ex.Route(s, p, o); ok {
		noteExchange("routed")
		ts, err := ec.ex.FragmentMatch(ec.ctx, frag, s, p, o)
		return ts, ec.scanErr("exchange", err)
	}
	return ec.exchangeFanout(s, p, o)
}

// exchangeRows is the exchange operator's scan for a nested-loop join
// step over a BatchExchangeSource: the answer to the pattern each row
// resolves to, in row order. Rows without a route fan out one by one;
// the routed patterns are laid out grouped by fragment, and each
// fragment gets one batch, the fragments read in parallel. Scans are
// counted per row, as exchangeMatch counts them.
func (ec *execCtx) exchangeRows(sc *scanOp, rows []row) ([][]rdf.Triple, error) {
	answers := make([][]rdf.Triple, len(rows))
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
			ts, err := ec.exchangeFanout(s, p, o)
			if err != nil {
				return nil, err
			}
			answers[i] = ts
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
	pats := make([]rdf.Pattern, routed)
	owner := make([]int, routed) // pats[j] is rows[owner[j]]'s pattern
	next := append([]int(nil), start[:len(start)-1]...)
	for i, f := range frags {
		if f < 0 {
			continue
		}
		r := rows[i]
		j := next[f]
		next[f]++
		pats[j] = rdf.Pattern{S: resolve(sc.sSlot, sc.s, r), P: resolve(sc.pSlot, sc.p, r), O: resolve(sc.oSlot, sc.o, r)}
		owner[j] = i
	}
	errs := make([]error, len(start)-1)
	read := func(f int) {
		lo, hi := start[f], start[f+1]
		got, err := ec.bx.FragmentMatchBatch(ec.ctx, f, pats[lo:hi])
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

// exchangeFanout reads an unrouted pattern from every fragment in
// parallel and merges the partial streams.
func (ec *execCtx) exchangeFanout(s, p, o rdf.Term) ([]rdf.Triple, error) {
	ex := ec.ex
	n := ex.Fragments()
	noteExchange("fanout")
	if n <= 1 {
		ts, err := ex.FragmentMatch(ec.ctx, 0, s, p, o)
		if err != nil {
			return nil, ec.scanErr("exchange", err)
		}
		return scatter.Merge([][]rdf.Triple{ts}), nil
	}
	parts := make([][]rdf.Triple, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(frag int) {
			parts[frag], errs[frag] = ex.FragmentMatch(ec.ctx, frag, s, p, o)
			done <- frag
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for _, err := range errs {
		if err := ec.scanErr("exchange", err); err != nil {
			return nil, err
		}
	}
	return scatter.Merge(parts), nil
}
