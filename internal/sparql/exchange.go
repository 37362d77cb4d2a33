package sparql

import (
	"context"
	"slices"

	"applab/internal/admission"
	"applab/internal/rdf"
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

// exchangeMatch is the exchange operator's scan: the pattern-level
// fan-out/merge every scan strategy (cross, hash, nested_loop) drives
// its probes through when the source is partitioned.
func (ec *execCtx) exchangeMatch(s, p, o rdf.Term) ([]rdf.Triple, error) {
	ex := ec.ex
	if frag, ok := ex.Route(s, p, o); ok {
		noteExchange("routed")
		ts, err := ex.FragmentMatch(ec.ctx, frag, s, p, o)
		return ts, ec.exchangeErr(err)
	}
	n := ex.Fragments()
	noteExchange("fanout")
	if n <= 1 {
		ts, err := ex.FragmentMatch(ec.ctx, 0, s, p, o)
		if err != nil {
			return nil, ec.exchangeErr(err)
		}
		return mergeFragments([][]rdf.Triple{ts}), nil
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
		if err != nil {
			if aerr := ec.exchangeErr(err); aerr != nil {
				return nil, aerr
			}
		}
	}
	return mergeFragments(parts), nil
}

// exchangeErr maps a fragment error onto the engine's abort rule: only
// cancellation and budget violations abort (with the structured budget
// error preferred); anything else degrades to an empty contribution.
func (ec *execCtx) exchangeErr(err error) error {
	if err == nil || !admission.Aborted(err) {
		return nil
	}
	if ec.budget != nil {
		if berr := ec.budget.Err(); berr != nil {
			return berr
		}
	}
	return err
}

// mergeFragments concatenates per-fragment streams into one canonically
// ordered, duplicate-free stream. Placement sends each triple to one
// fragment, so duplicates only appear when fragments overlap (replica
// answers that raced a move); they sort next to each other (terms plus
// valid time are the merge identity) and are dropped there, which keeps
// the merged stream set-identical to a single store's answer.
func mergeFragments(parts [][]rdf.Triple) []rdf.Triple {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]rdf.Triple, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.SortFunc(out, func(a, b rdf.Triple) int { return a.Compare(&b) })
	return slices.CompactFunc(out, func(a, b rdf.Triple) bool { return a.Compare(&b) == 0 })
}
