package analysis

// dataflow.go is the generic worklist solver the path-sensitive
// checkers run over a CFG. A Problem supplies the lattice (bottom, join,
// equality), the direction, the per-block transfer function, and an
// optional per-edge refinement (used e.g. to model `if err != nil`
// branches). Facts must form a finite-height lattice; the solver also
// carries an iteration cap as a belt-and-braces guard so a buggy
// transfer cannot hang the linter.

// Facts holds the solved dataflow facts at a block boundary: In is the
// fact before the block's transfer (after it, for backward problems) and
// Out the fact after.
type Facts[F any] struct {
	In, Out F
}

// Problem describes one dataflow analysis.
type Problem[F any] struct {
	// Forward selects the direction: forward problems push facts from
	// Entry along edges; backward problems push from Exit against them.
	Forward bool
	// Boundary is the fact at the boundary block (Entry for forward,
	// Exit for backward).
	Boundary F
	// Bottom returns the lattice bottom (the "no information yet" fact
	// joined into unvisited confluence points).
	Bottom func() F
	// Join combines two facts; it must not mutate its arguments.
	Join func(a, b F) F
	// Equal reports fact equality; the fixpoint test.
	Equal func(a, b F) bool
	// Transfer applies one block's effect.
	Transfer func(b *Block, in F) F
	// Edge, when non-nil, refines the fact flowing from `from` along its
	// succIdx-th out-edge (forward problems only). Block.Cond tells the
	// refinement what was branched on: succIdx 0 is the true edge.
	Edge func(from *Block, succIdx int, out F) F
}

// Solve runs the worklist algorithm to fixpoint and returns the facts of
// every reachable block. Unreachable blocks are absent from the result.
func Solve[F any](cfg *CFG, p Problem[F]) map[*Block]*Facts[F] {
	// Orient the graph: fwd edges for forward problems, reversed for
	// backward ones.
	succs := map[*Block][]*Block{}
	edgeIdx := map[[2]*Block]int{} // original succ index, for Edge refinement
	if p.Forward {
		for _, b := range cfg.Blocks {
			succs[b] = b.Succs
			for i, s := range b.Succs {
				if _, ok := edgeIdx[[2]*Block{b, s}]; !ok {
					edgeIdx[[2]*Block{b, s}] = i
				}
			}
		}
	} else {
		for _, b := range cfg.Blocks {
			for _, s := range b.Succs {
				succs[s] = append(succs[s], b)
			}
		}
	}
	preds := map[*Block][]*Block{}
	for _, b := range cfg.Blocks {
		for _, s := range succs[b] {
			preds[s] = append(preds[s], b)
		}
	}
	boundary := cfg.Entry
	if !p.Forward {
		boundary = cfg.Exit
	}

	// Only blocks reachable from the boundary participate.
	reach := map[*Block]bool{}
	stack := []*Block{boundary}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[b] {
			continue
		}
		reach[b] = true
		stack = append(stack, succs[b]...)
	}

	facts := map[*Block]*Facts[F]{}
	for _, b := range cfg.Blocks {
		if reach[b] {
			facts[b] = &Facts[F]{In: p.Bottom(), Out: p.Bottom()}
		}
	}

	inWork := map[*Block]bool{}
	var work []*Block
	for _, b := range cfg.Blocks { // deterministic seed order
		if reach[b] {
			work = append(work, b)
			inWork[b] = true
		}
	}
	push := func(b *Block) {
		if !inWork[b] && reach[b] {
			work = append(work, b)
			inWork[b] = true
		}
	}

	// Cap: |blocks| * lattice-height surrogate. Bitset/map facts
	// stabilize long before this; the cap only guards a buggy transfer.
	maxSteps := 64*len(cfg.Blocks) + 256
	for steps := 0; len(work) > 0 && steps < maxSteps; steps++ {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		f := facts[b]

		in := p.Bottom()
		if b == boundary {
			in = p.Join(in, p.Boundary)
		}
		for _, pr := range preds[b] {
			if facts[pr] == nil {
				continue // predecessor unreachable from the boundary
			}
			pf := facts[pr].Out
			if p.Forward && p.Edge != nil {
				pf = p.Edge(pr, edgeIdx[[2]*Block{pr, b}], pf)
			}
			in = p.Join(in, pf)
		}
		out := p.Transfer(b, in)
		f.In = in
		if p.Equal(out, f.Out) {
			continue
		}
		f.Out = out
		for _, s := range succs[b] {
			push(s)
		}
	}
	return facts
}

// Replay runs transfer once over every solved block, in block order,
// from the block's converged In fact. Checkers that report from inside
// their transfer do it here rather than during Solve: the solver re-runs
// a loop body's transfer each time its input grows, so a finding emitted
// while solving repeats once per iteration (and may rest on a fact that
// had not converged yet).
func Replay[F any](cfg *CFG, facts map[*Block]*Facts[F], transfer func(*Block, F) F) {
	for _, b := range cfg.Blocks {
		if f, ok := facts[b]; ok {
			transfer(b, f.In)
		}
	}
}
