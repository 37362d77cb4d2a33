package sparql

import (
	"slices"

	"applab/internal/geom"
	"applab/internal/geom/rtree"
	"applab/internal/geosparql"
	"applab/internal/rdf"
)

// A FILTER(geof:sfIntersects(?wa, ?wb)) over the cross product of two
// otherwise unconnected pattern groups is a spatial θ-join that the
// per-row filter path evaluates in O(|A|·|B|) exact predicate calls.
// The compiler detects that shape (see compileSpatialUnit) and lowers
// the whole unit to a spatialJoinOp: the build side's WKT column is
// looked up in geosparql's process-wide geometry memo, an envelope index
// prunes candidate pairs, and the exact predicate (geosparql.Relation)
// refines the survivors. Two interchangeable candidate generators, both
// probing an STR-packed R-tree (internal/geom/rtree):
//
//   - "inl":   index nested loop — bulk-load a tree over the build
//     side's envelope column, probe it per probe-side row.
//   - "store": when the build side is the bare `?g geo:asWKT ?w` scan
//     and the source has its own spatial index (strabon.Store's tree,
//     via SpatialSource), probe the store directly and never
//     materialize the build side at all.
//
// Both emit identical rows in identical order (probe rows in input
// order, candidates in build-row order), for any worker count — the
// same determinism contract as hash join — and tick the same
// cancellation checkpoints.

// SpatialSource is an optional extension of Source for backends with
// their own spatial index over geo:asWKT triples. The spatial-join
// operator probes it instead of materializing every geometry when the
// build side of the join is the bare WKT scan.
type SpatialSource interface {
	Source
	// SpatialCandidates returns the geo:asWKT triples whose geometry
	// envelope intersects env, and whether the index is available. Like
	// Match, it returns a slice the caller owns.
	SpatialCandidates(env geom.Envelope) ([]rdf.Triple, bool)
}

// Spatial-join strategies. spatialAuto is the planner's own choice; the
// others exist to be forced in tests (see forced).
const (
	spatialAuto  = "auto"  // store when the source serves it, else inl
	spatialOff   = "off"   // per-row filter path (the seed shape)
	spatialINL   = "inl"   // index nested loop
	spatialStore = "store" // the store's index (falls back to inl)
)

// spatialMode is the strategy the planner runs with: spatialAuto unless
// a test forced another.
func spatialMode() string {
	if f := forced.Load(); f != nil {
		return f.spatial
	}
	return spatialAuto
}

// ---- compile-time detection ----

// spatialFilterArgs recognizes FILTER(geof:rel(?a, ?b)) shapes.
func spatialFilterArgs(e Expr) (iri, a, b string, ok bool) {
	call, isCall := e.(CallExpr)
	if !isCall || len(call.Args) != 2 {
		return "", "", "", false
	}
	av, okA := call.Args[0].(VarExpr)
	bv, okB := call.Args[1].(VarExpr)
	if !okA || !okB || av.Name == bv.Name {
		return "", "", "", false
	}
	return call.IRI, av.Name, bv.Name, true
}

// patternVars lists a pattern's variable positions.
func patternVars(tp TriplePattern) []string {
	var vs []string
	for _, v := range []string{tp.S.Var, tp.P.Var, tp.O.Var} {
		if v != "" {
			vs = append(vs, v)
		}
	}
	return vs
}

// compileSpatialUnit tries to lower a BGP join unit plus its trailing
// FILTER run as a spatial join. On success it appends the unit's ops to
// b and returns true (the caller then skips the filter elements); false
// keeps the ordinary compilation.
//
// The unit splits when one of the filters is a geosparql spatial
// relation over two variables bound by pattern components that share no
// variable (directly or transitively, counting variables bound by
// earlier plan ops as one shared "outer" component): the component of
// one argument becomes the operator's build side, everything else
// compiles as usual and feeds the probe side. Which side builds is
// picked from StatsSource cardinalities (smaller estimated side
// builds); a component reachable from outer bindings must stay on the
// probe side, where the incoming rows are.
func (c *compiler) compileSpatialUnit(b *planBuilder, pats []TriplePattern, filters []Element) bool {
	if spatialMode() == spatialOff || len(pats) < 2 || len(filters) == 0 {
		return false
	}

	// Union-find over patterns; index len(pats) is the virtual "outer"
	// node for variables already bound before this unit.
	parent := make([]int, len(pats)+1)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	outer := len(pats)
	varHome := map[string]int{}
	for pi, tp := range pats {
		for _, v := range patternVars(tp) {
			if c.states[v] != varUnseen {
				union(pi, outer)
				continue
			}
			if home, ok := varHome[v]; ok {
				union(pi, home)
			} else {
				varHome[v] = pi
			}
		}
	}

	// Pick the first splittable spatial filter in the run.
	pick := -1
	var rel func(a, b geom.Geometry) bool
	var va, vb string
	var rootA, rootB int
	for fi, el := range filters {
		f, isFilter := el.(Filter)
		if !isFilter {
			return false
		}
		iri, a, b, ok := spatialFilterArgs(f.Expr)
		if !ok {
			continue
		}
		r, ok := geosparql.Relation(iri)
		if !ok {
			continue
		}
		if c.states[a] != varUnseen || c.states[b] != varUnseen {
			continue
		}
		homeA, okA := varHome[a]
		homeB, okB := varHome[b]
		if !okA || !okB {
			continue
		}
		ra, rb := find(homeA), find(homeB)
		if ra == rb {
			continue
		}
		pick, rel, va, vb, rootA, rootB = fi, r, a, b, ra, rb
		break
	}
	if pick < 0 {
		return false
	}

	// Choose the build side: never the outer-connected component (it
	// needs the incoming rows); otherwise the smaller estimated one.
	outerRoot := find(outer)
	buildRoot := rootB
	swapped := false // true when the build side binds the first argument
	switch {
	case rootB == outerRoot:
		buildRoot, swapped = rootA, true
	case rootA == outerRoot:
		// keep rootB
	default:
		estA, estB := c.componentEstimate(pats, find, rootA), c.componentEstimate(pats, find, rootB)
		if estA >= 0 && (estB < 0 || estA < estB) {
			buildRoot, swapped = rootA, true
		}
	}

	var probePats, buildPats []TriplePattern
	for pi, tp := range pats {
		if find(pi) == buildRoot {
			buildPats = append(buildPats, tp)
		} else {
			probePats = append(probePats, tp)
		}
	}
	if len(buildPats) == 0 || len(probePats) == 0 {
		return false
	}

	c.compileBGP(b, probePats)
	var body planBuilder
	c.compileBGP(&body, buildPats)
	probeVar, buildVar := va, vb
	if swapped {
		probeVar, buildVar = vb, va
	}
	sj := &spatialJoinOp{
		rel:       rel,
		probeSlot: c.vt.slot(probeVar),
		buildSlot: c.vt.slot(buildVar),
		swapped:   swapped,
	}
	// Store-pushdown shape: the build side is exactly the bare
	// `?g geo:asWKT ?w` scan binding the filter's geometry variable.
	if len(body.ops) == 1 {
		if p, ok := body.ops[0].(*pipeOp); ok && len(p.steps) == 1 {
			if sc, ok := p.steps[0].(*scanOp); ok &&
				sc.pSlot < 0 && sc.p.Equal(asWKTTerm) &&
				sc.sSlot >= 0 && sc.oSlot == sj.buildSlot && sc.sSlot != sc.oSlot {
				sj.scan = sc
			}
		}
	}
	// A FILTER over variables one side's patterns all bind runs inside
	// that side, so the join never pairs rows it drops; the rest, and a
	// bare asWKT build side's, which the store strategy serves, run after.
	var after []Expr
	for fi, el := range filters {
		e := el.(Filter).Expr
		switch {
		case fi == pick:
		case boundBy(e, probePats):
			b.step(&filterOp{cond: compileExpr(e, c.vt)})
		case sj.scan == nil && boundBy(e, buildPats):
			body.step(&filterOp{cond: compileExpr(e, c.vt)})
		default:
			after = append(after, e)
		}
	}
	sj.body = body.ops
	b.add(sj)
	for _, e := range after {
		b.step(&filterOp{cond: compileExpr(e, c.vt)})
	}
	return true
}

// boundBy reports whether e has variables and pats bind them all; an Expr
// other than a variable, constant, operator or call is bound by no side.
func boundBy(e Expr, pats []TriplePattern) bool {
	vars := 0
	var walk func(Expr) bool
	walk = func(e Expr) bool {
		switch x := e.(type) {
		case VarExpr:
			vars++
			return slices.ContainsFunc(pats, func(tp TriplePattern) bool { return slices.Contains(patternVars(tp), x.Name) })
		case ConstExpr:
			return true
		case UnaryExpr:
			return walk(x.X)
		case BinaryExpr:
			return walk(x.L) && walk(x.R)
		case CallExpr:
			return !slices.ContainsFunc(x.Args, func(a Expr) bool { return !walk(a) })
		}
		return false
	}
	return walk(e) && vars > 0
}

var asWKTTerm = rdf.NewIRI(rdf.NSGeo + "asWKT")

// componentEstimate sums the constants-only cardinality estimates of a
// component's patterns; negative means unknown.
func (c *compiler) componentEstimate(pats []TriplePattern, find func(int) int, root int) int {
	if c.stats == nil {
		return -1
	}
	est := 0
	for pi, tp := range pats {
		if find(pi) != root {
			continue
		}
		e := c.stats.Cardinality(constOrWildcard(tp.S), constOrWildcard(tp.P), constOrWildcard(tp.O))
		if e < 0 {
			return -1
		}
		est += e
	}
	return est
}

// ---- the operator ----

type spatialJoinOp struct {
	rel  func(a, b geom.Geometry) bool
	body []op // compiled build-side plan, run from an empty seed row

	probeSlot int // WKT slot bound by incoming rows
	buildSlot int // WKT slot bound by the body
	// swapped: the build side binds the predicate's FIRST argument, so
	// exact refinement calls rel(build, probe).
	swapped bool

	// scan is non-nil when the body is the bare geo:asWKT scan — the
	// shape the store-pushdown strategy can serve straight from a
	// SpatialSource index.
	scan *scanOp
}

// mergeRow joins a probe row with a build row. The two sides bind
// disjoint slot sets by construction; the agreement check is a cheap
// guard, mirroring scanOp.extend.
func mergeRow(a, b row, ar *rowArena) (row, bool) {
	nr := ar.clone(a)
	for s, t := range b {
		if t == nil {
			continue
		}
		if cur := nr[s]; cur != nil {
			if !cur.Equal(*t) {
				return nil, false
			}
			continue
		}
		nr[s] = t
	}
	return nr, true
}

func (sj *spatialJoinOp) run(ec *execCtx, in []row) ([]row, error) {
	mode := spatialMode()
	if sj.scan != nil && (mode == spatialAuto || mode == spatialStore) {
		if sp := ec.spatial; sp != nil {
			if _, avail := sp.SpatialCandidates(geom.EmptyEnvelope()); avail {
				return sj.runStore(ec, sp, in)
			}
		}
	}

	// Materialize the build side and look its geometries up once.
	bRows, err := runOps(ec, sj.body, []row{make(row, len(in[0]))})
	if err != nil {
		return nil, err
	}
	if len(bRows) == 0 {
		return nil, nil
	}
	bGeoms := make([]geom.Geometry, len(bRows))
	bEnvs := make([]geom.Envelope, len(bRows))
	n := 0
	for bi, br := range bRows {
		if err := ec.tick(&n); err != nil {
			return nil, err
		}
		bGeoms[bi], bEnvs[bi], _ = geosparql.Decode(br[sj.buildSlot])
	}

	// Undecodable rows have empty envelopes, which the tree leaves out.
	tree := rtree.Bulk(bEnvs)
	noteSpatialJoin(spatialINL)

	return chunkedRange(ec, len(in), func(lo, hi int) ([]row, error) {
		var ar rowArena
		var out []row
		var cand []int32
		probes := 0
		n := 0
		for i := lo; i < hi; i++ {
			if err := ec.tick(&n); err != nil {
				return nil, err
			}
			r := in[i]
			pg, env, ok := geosparql.Decode(r[sj.probeSlot])
			if !ok {
				continue
			}
			probes++
			// Candidates come out in tree order; sort by build-row index
			// so every strategy emits the same rows in the same order.
			cand = tree.Search(env, cand[:0])
			slices.Sort(cand)
			if err := ec.tickN(&n, len(cand)); err != nil {
				return nil, err
			}
			for _, bi := range cand {
				hit := false
				if sj.swapped {
					hit = sj.rel(bGeoms[bi], pg)
				} else {
					hit = sj.rel(pg, bGeoms[bi])
				}
				if !hit {
					continue
				}
				if nr, ok := mergeRow(r, bRows[bi], &ar); ok {
					out = append(out, nr)
				}
			}
		}
		noteSpatialProbes(probes)
		return out, nil
	})
}

// runStore is the store-pushdown strategy: probe the source's own
// spatial index per row and extend rows through the build-side scan
// exactly like a nested-loop match would.
func (sj *spatialJoinOp) runStore(ec *execCtx, sp SpatialSource, in []row) ([]row, error) {
	noteSpatialJoin(spatialStore)
	return chunkedRange(ec, len(in), func(lo, hi int) ([]row, error) {
		var ar rowArena
		var out []row
		scratch := make(row, len(in[0]))
		probes := 0
		n := 0
		for i := lo; i < hi; i++ {
			if err := ec.tick(&n); err != nil {
				return nil, err
			}
			r := in[i]
			pg, env, ok := geosparql.Decode(r[sj.probeSlot])
			if !ok {
				continue
			}
			probes++
			cands, _ := sp.SpatialCandidates(env)
			// The index returns tree order; fix a deterministic emission
			// order (subject, then object, in term-key order).
			slices.SortFunc(cands, func(a, b rdf.Triple) int {
				if c := a.S.Compare(b.S); c != 0 {
					return c
				}
				return a.O.Compare(b.O)
			})
			if err := ec.tickN(&n, len(cands)); err != nil {
				return nil, err
			}
			for ci := range cands {
				t := &cands[ci]
				bgeom, _, ok := geosparql.Decode(&t.O)
				if !ok {
					continue
				}
				hit := false
				if sj.swapped {
					hit = sj.rel(bgeom, pg)
				} else {
					hit = sj.rel(pg, bgeom)
				}
				if !hit {
					continue
				}
				if nr, ok := sj.scan.extend(r, t.Ref(), scratch); ok {
					out = append(out, ar.clone(nr))
				}
			}
		}
		noteSpatialProbes(probes)
		return out, nil
	})
}
