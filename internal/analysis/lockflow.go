package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockflowChecker is the path-sensitive mutex checker built on the CFG +
// dataflow framework. Within each function it proves that every
// sync.Mutex/RWMutex acquired is released on every path out of the
// function (directly or by an armed defer), flags definite double locks
// and read-to-write upgrades, and — across the package — builds a
// lock-order graph (lock A held while lock B is acquired, directly or
// through a same-package call) whose cycles are potential deadlocks.
func lockflowChecker() Checker {
	return Checker{
		Name: "lockflow",
		Doc:  "mutexes must be released on every path; no double locks, upgrades, or lock-order cycles",
		Run:  runLockflow,
	}
}

// Lock-state bits. A key's absence means the lock was never touched on
// the path; an absent key joins as lfUnlocked.
const (
	lfUnlocked uint8 = 1 << iota // may be released / never acquired
	lfWrite                      // may hold the write lock
	lfRead                       // may hold a read lock
	lfDeferW                     // a `defer Unlock` is armed
	lfDeferR                     // a `defer RUnlock` is armed
)

const lfHeld = lfWrite | lfRead

// lockFact maps a lock key (the rendered receiver expression, e.g.
// "s.mu") to its state bits. The valid flag distinguishes the lattice
// bottom (unvisited) from "visited, no locks touched".
type lockFact struct {
	valid bool
	m     map[string]uint8
}

func lfBottom() lockFact { return lockFact{} }

func lfJoin(a, b lockFact) lockFact {
	if !a.valid {
		return b
	}
	if !b.valid {
		return a
	}
	out := lockFact{valid: true, m: map[string]uint8{}}
	for k, av := range a.m {
		bv, ok := b.m[k]
		if !ok {
			bv = lfUnlocked
		}
		out.m[k] = av | bv
	}
	for k, bv := range b.m {
		if _, ok := a.m[k]; !ok {
			out.m[k] = bv | lfUnlocked
		}
	}
	return out
}

func lfEqual(a, b lockFact) bool {
	if a.valid != b.valid || len(a.m) != len(b.m) {
		return false
	}
	for k, av := range a.m {
		if b.m[k] != av {
			return false
		}
	}
	return true
}

func (f lockFact) clone() lockFact {
	out := lockFact{valid: true, m: make(map[string]uint8, len(f.m))}
	for k, v := range f.m {
		out.m[k] = v
	}
	return out
}

// mustHeld reports whether the key is held on every path (locked, and no
// path released it).
func mustHeld(bits uint8) bool { return bits&lfHeld != 0 && bits&lfUnlocked == 0 }

// lockOp classifies one sync call: the lock key and the operation.
type lockOp struct {
	key      string
	op       string // Lock, RLock, Unlock, RUnlock
	deferred bool
	pos      token.Pos
	call     *ast.CallExpr
}

// lockOpsIn extracts the sync lock operations in a CFG node, in source
// order. Function literals are not entered: their bodies run on their
// own schedule and are analyzed separately.
func lockOpsIn(info *types.Info, node ast.Node) []lockOp {
	var out []lockOp
	deferred := false
	if ds, ok := node.(*ast.DeferStmt); ok {
		deferred = true
		node = ds.Call
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if !isPkgFunc(fn, "sync", "Lock", "RLock", "Unlock", "RUnlock") {
			return true
		}
		out = append(out, lockOp{
			key:      types.ExprString(sel.X),
			op:       fn.Name(),
			deferred: deferred,
			pos:      call.Pos(),
			call:     call,
		})
		return true
	})
	return out
}

// lockCanonical renders a lock key that is stable across functions for
// the package lock-order graph: "pkgpath.Type.field" for struct fields,
// "pkgpath.var" for package-level lock variables, "" when the lock
// cannot be canonicalized (locals, complex expressions).
func lockCanonical(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr: // x.mu
		if tv, ok := info.Types[recv.X]; ok && tv.Type != nil {
			if named := derefNamed(tv.Type); named != nil {
				origin := named.Origin()
				if pkg := origin.Obj().Pkg(); pkg != nil {
					return pkg.Path() + "." + origin.Obj().Name() + "." + recv.Sel.Name
				}
			}
		}
	case *ast.Ident: // package-level mutex
		if v, ok := info.Uses[recv].(*types.Var); ok && v.Pkg() != nil && !v.IsField() {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
	}
	return ""
}

// lockOrderEdge is one observed acquisition order: held was locked when
// acquired was taken (directly or through calls).
type lockOrderEdge struct {
	held, acquired string
	pos            token.Pos
	via            string // callee description for summary-derived edges
}

func runLockflow(pass *Pass) []Finding {
	var out []Finding

	summaries := lockSummaries(pass)
	var edges []lockOrderEdge

	for _, file := range pass.Files {
		for _, fb := range collectFuncBodies(file) {
			out = append(out, lockflowFunc(pass, fb, summaries, &edges)...)
		}
	}

	out = append(out, lockCycleFindings(pass, edges)...)
	return out
}

// lockflowFunc runs the per-function dataflow and collects lock-order
// edges while it is at it.
func lockflowFunc(pass *Pass, fb funcBody, summaries map[*types.Func]map[string]bool, edges *[]lockOrderEdge) []Finding {
	// Quick reject: no lock ops anywhere in the body.
	hasOps := false
	ast.Inspect(fb.body, func(n ast.Node) bool {
		if hasOps {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			fn := calleeFunc(pass.Info, call)
			if isPkgFunc(fn, "sync", "Lock", "RLock", "Unlock", "RUnlock") {
				hasOps = true
			}
		}
		return true
	})
	if !hasOps {
		return nil
	}

	cfg := BuildCFG(pass.Info, fb.body)
	var out []Finding

	// First lock site per key, for exit-leak messages.
	firstLock := map[string]lockOp{}
	for _, blk := range cfg.Blocks {
		for _, node := range blk.Nodes {
			for _, op := range lockOpsIn(pass.Info, node) {
				if op.deferred || (op.op != "Lock" && op.op != "RLock") {
					continue
				}
				if _, ok := firstLock[op.key]; !ok {
					firstLock[op.key] = op
				}
			}
		}
	}

	// canonOf caches per-key canonical names (from the first lock site).
	canonOf := func(op lockOp) string { return lockCanonical(pass.Info, op.call) }

	// acquire reports what taking op's lock in state f means: a definite
	// double lock or read-to-write upgrade, and a lock-order edge from
	// every other key held on every path.
	acquire := func(op lockOp, f lockFact) {
		bits := f.m[op.key]
		switch {
		case !mustHeld(bits):
		case bits&lfWrite != 0 && op.op == "Lock":
			out = append(out, pass.finding(op.pos, "lockflow",
				"%s is already write-locked on every path reaching this Lock; this deadlocks", op.key))
		case bits&lfWrite != 0:
			out = append(out, pass.finding(op.pos, "lockflow",
				"%s is write-locked on every path reaching this RLock; this deadlocks", op.key))
		case bits&lfRead != 0 && op.op == "Lock":
			out = append(out, pass.finding(op.pos, "lockflow",
				"%s is read-locked on every path reaching this Lock; a read-to-write upgrade deadlocks", op.key))
		}
		acq := canonOf(op)
		if acq == "" {
			return
		}
		for key, held := range f.m {
			if key != op.key && mustHeld(held) {
				if hc, ok := firstLock[key]; ok {
					if heldCanon := canonOf(hc); heldCanon != "" && heldCanon != acq {
						*edges = append(*edges, lockOrderEdge{held: heldCanon, acquired: acq, pos: op.pos})
					}
				}
			}
		}
	}

	// Findings and lock-order edges are recorded only by the Replay over
	// the converged facts, so each site reports once.
	report := false
	transfer := func(blk *Block, in lockFact) lockFact {
		f := in
		if !f.valid {
			f = lockFact{valid: true, m: map[string]uint8{}}
		} else {
			f = f.clone()
		}
		for _, node := range blk.Nodes {
			// Same-package calls: lock-order edges via callee summaries.
			for _, callee := range packageCalls(pass.Info, node) {
				acq := summaries[callee.fn]
				if !report || len(acq) == 0 {
					continue
				}
				for key, bits := range f.m {
					if !mustHeld(bits) {
						continue
					}
					heldCanon := ""
					if op, ok := firstLock[key]; ok {
						heldCanon = canonOf(op)
					}
					if heldCanon == "" {
						continue
					}
					for a := range acq {
						*edges = append(*edges, lockOrderEdge{
							held: heldCanon, acquired: a, pos: callee.pos,
							via: callee.fn.Name(),
						})
					}
				}
			}
			for _, op := range lockOpsIn(pass.Info, node) {
				bits := f.m[op.key]
				switch {
				case op.deferred && op.op == "Unlock":
					f.m[op.key] = bits | lfDeferW
				case op.deferred && op.op == "RUnlock":
					f.m[op.key] = bits | lfDeferR
				case op.deferred:
					// defer Lock: pathological; ignore.
				case op.op == "Lock":
					if report {
						acquire(op, f)
					}
					f.m[op.key] = lfWrite | bits&(lfDeferW|lfDeferR)
				case op.op == "RLock":
					if report {
						acquire(op, f)
					}
					f.m[op.key] = lfRead | bits&(lfDeferW|lfDeferR)
				case op.op == "Unlock":
					f.m[op.key] = lfUnlocked | bits&(lfDeferW|lfDeferR)
				case op.op == "RUnlock":
					f.m[op.key] = lfUnlocked | bits&(lfDeferW|lfDeferR)
				}
			}
		}
		return f
	}

	facts := Solve(cfg, Problem[lockFact]{
		Forward:  true,
		Boundary: lockFact{valid: true, m: map[string]uint8{}},
		Bottom:   lfBottom,
		Join:     lfJoin,
		Equal:    lfEqual,
		Transfer: transfer,
	})
	report = true
	Replay(cfg, facts, transfer)

	if exit, ok := facts[cfg.Exit]; ok && exit.In.valid {
		keys := make([]string, 0, len(exit.In.m))
		for k := range exit.In.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bits := exit.In.m[k]
			leakW := bits&lfWrite != 0 && bits&lfDeferW == 0
			leakR := bits&lfRead != 0 && bits&lfDeferR == 0
			if !leakW && !leakR {
				continue
			}
			op, ok := firstLock[k]
			if !ok {
				continue
			}
			kind := "write-locked"
			if !leakW {
				kind = "read-locked"
			}
			out = append(out, pass.finding(op.pos, "lockflow",
				"%s may still be %s when the function returns; unlock it on every path or defer the unlock", k, kind))
		}
	}
	return out
}

// packageCall is a static call to a function declared in this package.
type packageCall struct {
	fn  *types.Func
	pos token.Pos
}

func packageCalls(info *types.Info, node ast.Node) []packageCall {
	var out []packageCall
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn != nil && fn.Pkg() != nil {
			out = append(out, packageCall{fn: fn, pos: call.Pos()})
		}
		return true
	})
	return out
}

// lockSummaries computes, for every function declared in the package,
// the set of canonical lock keys it may acquire — directly or through
// same-package calls (transitive closure).
func lockSummaries(pass *Pass) map[*types.Func]map[string]bool {
	if pass.Pkg == nil {
		return nil
	}
	direct := map[*types.Func]map[string]bool{}
	calls := map[*types.Func][]*types.Func{}
	var fns []*types.Func

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			fns = append(fns, fn)
			acq := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pass.Info, call)
				if isPkgFunc(callee, "sync", "Lock", "RLock") {
					if c := lockCanonical(pass.Info, call); c != "" {
						acq[c] = true
					}
					return true
				}
				if callee != nil && callee.Pkg() == pass.Pkg {
					calls[fn] = append(calls[fn], callee)
				}
				return true
			})
			direct[fn] = acq
		}
	}

	// Transitive closure over the same-package call graph.
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			for _, callee := range calls[fn] {
				for k := range direct[callee] {
					if !direct[fn][k] {
						direct[fn][k] = true
						changed = true
					}
				}
			}
		}
	}
	return direct
}

// lockCycleFindings detects cycles in the package's lock-order graph.
// Every cycle (including self-edges: lock A held while a call re-locks
// A) is a potential deadlock and reported once.
func lockCycleFindings(pass *Pass, edges []lockOrderEdge) []Finding {
	if len(edges) == 0 {
		return nil
	}
	adj := map[string]map[string]lockOrderEdge{}
	for _, e := range edges {
		if adj[e.held] == nil {
			adj[e.held] = map[string]lockOrderEdge{}
		}
		if old, ok := adj[e.held][e.acquired]; !ok || e.pos < old.pos {
			adj[e.held][e.acquired] = e
		}
	}
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	var out []Finding
	seen := map[string]bool{}

	// Self-edges first: held A, re-acquire A.
	for _, n := range nodes {
		if e, ok := adj[n][n]; ok {
			key := n + "->" + n
			if !seen[key] {
				seen[key] = true
				msg := fmt.Sprintf("%s is acquired while already held", short(n))
				if e.via != "" {
					msg = fmt.Sprintf("%s is held while calling %s, which acquires %s again", short(n), e.via, short(n))
				}
				out = append(out, pass.finding(e.pos, "lockflow", msg+" — potential self-deadlock"))
			}
		}
	}

	// Cycles of length >= 2: DFS from each node in sorted order.
	for _, start := range nodes {
		var path []string
		onPath := map[string]bool{}
		var dfs func(n string) bool
		dfs = func(n string) bool {
			path = append(path, n)
			onPath[n] = true
			targets := make([]string, 0, len(adj[n]))
			for t := range adj[n] {
				targets = append(targets, t)
			}
			sort.Strings(targets)
			for _, t := range targets {
				if t == n {
					continue
				}
				if t == start && len(path) >= 2 {
					// Canonical form: rotate so the smallest node leads;
					// report only from the smallest start to dedupe.
					if start == smallest(path) {
						key := strings.Join(path, "->") + "->" + start
						if !seen[key] {
							seen[key] = true
							e := adj[n][t]
							cycle := append(append([]string{}, path...), start)
							for i := range cycle {
								cycle[i] = short(cycle[i])
							}
							out = append(out, pass.finding(e.pos, "lockflow",
								fmt.Sprintf("lock-order cycle %s — potential deadlock; acquire these locks in one consistent order",
									strings.Join(cycle, " -> "))))
						}
					}
					continue
				}
				if !onPath[t] && len(path) < 8 {
					if dfs(t) {
						return true
					}
				}
			}
			path = path[:len(path)-1]
			delete(onPath, n)
			return false
		}
		dfs(start)
	}
	SortFindings(out)
	return out
}

func smallest(path []string) string {
	s := path[0]
	for _, p := range path[1:] {
		if p < s {
			s = p
		}
	}
	return s
}

// short trims the package path from a canonical lock key for messages:
// "applab/internal/strabon.Store.mu" -> "strabon.Store.mu".
func short(canon string) string {
	if i := strings.LastIndex(canon, "/"); i >= 0 {
		return canon[i+1:]
	}
	return canon
}
