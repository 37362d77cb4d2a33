package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// cfg.go builds an intraprocedural control-flow graph over go/ast: the
// foundation of the path-sensitive ctxflow checker. The builder handles
// if/else, for, range, switch, type switch, select, labeled statements,
// break/continue (labeled and not), goto, fallthrough, return, and
// terminal calls (panic, os.Exit, log.Fatal*). Defer statements appear as
// ordinary nodes in their block.
//
// Blocks and successor lists are in deterministic construction order, so
// the analysis (and therefore its findings) is stable across runs.

// Block is one basic block: a maximal straight-line sequence of
// statements and condition expressions.
type Block struct {
	Index int
	// Nodes holds statements and control expressions in execution
	// order. Condition expressions of if/for appear as the last node of
	// their block.
	Nodes []ast.Node
	// Succs are the successor blocks. A block ending in an if or loop
	// condition has two: Succs[0] is the true edge, Succs[1] the false
	// edge.
	Succs []*Block
}

// Loop records one for/range loop's blocks: Head is the
// condition/iteration block (the back-edge target), Body the first block
// of the loop body, After the block control reaches on normal loop exit.
type Loop struct {
	Stmt  ast.Stmt // *ast.ForStmt or *ast.RangeStmt
	Head  *Block
	Body  *Block
	After *Block
}

// CFG is the control-flow graph of one function body. Exit is a single
// synthetic block that every return statement (and the fall-off-the-end
// path) edges to; terminal calls (panic, os.Exit) edge nowhere.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	Loops  []Loop
}

// BuildCFG constructs the CFG of a function body. info may be nil; it is
// used only to recognize terminal calls precisely.
func BuildCFG(info *types.Info, body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:          &CFG{},
		info:         info,
		labels:       map[string]*Block{},
		pendingGotos: map[string][]*Block{},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	b.edge(b.cur, b.cfg.Exit) // fall off the end
	// Unresolved gotos (labels that never appear — type error) dangle.
	return b.cfg
}

type loopFrame struct {
	label     string
	cont, brk *Block // cont == nil for switch/select frames
}

type cfgBuilder struct {
	cfg    *CFG
	info   *types.Info
	cur    *Block
	frames []loopFrame

	labels       map[string]*Block
	pendingGotos map[string][]*Block

	// nextLabel is set by a LabeledStmt so the labeled loop/switch
	// registers its break/continue targets under that name.
	nextLabel string

	// sawFallthrough is set when a clause body ends in fallthrough.
	sawFallthrough bool
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// seal ends the current path: subsequent statements are unreachable and
// collect in a fresh, predecessor-less block.
func (b *cfgBuilder) seal() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	label := b.nextLabel
	b.nextLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isTerminalCall(b.info, call) {
			b.seal()
		}
	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.edge(b.cur, b.cfg.Exit)
		b.seal()
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Tag)
		}
		b.switchClauses(s.Body, label)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Assign)
		b.switchClauses(s.Body, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.LabeledStmt:
		// The label block is both the goto target and the entry of the
		// labeled statement.
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		b.labels[s.Label.Name] = target
		for _, from := range b.pendingGotos[s.Label.Name] {
			b.edge(from, target)
		}
		delete(b.pendingGotos, s.Label.Name)
		b.nextLabel = s.Label.Name
		b.stmt(s.Stmt)
	case *ast.BranchStmt:
		b.branchStmt(s)
	default:
		// Assign, Decl, IncDec, Send, Go, Defer, Empty, Bad: straight
		// line.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	cond := b.cur
	cond.Nodes = append(cond.Nodes, s.Cond)

	then := b.newBlock()
	b.edge(cond, then)
	b.cur = then
	b.stmt(s.Body)
	thenEnd := b.cur

	after := b.newBlock()
	if s.Else != nil {
		els := b.newBlock()
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		b.edge(b.cur, after)
	} else {
		b.edge(cond, after)
	}
	b.edge(thenEnd, after)
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock()
	b.edge(b.cur, head)
	body := b.newBlock()
	after := b.newBlock()
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
		head.Succs = []*Block{body, after}
	} else {
		head.Succs = []*Block{body}
	}
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		cont = post
	}
	b.frames = append(b.frames, loopFrame{label: label, cont: cont, brk: after})
	b.cur = body
	b.stmt(s.Body)
	b.edge(b.cur, cont)
	if post != nil {
		b.cur = post
		b.stmt(s.Post)
		b.edge(b.cur, head)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cfg.Loops = append(b.cfg.Loops, Loop{Stmt: s, Head: head, Body: body, After: after})
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock()
	b.edge(b.cur, head)
	// The ranged expression (and per-iteration key/value binding) lives
	// in the head, the block every iteration passes.
	head.Nodes = append(head.Nodes, s.X)
	body := b.newBlock()
	after := b.newBlock()
	head.Succs = []*Block{body, after}
	b.frames = append(b.frames, loopFrame{label: label, cont: head, brk: after})
	b.cur = body
	b.stmt(s.Body)
	b.edge(b.cur, head)
	b.frames = b.frames[:len(b.frames)-1]
	b.cfg.Loops = append(b.cfg.Loops, Loop{Stmt: s, Head: head, Body: body, After: after})
	b.cur = after
}

// switchClauses lowers the shared clause structure of switch and type
// switch. Every clause is entered from the head; fallthrough chains a
// clause's end into the next clause's body.
func (b *cfgBuilder) switchClauses(body *ast.BlockStmt, label string) {
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, brk: after})

	var clauses []*ast.CaseClause
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.cur.Nodes = append(b.cur.Nodes, e)
		}
		b.sawFallthrough = false
		b.stmtList(cc.Body)
		if b.sawFallthrough && i+1 < len(clauses) {
			b.edge(b.cur, blocks[i+1])
			b.sawFallthrough = false
		} else {
			b.edge(b.cur, after)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, brk: after})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		cb := b.newBlock()
		b.edge(head, cb)
		b.cur = cb
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if s.Label == nil || f.label == s.Label.Name {
				b.edge(b.cur, f.brk)
				break
			}
		}
		b.seal()
	case "continue":
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.cont == nil {
				continue // switch/select frames are not continue targets
			}
			if s.Label == nil || f.label == s.Label.Name {
				b.edge(b.cur, f.cont)
				break
			}
		}
		b.seal()
	case "goto":
		if s.Label != nil {
			if target, ok := b.labels[s.Label.Name]; ok {
				b.edge(b.cur, target)
			} else {
				b.pendingGotos[s.Label.Name] = append(b.pendingGotos[s.Label.Name], b.cur)
			}
		}
		b.seal()
	case "fallthrough":
		b.sawFallthrough = true
	}
}

// isTerminalCall reports whether the call never returns: the panic
// builtin, os.Exit, runtime.Goexit, or the log.Fatal family.
func isTerminalCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if info == nil {
			return true
		}
		_, isBuiltin := info.Uses[id].(*types.Builtin)
		return isBuiltin
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		return strings.HasPrefix(fn.Name(), "Fatal")
	}
	return false
}

// String renders the CFG for tests and debugging: one line per block in
// index order, listing node kinds and successor indices.
func (c *CFG) String() string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "b%d", blk.Index)
		switch blk {
		case c.Entry:
			sb.WriteString("(entry)")
		case c.Exit:
			sb.WriteString("(exit)")
		}
		sb.WriteString(":")
		for _, n := range blk.Nodes {
			fmt.Fprintf(&sb, " %s", nodeKind(n))
		}
		sb.WriteString(" ->")
		for _, s := range blk.Succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func nodeKind(n ast.Node) string {
	s := fmt.Sprintf("%T", n)
	s = strings.TrimPrefix(s, "*ast.")
	return s
}

// funcBody is one function body (a declaration's or a literal's) with
// its enclosing declaration.
type funcBody struct {
	decl *ast.FuncDecl // nil for literals outside any decl (var init)
	lit  *ast.FuncLit  // nil for the declaration body itself
	body *ast.BlockStmt
}

// collectFuncBodies yields every function body of a file in source order.
func collectFuncBodies(file *ast.File) []funcBody {
	var out []funcBody
	for _, decl := range file.Decls {
		fd, _ := decl.(*ast.FuncDecl)
		var outer *ast.FuncDecl
		if fd != nil {
			outer = fd
			if fd.Body != nil {
				out = append(out, funcBody{decl: fd, body: fd.Body})
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, funcBody{decl: outer, lit: lit, body: lit.Body})
			}
			return true
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].body.Pos() < out[j].body.Pos() })
	return out
}
