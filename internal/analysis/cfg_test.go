package analysis

import (
	"strings"
	"testing"
)

// cfgLoader has its own file set so white-box CFG tests don't interfere
// with the shared external-test loader.
var cfgLoader = NewLoader()

// buildFixtureCFG type-checks src (a fixture package declaring func f)
// and builds the CFG of the first function body in the file.
func buildFixtureCFG(t *testing.T, src string) *CFG {
	t.Helper()
	pass, err := cfgLoader.CheckSource("applab/internal/cfgfixture", src)
	if err != nil {
		t.Fatalf("fixture does not type-check: %v", err)
	}
	bodies := collectFuncBodies(pass.Files[0])
	if len(bodies) == 0 {
		t.Fatal("no function bodies in fixture")
	}
	return BuildCFG(pass.Info, bodies[0].body)
}

// TestCFGShapes pins the rendered block structure of each control
// construct the builder lowers. The golden strings double as
// documentation of the lowering.
func TestCFGShapes(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "straight line",
			src: `package cfgfixture
func f() int {
	x := 1
	x++
	return x
}
`,
			want: `b0(entry): AssignStmt IncDecStmt ReturnStmt -> b1
b1(exit): ->
b2: -> b1
`,
		},
		{
			name: "if without else",
			src: `package cfgfixture
func f(c bool) int {
	x := 0
	if c {
		x = 1
	}
	return x
}
`,
			// b0 ends in the condition; true edge first, then the skip
			// edge to the join block.
			want: `b0(entry): AssignStmt Ident -> b2 b3
b1(exit): ->
b2: AssignStmt -> b3
b3: ReturnStmt -> b1
b4: -> b1
`,
		},
		{
			name: "if with else",
			src: `package cfgfixture
func f(c bool) int {
	if c {
		return 1
	} else {
		return 2
	}
}
`,
			want: `b0(entry): Ident -> b2 b5
b1(exit): ->
b2: ReturnStmt -> b1
b3: -> b4
b4: -> b1
b5: ReturnStmt -> b1
b6: -> b4
`,
		},
		{
			name: "for with cond and post",
			src: `package cfgfixture
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}
`,
			// b2 is the head (cond), b3 the body, b4 the after block, b5
			// the post block looping back to the head.
			want: `b0(entry): AssignStmt AssignStmt -> b2
b1(exit): ->
b2: BinaryExpr -> b3 b4
b3: AssignStmt -> b5
b4: ReturnStmt -> b1
b5: IncDecStmt -> b2
b6: -> b1
`,
		},
		{
			name: "range loop",
			src: `package cfgfixture
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
`,
			want: `b0(entry): AssignStmt -> b2
b1(exit): ->
b2: Ident -> b3 b4
b3: AssignStmt -> b2
b4: ReturnStmt -> b1
b5: -> b1
`,
		},
		{
			name: "switch with default and fallthrough",
			src: `package cfgfixture
func f(n int) int {
	x := 0
	switch n {
	case 0:
		x = 1
		fallthrough
	case 1:
		x = 2
	default:
		x = 3
	}
	return x
}
`,
			// The fallthrough clause edges into the next clause body
			// instead of the after block; a default clause removes the
			// head's direct edge to after.
			want: `b0(entry): AssignStmt Ident -> b3 b4 b5
b1(exit): ->
b2: ReturnStmt -> b1
b3: BasicLit AssignStmt -> b4
b4: BasicLit AssignStmt -> b2
b5: AssignStmt -> b2
b6: -> b1
`,
		},
		{
			name: "type switch",
			src: `package cfgfixture
func f(v any) int {
	switch v.(type) {
	case int:
		return 1
	case string:
		return 2
	}
	return 0
}
`,
			want: `b0(entry): ExprStmt -> b3 b4 b2
b1(exit): ->
b2: ReturnStmt -> b1
b3: Ident ReturnStmt -> b1
b4: Ident ReturnStmt -> b1
b5: -> b2
b6: -> b2
b7: -> b1
`,
		},
		{
			name: "select",
			src: `package cfgfixture
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case <-b:
	}
	return 0
}
`,
			want: `b0(entry): -> b3 b5
b1(exit): ->
b2: ReturnStmt -> b1
b3: AssignStmt ReturnStmt -> b1
b4: -> b2
b5: ExprStmt -> b2
b6: -> b1
`,
		},
		{
			name: "terminal panic seals the path",
			src: `package cfgfixture
func f(c bool) int {
	if !c {
		panic("no")
	}
	return 1
}
`,
			// The panic block has no successors; the unreachable
			// trailing block (b4 here) is predecessor-less.
			want: `b0(entry): UnaryExpr -> b2 b4
b1(exit): ->
b2: ExprStmt ->
b3: -> b4
b4: ReturnStmt -> b1
b5: -> b1
`,
		},
		{
			name: "goto backward",
			src: `package cfgfixture
func f(n int) int {
loop:
	n--
	if n > 0 {
		goto loop
	}
	return n
}
`,
			want: `b0(entry): -> b2
b1(exit): ->
b2: IncDecStmt BinaryExpr -> b3 b5
b3: -> b2
b4: -> b5
b5: ReturnStmt -> b1
b6: -> b1
`,
		},
		{
			name: "labeled break",
			src: `package cfgfixture
func f(xs []int) int {
outer:
	for range xs {
		for range xs {
			break outer
		}
	}
	return 0
}
`,
			// break outer must edge to the outer loop's after block, not
			// the inner loop's.
			want: `b0(entry): -> b2
b1(exit): ->
b2: -> b3
b3: Ident -> b4 b5
b4: -> b6
b5: ReturnStmt -> b1
b6: Ident -> b7 b8
b7: -> b5
b8: -> b3
b9: -> b6
b10: -> b1
`,
		},
		{
			name: "continue",
			src: `package cfgfixture
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		if x < 0 {
			continue
		}
		s += x
	}
	return s
}
`,
			want: `b0(entry): AssignStmt -> b2
b1(exit): ->
b2: Ident -> b3 b4
b3: BinaryExpr -> b5 b7
b4: ReturnStmt -> b1
b5: -> b2
b6: -> b7
b7: AssignStmt -> b2
b8: -> b1
`,
		},
		{
			name: "defer is an ordinary node",
			src: `package cfgfixture
func f() int {
	defer f2()
	return 1
}
func f2() {}
`,
			want: `b0(entry): DeferStmt ReturnStmt -> b1
b1(exit): ->
b2: -> b1
`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := buildFixtureCFG(t, c.src)
			if got := cfg.String(); got != c.want {
				t.Errorf("CFG mismatch\n got:\n%s\nwant:\n%s", got, c.want)
			}
		})
	}
}

// TestCFGLoops checks the loop metadata ctxflow consumes.
func TestCFGLoops(t *testing.T) {
	cfg := buildFixtureCFG(t, `package cfgfixture
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		for i := 0; i < x; i++ {
			s++
		}
	}
	return s
}
`)
	if len(cfg.Loops) != 2 {
		t.Fatalf("want 2 loops, got %d", len(cfg.Loops))
	}
	for _, lp := range cfg.Loops {
		if lp.Head == nil || lp.Body == nil || lp.After == nil {
			t.Errorf("loop %T has nil blocks: %+v", lp.Stmt, lp)
		}
		// The head must reach the body, and some block in the body
		// region must edge back to the head.
		foundBody := false
		for _, s := range lp.Head.Succs {
			if s == lp.Body {
				foundBody = true
			}
		}
		if !foundBody {
			t.Errorf("loop head b%d does not edge to body b%d", lp.Head.Index, lp.Body.Index)
		}
	}
}

// reachable returns the set of blocks reachable from the entry.
func reachable(cfg *CFG) map[*Block]bool {
	seen := map[*Block]bool{}
	stack := []*Block{cfg.Entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[blk] {
			continue
		}
		seen[blk] = true
		stack = append(stack, blk.Succs...)
	}
	return seen
}

// TestCFGPredsReachable checks which of the exit's predecessors a path
// reaches: a panic seals its path.
func TestCFGPredsReachable(t *testing.T) {
	cfg := buildFixtureCFG(t, `package cfgfixture
func f(c bool) int {
	if c {
		return 1
	}
	panic("no")
}
`)
	reach := reachable(cfg)
	// Of the exit's predecessors only the return block is reachable; the
	// sealed fall-off block also edges there but no path reaches it.
	live := 0
	for _, p := range cfg.Blocks {
		for _, s := range p.Succs {
			if s == cfg.Exit && reach[p] {
				live++
			}
		}
	}
	if live != 1 {
		t.Errorf("exit should have exactly the return as live predecessor, got %d", live)
	}
	if !reach[cfg.Entry] || !reach[cfg.Exit] {
		t.Error("entry and exit must be reachable")
	}
	// The block after the panic (fall-off path) is sealed: unreachable.
	unreachable := 0
	for _, b := range cfg.Blocks {
		if !reach[b] {
			unreachable++
		}
	}
	if unreachable == 0 {
		t.Error("expected at least one unreachable block after panic")
	}
}

// TestTerminalCalls pins which callees seal a path.
func TestTerminalCalls(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		terminal bool
	}{
		{
			name: "os.Exit",
			src: `package cfgfixture
import "os"
func f() { os.Exit(1) }
`,
			terminal: true,
		},
		{
			name: "log.Fatalf",
			src: `package cfgfixture
import "log"
func f() { log.Fatalf("x") }
`,
			terminal: true,
		},
		{
			name: "runtime.Goexit",
			src: `package cfgfixture
import "runtime"
func f() { runtime.Goexit() }
`,
			terminal: true,
		},
		{
			name: "shadowed panic is not terminal",
			src: `package cfgfixture
func panic(s string) {}
func f() { panic("fine") }
`,
			terminal: false,
		},
		{
			name: "ordinary call",
			src: `package cfgfixture
import "fmt"
func f() { fmt.Println("x") }
`,
			terminal: false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := buildFixtureCFG(t, c.src)
			// A terminal call seals the path: the exit block gains a
			// predecessor only via the sealed (empty) trailing block,
			// which is unreachable, so the exit is unreachable too.
			reach := reachable(cfg)
			if c.terminal && reach[cfg.Exit] {
				t.Errorf("call should be terminal; exit still reachable:\n%s", cfg)
			}
			if !c.terminal && !reach[cfg.Exit] {
				t.Errorf("call should not be terminal; exit unreachable:\n%s", cfg)
			}
		})
	}
}

// TestCollectFuncBodies checks literal/decl pairing and source order.
func TestCollectFuncBodies(t *testing.T) {
	pass, err := cfgLoader.CheckSource("applab/internal/cfgfixture", `package cfgfixture
var hook = func() {}
func a() {
	g := func() {}
	g()
}
func b() {}
`)
	if err != nil {
		t.Fatal(err)
	}
	bodies := collectFuncBodies(pass.Files[0])
	if len(bodies) != 4 {
		t.Fatalf("want 4 bodies (hook lit, a, a's lit, b), got %d", len(bodies))
	}
	var kinds []string
	for _, fb := range bodies {
		switch {
		case fb.lit != nil && fb.decl == nil:
			kinds = append(kinds, "lit")
		case fb.lit != nil:
			kinds = append(kinds, "lit-in-"+fb.decl.Name.Name)
		default:
			kinds = append(kinds, fb.decl.Name.Name)
		}
	}
	want := "lit a lit-in-a b"
	if got := strings.Join(kinds, " "); got != want {
		t.Errorf("bodies = %q, want %q", got, want)
	}
}
