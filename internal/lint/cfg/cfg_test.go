package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// build parses body as the body of a parameterless function and lowers it.
// Identifiers need not resolve: the builder is purely syntactic.
func build(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}"
	f, err := parser.ParseFile(token.NewFileSet(), "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return New(f.Decls[0].(*ast.FuncDecl).Body)
}

// blockWith returns the first block containing a node matching pred.
func blockWith(t *testing.T, g *Graph, what string, pred func(ast.Node) bool) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if pred(n) {
				return b
			}
		}
	}
	t.Fatalf("no block contains %s in graph %s", what, g)
	return nil
}

// blockCalling returns the block containing a call to the named function.
func blockCalling(t *testing.T, g *Graph, name string) *Block {
	t.Helper()
	return blockWith(t, g, "call to "+name, func(n ast.Node) bool { return nodeCalls(n, name) })
}

func nodeCalls(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

// reaches reports whether to is reachable from from along Succs edges
// without passing through any block in avoid.
func reaches(from, to *Block, avoid ...*Block) bool {
	skip := map[*Block]bool{}
	for _, b := range avoid {
		skip[b] = true
	}
	seen := map[*Block]bool{}
	var dfs func(*Block) bool
	dfs = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] || skip[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

func TestLinear(t *testing.T) {
	g := build(t, `
	x()
	y()
`)
	b := blockCalling(t, g, "x")
	if b != blockCalling(t, g, "y") {
		t.Errorf("straight-line statements split across blocks: %s", g)
	}
	if len(b.Nodes) != 2 {
		t.Errorf("body block has %d nodes, want 2: %s", len(b.Nodes), g)
	}
	if !reaches(g.Entry, g.Exit) {
		t.Errorf("exit unreachable: %s", g)
	}
}

func TestIfEarlyReturn(t *testing.T) {
	g := build(t, `
	if cond {
		return
	}
	after()
`)
	afterBlk := blockCalling(t, g, "after")
	condBlk := blockWith(t, g, "the condition", func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && id.Name == "cond"
	})
	// Two ways out of the condition: into the then-branch (which
	// returns) and around it to the join.
	if len(condBlk.Succs) != 2 {
		t.Errorf("cond block has %d successors, want 2: %s", len(condBlk.Succs), g)
	}
	if !reaches(condBlk, g.Exit, afterBlk) {
		t.Errorf("early return does not bypass the join: %s", g)
	}
	if !reaches(g.Entry, afterBlk) {
		t.Errorf("fallthrough path lost: %s", g)
	}
}

func TestIfElseJoins(t *testing.T) {
	g := build(t, `
	if cond {
		a()
	} else {
		b()
	}
	after()
`)
	afterBlk := blockCalling(t, g, "after")
	for _, name := range []string{"a", "b"} {
		br := blockCalling(t, g, name)
		if !reaches(br, afterBlk) {
			t.Errorf("branch %s does not rejoin: %s", name, g)
		}
	}
	// With an else present there is no direct cond→join edge.
	condBlk := blockCalling(t, g, "a").Preds[0]
	for _, s := range condBlk.Succs {
		if s == afterBlk {
			t.Errorf("cond jumps straight to join despite else: %s", g)
		}
	}
}

func TestForLoop(t *testing.T) {
	g := build(t, `
	for i := 0; i < n; i++ {
		work()
	}
	after()
`)
	body := blockCalling(t, g, "work")
	var head *Block
	for _, b := range g.Blocks {
		if b.Kind == "for.head" {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("no for.head block: %s", g)
	}
	// The back edge: body → post → head.
	if !reaches(body, head, g.Entry) {
		t.Errorf("no back edge from body to head: %s", g)
	}
	if !reaches(head, blockCalling(t, g, "after")) {
		t.Errorf("loop exit edge missing: %s", g)
	}
}

func TestForeverLoopHasNoExit(t *testing.T) {
	g := build(t, `
	for {
		work()
	}
`)
	if reaches(g.Entry, g.Exit) {
		t.Errorf("for{} without condition must not reach exit: %s", g)
	}
	if !reaches(g.Entry, blockCalling(t, g, "work")) {
		t.Errorf("loop body unreachable: %s", g)
	}
}

func TestRange(t *testing.T) {
	g := build(t, `
	for k := range m {
		use(k)
	}
	after()
`)
	head := blockWith(t, g, "the range statement", func(n ast.Node) bool {
		_, ok := n.(*ast.RangeStmt)
		return ok
	})
	// The loop statements live in their own body block: the head node
	// stands only for the X evaluation and per-iteration assignment.
	var body *Block
	for _, b := range g.Blocks {
		if b.Kind == "range.body" {
			body = b
		}
	}
	if body == nil || body == head || len(body.Nodes) != 1 {
		t.Fatalf("range body not lowered into its own block: %s", g)
	}
	if !reaches(body, head, g.Entry) {
		t.Errorf("no back edge from range body: %s", g)
	}
	if !reaches(head, blockCalling(t, g, "after")) {
		t.Errorf("zero-iteration path missing: %s", g)
	}
}

// TestDeferPosition pins the defer-at-registration model: a return before
// the defer statement is a path that never registers the cleanup.
func TestDeferPosition(t *testing.T) {
	late := build(t, `
	if cond {
		return
	}
	defer cleanup()
	work()
`)
	isDefer := func(n ast.Node) bool { _, ok := n.(*ast.DeferStmt); return ok }
	lateDefer := blockWith(t, late, "the defer", isDefer)
	if !reaches(late.Entry, late.Exit, lateDefer) {
		t.Errorf("expected a path to exit that skips the late defer: %s", late)
	}

	early := build(t, `
	defer cleanup()
	if cond {
		return
	}
	work()
`)
	earlyDefer := blockWith(t, early, "the defer", isDefer)
	if reaches(early.Entry, early.Exit, earlyDefer) {
		t.Errorf("every path must pass a first-statement defer: %s", early)
	}
}

func TestPanicPath(t *testing.T) {
	g := build(t, `
	if bad {
		panic("boom")
	}
	ok()
`)
	if !reaches(g.Entry, g.Panic) {
		t.Errorf("panic block unreachable: %s", g)
	}
	panicBlk := blockCalling(t, g, "panic")
	if !reaches(g.Entry, g.Exit, panicBlk) {
		t.Errorf("non-panicking path to exit lost: %s", g)
	}
	if reaches(panicBlk, g.Exit, g.Panic) {
		t.Errorf("panic block falls through to exit: %s", g)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g := build(t, `
	switch x {
	case 1:
		a()
		fallthrough
	case 2:
		b()
	default:
		c()
	}
	after()
`)
	caseA, caseB := blockCalling(t, g, "a"), blockCalling(t, g, "b")
	direct := false
	for _, s := range caseA.Succs {
		if s == caseB {
			direct = true
		}
	}
	if !direct {
		t.Errorf("fallthrough edge missing between clauses: %s", g)
	}
	// With a default clause, the head cannot skip every clause.
	head := blockWith(t, g, "the switch tag", func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && id.Name == "x"
	})
	if reaches(head, blockCalling(t, g, "after"), caseA, caseB, blockCalling(t, g, "c")) {
		t.Errorf("switch with default has a clause-skipping edge: %s", g)
	}
}

func TestSelectFanOut(t *testing.T) {
	g := build(t, `
	select {
	case <-ch:
		a()
	case ch <- v:
		b()
	}
	after()
`)
	afterBlk := blockCalling(t, g, "after")
	for _, name := range []string{"a", "b"} {
		if !reaches(blockCalling(t, g, name), afterBlk) {
			t.Errorf("select case %s does not rejoin: %s", name, g)
		}
	}
}

func TestLabeledBreak(t *testing.T) {
	g := build(t, `
outer:
	for {
		for {
			break outer
		}
	}
	after()
`)
	if !reaches(g.Entry, blockCalling(t, g, "after")) {
		t.Errorf("labeled break out of nested infinite loops lost: %s", g)
	}
}

func TestGotoBackEdge(t *testing.T) {
	g := build(t, `
	i := 0
loop:
	i++
	if i < 3 {
		goto loop
	}
	done()
`)
	var label *Block
	for _, b := range g.Blocks {
		if b.Kind == "label.loop" {
			label = b
		}
	}
	if label == nil {
		t.Fatalf("no label block: %s", g)
	}
	if len(label.Preds) < 2 {
		t.Errorf("label block has %d preds, want fall-in plus goto: %s", len(label.Preds), g)
	}
	if !reaches(g.Entry, blockCalling(t, g, "done")) {
		t.Errorf("loop exit lost: %s", g)
	}
}

// String renders the graph compactly for tests and debugging:
// "0:entry -> 3; 3:body[2] -> 1; ...", where [n] is the node count.
func (g *Graph) String() string {
	var parts []string
	for _, b := range g.Blocks {
		var succs []string
		for _, s := range b.Succs {
			succs = append(succs, fmt.Sprint(s.Index))
		}
		n := ""
		if len(b.Nodes) > 0 {
			n = fmt.Sprintf("[%d]", len(b.Nodes))
		}
		parts = append(parts, fmt.Sprintf("%d:%s%s -> %s", b.Index, b.Kind, n, strings.Join(succs, ",")))
	}
	return strings.Join(parts, "; ")
}
