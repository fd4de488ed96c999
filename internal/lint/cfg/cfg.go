// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and solves forward dataflow problems over them.
//
// The graph is deliberately simple: a Block holds a straight-line run of
// "simple" nodes (assignments, expression statements, conditions, defers,
// returns) and edges to its successors. Compound statements are lowered
// during construction — an if contributes its init and condition to the
// current block and branches to then/else blocks; loops get head, body and
// post blocks with a back edge; switch/select clauses fan out of a head
// block and rejoin. Three distinguished blocks exist: Entry (no nodes),
// Exit (reached by every return and by falling off the end of the body)
// and Panic (reached by explicit panic(...) statements, so analyses can
// choose whether panicking paths must satisfy an invariant).
//
// Deferred calls are modeled at the point the defer statement executes:
// for a forward "must happen before exit" analysis this is exactly right —
// a path that passes a `defer release(x)` is guaranteed the release no
// matter how it later leaves the function, while a path that returns
// before registering the defer is not.
//
// The package is position-independent of go/types on purpose: clients
// bring their own *types.Info when classifying nodes.
package cfg

import (
	"go/ast"
	"go/token"
)

// A Block is one basic block: Nodes execute in order, then control moves
// to one of Succs.
type Block struct {
	Index int    // position in Graph.Blocks, assigned at creation
	Kind  string // construction-site label ("entry", "if.then", ...), for debugging
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	Entry  *Block // empty block before the first statement
	Exit   *Block // target of every return and of falling off the end
	Panic  *Block // target of explicit panic(...) statements
	Blocks []*Block
}

// New lowers body into a control-flow graph.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	g.Entry = g.block("entry")
	g.Exit = g.block("exit")
	g.Panic = g.block("panic")
	b := &builder{g: g, labels: map[string]*labelInfo{}}
	b.cur = g.block("body")
	edge(g.Entry, b.cur)
	b.stmtList(body.List)
	edge(b.cur, g.Exit)
	return g
}

func (g *Graph) block(kind string) *Block {
	bl := &Block{Index: len(g.Blocks), Kind: kind}
	g.Blocks = append(g.Blocks, bl)
	return bl
}

func edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// ---------------------------------------------------------------------------
// Construction

// scope is one enclosing breakable/continuable statement.
type scope struct {
	label string
	brk   *Block // break target
	cont  *Block // continue target; nil for switch/select
}

type labelInfo struct {
	block *Block // goto target
}

type builder struct {
	g      *Graph
	cur    *Block
	scopes []scope
	labels map[string]*labelInfo
	// pendingLabel names the label attached to the next loop/switch
	// statement, so labeled break/continue can find it.
	pendingLabel string
}

// add appends a simple node to the current block.
func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// unreachable starts a fresh block with no predecessors, used after a
// terminator (return, break, panic) so trailing dead code attaches to
// something without polluting live paths.
func (b *builder) unreachable() {
	b.cur = b.g.block("unreachable")
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the statement being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) push(sc scope) { b.scopes = append(b.scopes, sc) }
func (b *builder) pop()          { b.scopes = b.scopes[:len(b.scopes)-1] }
func (b *builder) find(label string, needCont bool) *scope {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := &b.scopes[i]
		if needCont && sc.cont == nil {
			continue
		}
		if label == "" || sc.label == label {
			return sc
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.takeLabel()
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		done := b.g.block("if.done")
		then := b.g.block("if.then")
		edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		edge(b.cur, done)
		if s.Else != nil {
			els := b.g.block("if.else")
			edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			edge(b.cur, done)
		} else {
			edge(cond, done)
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.g.block("for.head")
		edge(b.cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.g.block("for.body")
		post := b.g.block("for.post")
		done := b.g.block("for.done")
		edge(head, body)
		if s.Cond != nil {
			edge(head, done)
		}
		b.push(scope{label: label, brk: done, cont: post})
		b.cur = body
		b.stmt(s.Body)
		edge(b.cur, post)
		b.pop()
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		edge(post, head)
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.g.block("range.head")
		edge(b.cur, head)
		// The RangeStmt itself stands for the X evaluation and the
		// per-iteration key/value assignment.
		head.Nodes = append(head.Nodes, s)
		body := b.g.block("range.body")
		done := b.g.block("range.done")
		edge(head, body)
		edge(head, done)
		b.push(scope{label: label, brk: done, cont: head})
		b.cur = body
		b.stmt(s.Body)
		edge(b.cur, head)
		b.pop()
		b.cur = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(label, s.Body.List, func(cs ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			cc := cs.(*ast.CaseClause)
			var exprs []ast.Node
			for _, e := range cc.List {
				exprs = append(exprs, e)
			}
			return exprs, cc.Body, cc.List == nil
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(label, s.Body.List, func(cs ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			cc := cs.(*ast.CaseClause)
			var exprs []ast.Node
			for _, e := range cc.List {
				exprs = append(exprs, e)
			}
			return exprs, cc.Body, cc.List == nil
		})

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		done := b.g.block("select.done")
		b.push(scope{label: label, brk: done})
		hasDefault := false
		for _, cs := range s.Body.List {
			cc := cs.(*ast.CommClause)
			blk := b.g.block("select.case")
			edge(head, blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			} else {
				hasDefault = true
			}
			b.cur = blk
			b.stmtList(cc.Body)
			edge(b.cur, done)
		}
		_ = hasDefault // a select without default still joins at done
		b.pop()
		b.cur = done

	case *ast.LabeledStmt:
		// Record the label both as a goto target and for break/continue.
		li := b.labels[s.Label.Name]
		if li == nil {
			li = &labelInfo{block: b.g.block("label." + s.Label.Name)}
			b.labels[s.Label.Name] = li
		}
		edge(b.cur, li.block)
		b.cur = li.block
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		b.takeLabel()
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if sc := b.find(label, false); sc != nil {
				edge(b.cur, sc.brk)
			}
			b.unreachable()
		case token.CONTINUE:
			if sc := b.find(label, true); sc != nil {
				edge(b.cur, sc.cont)
			}
			b.unreachable()
		case token.GOTO:
			li := b.labels[label]
			if li == nil {
				li = &labelInfo{block: b.g.block("label." + label)}
				b.labels[label] = li
			}
			edge(b.cur, li.block)
			b.unreachable()
		case token.FALLTHROUGH:
			// Handled structurally in switchClauses.
		}

	case *ast.ReturnStmt:
		b.takeLabel()
		b.add(s)
		edge(b.cur, b.g.Exit)
		b.unreachable()

	case *ast.ExprStmt:
		b.takeLabel()
		b.add(s)
		if isPanicCall(s.X) {
			edge(b.cur, b.g.Panic)
			b.unreachable()
		}

	case nil:
		// Absent optional statement.

	default:
		// Assign, DeclStmt, IncDec, Send, Defer, Go, Empty, ...
		b.takeLabel()
		b.add(s)
	}
}

// switchClauses lowers the clause list shared by switch and type switch.
// decompose returns a clause's guard expressions, body, and whether it is
// the default clause.
func (b *builder) switchClauses(label string, clauses []ast.Stmt, decompose func(ast.Stmt) ([]ast.Node, []ast.Stmt, bool)) {
	head := b.cur
	done := b.g.block("switch.done")
	b.push(scope{label: label, brk: done})
	blocks := make([]*Block, len(clauses))
	bodies := make([][]ast.Stmt, len(clauses))
	hasDefault := false
	for i, cs := range clauses {
		exprs, body, isDefault := decompose(cs)
		blk := b.g.block("switch.case")
		edge(head, blk)
		blk.Nodes = append(blk.Nodes, exprs...)
		blocks[i] = blk
		bodies[i] = body
		if isDefault {
			hasDefault = true
		}
	}
	for i := range clauses {
		b.cur = blocks[i]
		b.stmtList(bodies[i])
		if endsInFallthrough(bodies[i]) && i+1 < len(blocks) {
			edge(b.cur, blocks[i+1])
		} else {
			edge(b.cur, done)
		}
	}
	if !hasDefault {
		edge(head, done)
	}
	b.pop()
	b.cur = done
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isPanicCall reports whether e is a call to the predeclared panic. The
// check is syntactic (a local function named panic would fool it), which
// keeps the package independent of go/types; shadowing panic does not
// occur in this codebase.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
