package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"mv2sim/internal/lint/cfg"
)

// This file holds the flow machinery shared by the ownership analyzers
// (allocfree, spanend) and by the cross-package Facts computation: an
// "obligation" (a local that must be released before the function exits)
// is propagated forward through the CFG; releases and escapes kill it,
// and obligations still live on some non-panicking path into Exit are
// the findings.

// An obligation is one tracked local with a release duty.
type obligation struct {
	obj types.Object
	// intro is the CFG node that brings the obligation to life (the
	// defining assignment). nil means live from function entry (used for
	// parameter facts).
	intro ast.Node
	// call is the defining call, used as the report anchor. May be nil.
	call *ast.CallExpr
	// pairedErr is the error object bound by the same `x, err := ...`
	// assignment, if any. A return statement that mentions it kills the
	// obligation: on that path the allocation failed and there is
	// nothing to release. (Limitation: Go reuses err objects across `:=`
	// assignments in one scope, so a later `return err` for an unrelated
	// failure also kills — the analysis is sound for the canonical
	// check-and-return pattern, not a proof.)
	pairedErr types.Object
}

// flowSurvivors solves the may-leak problem over g: which obligations
// are still live on some path into Exit. Paths into Panic are exempt —
// the engine turns panics into Run errors and the whole simulation is
// discarded, so release-on-panic is not required.
func flowSurvivors(g *cfg.Graph, info *types.Info, obls []obligation, rules useRules) []obligation {
	if len(obls) == 0 {
		return nil
	}
	p := &oblProblem{info: info, obls: obls, rules: rules}
	res := cfg.Forward[liveSet](g, p)
	var out []obligation
	for i, live := range res.In[g.Exit] {
		if live {
			out = append(out, obls[i])
		}
	}
	return out
}

// liveSet is the dataflow fact: liveSet[i] reports whether obligation i
// is live (unreleased) at a program point. Merge is union — a leak on
// any path is a leak.
type liveSet []bool

type oblProblem struct {
	info  *types.Info
	obls  []obligation
	rules useRules
}

func (p *oblProblem) Entry() liveSet {
	s := make(liveSet, len(p.obls))
	for i, o := range p.obls {
		s[i] = o.intro == nil
	}
	return s
}

func (p *oblProblem) Bottom() liveSet { return make(liveSet, len(p.obls)) }

func (p *oblProblem) Merge(a, b liveSet) liveSet {
	s := make(liveSet, len(a))
	for i := range a {
		s[i] = a[i] || b[i]
	}
	return s
}

func (p *oblProblem) Equal(a, b liveSet) bool { return slices.Equal(a, b) }

func (p *oblProblem) Transfer(b *cfg.Block, in liveSet) liveSet {
	out := make(liveSet, len(in))
	copy(out, in)
	for _, n := range b.Nodes {
		for i := range p.obls {
			o := &p.obls[i]
			if n == o.intro {
				out[i] = true // the defining assignment itself is not a use
				continue
			}
			if out[i] && nodeKills(p.info, n, o, p.rules) {
				out[i] = false
			}
		}
	}
	return out
}

// nodeKills reports whether executing node discharges or forfeits the
// obligation: a release (Free/End reached), an escape (ownership moved
// beyond this function's view), or a return on the obligation's paired
// error path (the allocation never happened).
func nodeKills(info *types.Info, node ast.Node, o *obligation, rules useRules) bool {
	// A RangeStmt node in a loop-head block stands for the range
	// expression evaluation only; its body executes in separate blocks.
	if rng, ok := node.(*ast.RangeStmt); ok {
		node = rng.X
	}
	if ret, ok := node.(*ast.ReturnStmt); ok && o.pairedErr != nil {
		// Deep mention on purpose: the canonical failure return wraps the
		// error in a call (`return 0, fmt.Errorf("...: %w", err)`).
		if mentionsObj(info, ret, o.pairedErr) {
			return true
		}
	}
	killed := false
	classifyUses(info, node, o.obj, rules, func(e useEffect) {
		if e != useNone {
			killed = true
		}
	})
	return killed
}

// functionBodies returns fn's own body plus the body of every function
// literal nested inside it. Each is analyzed as an independent flow
// unit: a closure has its own paths to its own exit, and a mention of an
// outer obligation inside a closure is an escape from the outer unit's
// point of view (the closure may run at any time, or never).
func functionBodies(fn *ast.FuncDecl) []*ast.BlockStmt {
	bodies := []*ast.BlockStmt{fn.Body}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			bodies = append(bodies, lit.Body)
		}
		return true
	})
	return bodies
}

// collectObligations finds the obligations introduced directly in body
// (not in nested function literals): assignments whose right-hand side is
// a call matched by isIntro. Both the single-value form (`p := Must(n)`)
// and the two-value form (`p, err := Alloc(n)`) are tracked; in the
// latter the bound error becomes the obligation's pairedErr, so paths
// that return the error after a failed call owe no release.
func collectObligations(info *types.Info, body *ast.BlockStmt, isIntro func(*ast.CallExpr) bool) []obligation {
	var obls []obligation
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested literals are their own flow unit
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		add := func(id *ast.Ident, call *ast.CallExpr, errObj types.Object) {
			obj := objOfIdent(info, id)
			if obj == nil {
				return
			}
			obls = append(obls, obligation{obj: obj, intro: as, call: call, pairedErr: errObj})
		}
		if len(as.Rhs) == 1 && len(as.Lhs) == 2 {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok && isIntro(call) {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					var errObj types.Object
					if eid, ok := as.Lhs[1].(*ast.Ident); ok && eid.Name != "_" {
						errObj = objOfIdent(info, eid)
					}
					add(id, call, errObj)
				}
			}
			return true
		}
		if len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isIntro(call) {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					add(id, call, nil)
				}
			}
		}
		return true
	})
	return obls
}

// ---------------------------------------------------------------------------
// Per-domain use rules

// ptrUseRules classifies uses of a device-memory pointer. Release =
// a call whose name contains "free", or an in-tree callee whose fact says
// it frees the corresponding parameter on every path. Borrow = simulator
// API (copies, kernel launches, sends) and in-tree callees with a Borrows
// fact. Everything else moves ownership.
type ptrUseRules struct{ facts *Facts }

func (r ptrUseRules) classifyCall(info *types.Info, call *ast.CallExpr, obj types.Object) useEffect {
	// A method invoked on the tracked pointer itself (p.Bytes(), p.Off())
	// borrows its receiver: mem.Ptr is a value handle.
	if recvIsObj(info, call, obj) {
		return useNone
	}
	if strings.Contains(strings.ToLower(calleeName(call)), "free") {
		return useRelease
	}
	if mi, ok := methodCall(info, call); ok && borrowingReceivers[[2]string{mi.pkgPath, mi.typeName}] {
		return useNone
	}
	if eff, ok := factEffect(info, call, obj, r.facts, func(fn *types.Func, i int) ParamFact {
		return r.facts.PtrParam(fn, i)
	}); ok {
		return eff
	}
	return useEscape
}

// spanUseRules classifies uses of an obs.Span. Release = Span.End on the
// span (directly, deferred, or as a method value handed to a callback
// — the ev.OnTrigger(sp.End) idiom), or an in-tree callee that ends its
// span parameter on every path. All obs package calls borrow span
// arguments (StartChild, DependsOn, Instant* take spans without consuming
// them). Everything else moves the span out of view.
type spanUseRules struct{ facts *Facts }

func (r spanUseRules) classifyCall(info *types.Info, call *ast.CallExpr, obj types.Object) useEffect {
	if mi, ok := methodCall(info, call); ok && mi.pkgPath == obsPath {
		if mi.typeName == "Span" && mi.method == "End" && recvIsObj(info, call, obj) {
			return useRelease
		}
		return useNone
	}
	// sp.End passed as a method value: the callee runs End later
	// (canonically from an event-trigger callback).
	for _, a := range call.Args {
		if sel, ok := a.(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
			if id, ok := sel.X.(*ast.Ident); ok && objOfIdent(info, id) == obj {
				return useRelease
			}
		}
	}
	if eff, ok := factEffect(info, call, obj, r.facts, func(fn *types.Func, i int) ParamFact {
		return r.facts.SpanParam(fn, i)
	}); ok {
		return eff
	}
	return useEscape
}

// recvIsObj reports whether call is a method call with obj as the
// receiver expression.
func recvIsObj(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if _, isSel := info.Selections[sel]; !isSel {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && objOfIdent(info, id) == obj
}

// factEffect resolves call to an in-tree callee and combines the param
// facts of every argument position where obj appears: any Moves → escape,
// else any Releases → release, else borrow. ok is false when the callee
// is unknown or out of tree (the caller falls back to its default).
func factEffect(info *types.Info, call *ast.CallExpr, obj types.Object, facts *Facts,
	fact func(*types.Func, int) ParamFact) (useEffect, bool) {
	if facts == nil {
		return useNone, false
	}
	callee := calleeFunc(info, call)
	if callee == nil {
		return useNone, false
	}
	if _, _, ok := facts.Decl(callee); !ok {
		return useNone, false
	}
	eff := useNone
	for ai, a := range call.Args {
		if !mentionsObjDirect(info, a, obj) {
			continue
		}
		pi := argParamIndex(callee, ai)
		if pi < 0 {
			return useEscape, true
		}
		switch fact(callee, pi) {
		case ParamReleases:
			if eff == useNone {
				eff = useRelease
			}
		case ParamBorrows:
			// keep current
		default:
			return useEscape, true
		}
	}
	return eff, true
}
