package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"mv2sim/internal/lint/cfg"
)

// A ParamFact summarizes what a function does with one of its parameters,
// from the caller's ownership point of view.
type ParamFact int

const (
	// ParamMoves: ownership is (or may be) transferred — the parameter is
	// returned, stored, captured, or handed to code the analysis cannot
	// see. The caller's release obligation is assumed discharged.
	ParamMoves ParamFact = iota
	// ParamBorrows: the function only reads the parameter. The caller
	// keeps the release obligation.
	ParamBorrows
	// ParamReleases: the function releases the parameter (frees the
	// buffer / ends the span) on every normal path, so a call counts as
	// the caller's release.
	ParamReleases
)

func (f ParamFact) String() string {
	switch f {
	case ParamBorrows:
		return "borrows"
	case ParamReleases:
		return "releases"
	}
	return "moves"
}

// Facts lazily computes and memoizes cross-package function summaries
// over a universe of loaded packages. Analyzers query facts about callees
// (possibly in other packages) instead of treating every helper call as an
// opaque ownership transfer — which is what previously forced
// //lint:ignore suppressions around release helpers.
type Facts struct {
	universe []*Package
	decls    map[*types.Func]declOf

	ptrMemo  map[factKey]ParamFact
	spanMemo map[factKey]ParamFact

	visMemo   map[*types.Func]string
	blockMemo map[*types.Func]blockFact
	cbMemo    map[factKey]bool
	fieldMemo map[*types.Var]bool
	runMemo   map[*types.Func]bool

	// Built on first use by indexValues.
	fieldReads map[*types.Var][]valueSite
	funcValues map[*types.Func][]valueSite
}

type declOf struct {
	decl *ast.FuncDecl
	pkg  *Package
}

type factKey struct {
	fn    *types.Func
	index int
}

// NewFacts indexes every function declaration in the universe.
func NewFacts(universe []*Package) *Facts {
	f := &Facts{
		universe:  universe,
		decls:     map[*types.Func]declOf{},
		ptrMemo:   map[factKey]ParamFact{},
		spanMemo:  map[factKey]ParamFact{},
		visMemo:   map[*types.Func]string{},
		blockMemo: map[*types.Func]blockFact{},
		cbMemo:    map[factKey]bool{},
		fieldMemo: map[*types.Var]bool{},
		runMemo:   map[*types.Func]bool{},
	}
	for _, pkg := range universe {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					f.decls[obj] = declOf{decl: fd, pkg: pkg}
				}
			}
		}
	}
	return f
}

// Decl returns the declaration of fn if it is in the universe.
func (f *Facts) Decl(fn *types.Func) (*ast.FuncDecl, *Package, bool) {
	d, ok := f.decls[fn.Origin()]
	return d.decl, d.pkg, ok
}

// paramObjs returns the declared parameter objects of decl in order,
// nil entries for unnamed or blank parameters.
func paramObjs(info *types.Info, decl *ast.FuncDecl) []types.Object {
	var out []types.Object
	if decl.Type.Params == nil {
		return out
	}
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				out = append(out, nil)
			} else {
				out = append(out, info.Defs[name])
			}
		}
	}
	return out
}

// calleeFunc resolves a call to the *types.Func it invokes (function,
// method, or interface method), or nil for indirect calls through
// variables, built-ins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := objOfIdent(info, fun).(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call (pkg.Func).
		if fn, ok := objOfIdent(info, fun.Sel).(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// argParamIndex maps an argument position to the callee's parameter
// index, folding variadic spill onto the variadic parameter.
func argParamIndex(fn *types.Func, arg int) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return -1
	}
	if arg < sig.Params().Len() {
		return arg
	}
	if sig.Variadic() {
		return sig.Params().Len() - 1
	}
	return -1
}

// ---------------------------------------------------------------------------
// Ownership facts (mem.Ptr / obs.Span parameters)

// PtrParam reports what fn does with its index-th parameter, assumed to
// hold a device allocation: releases it on every normal path (a call
// discharges the caller's Free obligation), only borrows it (the caller
// still owes a Free), or moves it (unknown / transfers ownership).
func (f *Facts) PtrParam(fn *types.Func, index int) ParamFact {
	return f.memoParam(f.ptrMemo, fn, index, ptrUseRules{f})
}

// SpanParam is PtrParam for obs.Span parameters: releasing means calling
// Span.End (or passing the span to another releasing function).
func (f *Facts) SpanParam(fn *types.Func, index int) ParamFact {
	return f.memoParam(f.spanMemo, fn, index, spanUseRules{f})
}

// memoParam memoizes paramFact in memo. Like every fact here, a recursive
// query sees the conservative answer (Moves) until the outer frame is done.
func (f *Facts) memoParam(memo map[factKey]ParamFact, fn *types.Func, index int, rules useRules) ParamFact {
	key := factKey{fn.Origin(), index}
	if v, ok := memo[key]; ok {
		return v
	}
	memo[key] = ParamMoves
	memo[key] = f.paramFact(fn, index, rules)
	return memo[key]
}

// useRules abstracts the per-domain classification of one tracked-object
// use so ptr and span facts share the flow machinery. The analyzer
// rewrites (allocfree, spanend) use the same rules on their own tracked
// locals.
type useRules interface {
	// classifyCall classifies tracked-object mentions in one call's
	// direct arguments (and receiver where relevant).
	classifyCall(info *types.Info, call *ast.CallExpr, obj types.Object) useEffect
}

type useEffect int

const (
	useNone    useEffect = iota // pure read / borrowing call
	useRelease                  // discharges the obligation
	useEscape                   // ownership moves; stop tracking
)

// paramFact classifies every use of the parameter and, if the uses are
// release-shaped, verifies with a CFG dataflow that the release happens
// on every normal path.
func (f *Facts) paramFact(fn *types.Func, index int, rules useRules) ParamFact {
	d, ok := f.decls[fn.Origin()]
	if !ok {
		return ParamMoves
	}
	params := paramObjs(d.pkg.Info, d.decl)
	if index < 0 || index >= len(params) {
		return ParamMoves
	}
	obj := params[index]
	if obj == nil {
		return ParamBorrows // unnamed parameter: never used
	}

	anyRelease, anyEscape := false, false
	classifyUses(d.pkg.Info, d.decl.Body, obj, rules, func(e useEffect) {
		switch e {
		case useRelease:
			anyRelease = true
		case useEscape:
			anyEscape = true
		}
	})
	switch {
	case anyEscape:
		return ParamMoves
	case !anyRelease:
		return ParamBorrows
	}
	// Release-shaped: confirm it happens on every normal path.
	g := cfg.New(d.decl.Body)
	survivors := flowSurvivors(g, d.pkg.Info, []obligation{{obj: obj}}, rules)
	if len(survivors) == 0 {
		return ParamReleases
	}
	return ParamMoves
}

// classifyUses walks body and reports the effect of every direct use of
// obj through report. Mentions inside nested function literals count as
// escapes (the closure may run at any time), matching the analyzers.
func classifyUses(info *types.Info, body ast.Node, obj types.Object, rules useRules, report func(useEffect)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if mentionsObj(info, n, obj) {
				report(useEscape)
			}
			return false
		case *ast.ReturnStmt:
			if mentionsObjDirect(info, n, obj) {
				report(useEscape)
			}
			return true
		case *ast.CallExpr:
			if callMentionsObj(info, n, obj) {
				report(rules.classifyCall(info, n, obj))
			}
			return true
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if _, isCall := rhs.(*ast.CallExpr); isCall {
					continue // classified by the CallExpr case
				}
				if mentionsObjDirect(info, rhs, obj) {
					report(useEscape)
				}
			}
			return true
		case *ast.CompositeLit:
			if mentionsObjDirect(info, n, obj) {
				report(useEscape)
			}
			return true
		case *ast.UnaryExpr:
			if id, ok := n.X.(*ast.Ident); ok && objOfIdent(info, id) == obj {
				report(useEscape) // &obj aliases it
			}
			return true
		}
		return true
	})
}

// mentionsObj reports whether obj is referenced anywhere under n.
func mentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && objOfIdent(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// mentionsObjDirect is mentionsObj stopping at nested calls and function
// literals, which classify their own mentions.
func mentionsObjDirect(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		switch c.(type) {
		case *ast.CallExpr, *ast.FuncLit:
			return false
		}
		if id, ok := c.(*ast.Ident); ok && objOfIdent(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// callMentionsObj reports whether obj appears directly in call's
// arguments or receiver expression.
func callMentionsObj(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	for _, a := range call.Args {
		if mentionsObjDirect(info, a, obj) {
			return true
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && objOfIdent(info, id) == obj {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Root tables. Everything else is derived from function bodies: a fact
// holds for a function whose body reaches a root, or a function the fact
// already holds for. Only what no call can derive is listed.

// rootKey identifies fn in the root tables as (package path, receiver
// type name or "", name).
func rootKey(fn *types.Func) [3]string {
	k := [3]string{"", "", fn.Name()}
	if fn.Pkg() != nil {
		k[0] = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			k[1] = n.Obj().Name()
		}
	}
	return k
}

// funcLabel renders fn as pkg.Type.Method or pkg.Func for messages.
func funcLabel(fn *types.Func) string {
	k := rootKey(fn)
	k[0] = k[0][strings.LastIndex(k[0], "/")+1:]
	if k[1] != "" {
		return k[0] + "." + k[1] + "." + k[2]
	}
	return k[0] + "." + k[2]
}

// blockingRoots are the Proc methods that hand the engine's baton back;
// every blocking API reaches one of them with the process it blocks.
var blockingRoots = map[[3]string]bool{
	{simPath, "Proc", "Wait"}:    true,
	{simPath, "Proc", "WaitAll"}: true,
	{simPath, "Proc", "WaitAny"}: true,
	{simPath, "Proc", "Sleep"}:   true,
	{simPath, "Proc", "block"}:   true, // Queue.Get yields here, not through Wait
}

// callbackRoots maps each engine registrar to its func parameter: the
// engine keeps the func and later runs it on its own goroutine.
var callbackRoots = map[[3]string]int{
	{simPath, "Engine", "CallAt"}:    1,
	{simPath, "Engine", "CallAfter"}: 1,
	{simPath, "Event", "Then"}:       0,
	{simPath, "Event", "OnTrigger"}:  0,
	// GetThen parks fn in a waiter FIFO that Put hands to a scheduled
	// take; no field or parameter carries it to CallAt.
	{simPath, "Queue", "GetThen"}: 0,
}

const tracePath = "mv2sim/internal/trace"

// simVisibleRoots are the APIs, besides the blocking and callback roots,
// whose call order is itself observable in simulation results.
var simVisibleRoots = map[[3]string]bool{
	// Engine scheduling: creation and dispatch order define the event
	// sequence.
	{simPath, "Engine", "SpawnAt"}:     true,
	{simPath, "Engine", "Run"}:         true,
	{simPath, "Engine", "RunUntil"}:    true,
	{simPath, "Engine", "Shutdown"}:    true,
	{simPath, "Engine", "NewEvent"}:    true,
	{simPath, "Engine", "NewResource"}: true,
	{simPath, "Event", "Trigger"}:      true,
	{simPath, "Resource", "Release"}:   true,
	{simPath, "Queue", "Put"}:          true,
	{simPath, "Queue", "TryGet"}:       true,

	// Task stream: record order is byte-visible in Chrome traces. Hub and
	// Span methods reach these through their bodies.
	{obsPath, "Tracer", "TaskStart"}:      true,
	{obsPath, "Tracer", "TaskEnd"}:        true,
	{obsPath, "Tracer", "TaskStep"}:       true,
	{obsPath, "Tracer", "CounterSample"}:  true,
	{obsPath, "DepTracer", "TaskDepends"}: true,

	// Trace breakdowns: key insertion order is the report's row order.
	{tracePath, "Breakdown", "Add"}: true,
	// Scale truncates every value to whole virtual time, so two scales in
	// swapped order can disagree; it calls nothing to derive that from.
	{tracePath, "Breakdown", "Scale"}: true,

	// Writer-directed printing: emit order is output order.
	{"fmt", "", "Print"}:    true,
	{"fmt", "", "Printf"}:   true,
	{"fmt", "", "Println"}:  true,
	{"fmt", "", "Fprint"}:   true,
	{"fmt", "", "Fprintf"}:  true,
	{"fmt", "", "Fprintln"}: true,
}

// ---------------------------------------------------------------------------
// Determinism fact: does calling fn touch sim-visible state?

// SimVisible reports whether calling fn (transitively) touches
// simulation-visible state: it blocks, registers an engine callback, or
// is a root of simVisibleRoots, or its body calls such a function. why
// names fn and the sim-visible function its body calls first
// ("hostmem.Pool.Put → obs.Span.End"), or just fn if it is a root.
func (f *Facts) SimVisible(fn *types.Func) (visible bool, why string) {
	if fn == nil {
		return false, ""
	}
	switch hop := f.visibleHop(fn.Origin()); hop {
	case "", funcLabel(fn):
		return hop != "", hop
	default:
		return true, funcLabel(fn) + " → " + hop
	}
}

// visibleHop returns fn's label if fn is a sim-visible root, else the
// label of the first sim-visible function fn's body calls, or "".
func (f *Facts) visibleHop(fn *types.Func) string {
	k := rootKey(fn)
	if _, cb := callbackRoots[k]; cb || simVisibleRoots[k] || blockingRoots[k] {
		return funcLabel(fn)
	}
	if hop, ok := f.visMemo[fn]; ok {
		return hop
	}
	d, ok := f.decls[fn]
	if !ok {
		return "" // out of tree and not a root: assume pure
	}
	f.visMemo[fn] = "" // recursion: resolved by the outer frame
	hop := ""
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && hop == "" {
			if callee := calleeFunc(d.pkg.Info, call); callee != nil && f.visibleHop(callee.Origin()) != "" {
				hop = funcLabel(callee)
			}
		}
		return hop == ""
	})
	f.visMemo[fn] = hop
	return hop
}

// ---------------------------------------------------------------------------
// Engine-context facts: which calls block their process, and which func
// values the engine runs as callbacks.

// A blockFact says whether and how calling a function blocks a process.
type blockFact struct {
	blocks bool
	arg    int // index of the *sim.Proc argument that blocks; -1: the receiver
	// nilSafe: every blocking path is guarded by `if p != nil`, so a nil
	// process is legal (the async-issue convention).
	nilSafe bool
}

// blocking reports whether calling fn may block the process it is handed:
// fn takes a *sim.Proc (or is a method on one) and reaches a blocking
// root with it, directly or through other blocking functions.
func (f *Facts) blocking(fn *types.Func) blockFact {
	fn = fn.Origin()
	if blockingRoots[rootKey(fn)] {
		return blockFact{blocks: true, arg: -1}
	}
	if v, ok := f.blockMemo[fn]; ok {
		return v
	}
	d, ok := f.decls[fn]
	if !ok {
		return blockFact{}
	}
	f.blockMemo[fn] = blockFact{} // recursion adds nothing
	info := d.pkg.Info
	procs := map[types.Object]int{}
	for i, obj := range paramObjs(info, d.decl) {
		if obj != nil && typeIs(obj.Type(), simPath, "Proc") {
			procs[obj] = i
		}
	}
	if recvIs(info, d.decl, simPath, "Proc") && len(d.decl.Recv.List[0].Names) == 1 {
		procs[info.Defs[d.decl.Recv.List[0].Names[0]]] = -1
	}
	if len(procs) == 0 {
		return blockFact{}
	}
	var res blockFact
	inspectPath(d.decl.Body, func(n ast.Node, path []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			_, lit := n.(*ast.FuncLit)
			return !lit // a closure does not block its maker
		}
		callee := calleeFunc(info, call)
		if callee == nil {
			return true
		}
		bf := f.blocking(callee)
		id, ok := ast.Unparen(procArg(call, bf)).(*ast.Ident)
		if idx, isProc := procs[objOfIdent(info, id)]; ok && isProc {
			nilSafe := bf.nilSafe || nonNilGuarded(info, append(path, call), id)
			if !res.blocks || (res.nilSafe && !nilSafe) {
				res = blockFact{blocks: true, arg: idx, nilSafe: nilSafe}
			}
		}
		return true
	})
	f.blockMemo[fn] = res
	return res
}

// procArg returns the expression call passes as the process a blocking
// callee blocks, or nil.
func procArg(call *ast.CallExpr, bf blockFact) ast.Expr {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && bf.blocks && bf.arg < 0 {
		return sel.X
	}
	if bf.blocks && bf.arg >= 0 && bf.arg < len(call.Args) {
		return call.Args[bf.arg]
	}
	return nil
}

// nonNilGuarded reports whether the last node of path sits in the body of
// an `if p != nil`, p being the variable proc names.
func nonNilGuarded(info *types.Info, path []ast.Node, proc *ast.Ident) bool {
	for i := 0; i+1 < len(path); i++ {
		ifs, ok := path[i].(*ast.IfStmt)
		if !ok || path[i+1] != ifs.Body {
			continue
		}
		if b, ok := ifs.Cond.(*ast.BinaryExpr); ok && b.Op == token.NEQ && info.Types[b.Y].IsNil() {
			if id, ok := b.X.(*ast.Ident); ok && objOfIdent(info, id) == objOfIdent(info, proc) {
				return true
			}
		}
	}
	return false
}

// CallbackParam reports whether fn's index-th parameter, a func, may be
// run by the engine on its own goroutine: fn passes it to a callback
// parameter (a root of callbackRoots or one derived the same way),
// stores it in a callback field, or captures it in a closure that is
// itself run by the engine.
func (f *Facts) CallbackParam(fn *types.Func, index int) bool {
	fn = fn.Origin()
	if i, ok := callbackRoots[rootKey(fn)]; ok {
		return i == index
	}
	key := factKey{fn, index}
	if v, ok := f.cbMemo[key]; ok {
		return v
	}
	f.cbMemo[key] = false // recursion: resolved by the outer frame
	d, ok := f.decls[fn]
	if !ok {
		return false
	}
	params := paramObjs(d.pkg.Info, d.decl)
	if index < 0 || index >= len(params) || params[index] == nil {
		return false
	}
	if _, isFunc := params[index].Type().Underlying().(*types.Signature); !isFunc {
		return false
	}
	found := false
	inspectPath(d.decl.Body, func(n ast.Node, path []ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && d.pkg.Info.Uses[id] == params[index] {
			found = f.valueInEngine(valueSite{d.pkg.Info, id, path})
		}
		return !found
	})
	f.cbMemo[key] = found
	return found
}

// A valueSite is one mention of a func value: the expression and its
// ancestors, outermost first.
type valueSite struct {
	info *types.Info
	e    ast.Expr
	path []ast.Node
}

// valueInEngine reports whether the func value at s may run in engine
// context: it flows to a callback, or code that itself runs in engine
// context mentions (calls, say) it. A closure that takes a *sim.Proc is
// a process body even when the engine starts it, so it does not count.
func (f *Facts) valueInEngine(s valueSite) bool {
	if f.flowsToEngine(s) {
		return true
	}
	for i := len(s.path) - 1; i >= 0; i-- {
		switch fn := s.path[i].(type) {
		case *ast.FuncLit:
			return !simContext(s.info, fn) && f.flowsToEngine(valueSite{s.info, fn, s.path[:i]})
		case *ast.FuncDecl:
			obj, ok := s.info.Defs[fn.Name].(*types.Func)
			return ok && f.engineRun(obj)
		}
	}
	return false
}

// flowsToEngine reports whether the func value at s is handed to the
// engine: passed as a callback argument or stored in a callback field.
func (f *Facts) flowsToEngine(s valueSite) bool {
	e, i := s.e, len(s.path)-1
	for ; i >= 0; i-- {
		p, ok := s.path[i].(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p
	}
	if i < 0 {
		return false
	}
	switch p := s.path[i].(type) {
	case *ast.CallExpr:
		callee := calleeFunc(s.info, p)
		for j, a := range p.Args {
			if a == e && callee != nil {
				return f.CallbackParam(callee, argParamIndex(callee, j))
			}
		}
	case *ast.KeyValueExpr:
		if id, ok := p.Key.(*ast.Ident); ok && p.Value == e {
			return f.callbackField(s.info.Uses[id])
		}
	case *ast.AssignStmt:
		for j, r := range p.Rhs {
			if sel, ok := p.Lhs[j].(*ast.SelectorExpr); ok && r == e && len(p.Lhs) == len(p.Rhs) {
				return f.callbackField(s.info.Uses[sel.Sel])
			}
		}
	}
	return false
}

// callbackField reports whether a func stored in the field obj may run in
// engine context: some read of the field flows to a callback or runs in
// engine context itself (the continuation that calls the stored func).
func (f *Facts) callbackField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() {
		return false
	}
	f.indexValues()
	return anySite(f.fieldMemo, v.Origin(), f.fieldReads[v.Origin()], f.valueInEngine)
}

// engineRun reports whether the declared function fn runs in engine
// context: its value (g.retry, say) flows to a callback.
func (f *Facts) engineRun(fn *types.Func) bool {
	f.indexValues()
	return anySite(f.runMemo, fn.Origin(), f.funcValues[fn.Origin()], f.flowsToEngine)
}

// anySite memoizes in memo[key] whether pred holds at any of sites,
// answering false to a recursive query.
func anySite[K comparable](memo map[K]bool, key K, sites []valueSite, pred func(valueSite) bool) bool {
	if r, ok := memo[key]; ok {
		return r
	}
	memo[key] = false
	for _, s := range sites {
		if pred(s) {
			memo[key] = true
			return true
		}
	}
	return false
}

// indexValues records, once, every read of a func-typed field and every
// use of a declared function as a value (not called) in the universe.
func (f *Facts) indexValues() {
	if f.fieldReads != nil {
		return
	}
	f.fieldReads, f.funcValues = map[*types.Var][]valueSite{}, map[*types.Func][]valueSite{}
	for _, pkg := range f.universe {
		for _, file := range pkg.Files {
			inspectPath(file, func(n ast.Node, path []ast.Node) bool {
				if len(path) == 0 {
					return true // the file itself
				}
				e, _ := n.(ast.Expr)
				id, _ := n.(*ast.Ident)
				if sel, ok := n.(*ast.SelectorExpr); ok {
					id = sel.Sel
				} else if sel, ok := path[len(path)-1].(*ast.SelectorExpr); ok && sel.Sel == id {
					id = nil // recorded with its selector
				}
				if id == nil {
					return true
				}
				site := valueSite{pkg.Info, e, append([]ast.Node(nil), path...)}
				switch obj := pkg.Info.Uses[id].(type) {
				case *types.Var:
					_, isFunc := obj.Type().Underlying().(*types.Signature)
					if isFunc && obj.IsField() && !isWritten(path[len(path)-1], e) {
						f.fieldReads[obj.Origin()] = append(f.fieldReads[obj.Origin()], site)
					}
				case *types.Func:
					if call, ok := path[len(path)-1].(*ast.CallExpr); !ok || call.Fun != e {
						f.funcValues[obj.Origin()] = append(f.funcValues[obj.Origin()], site)
					}
				}
				return true
			})
		}
	}
}

// isWritten reports whether parent writes e rather than reading it: e is
// an assignment's left-hand side or a composite literal's field key.
func isWritten(parent ast.Node, e ast.Expr) bool {
	switch p := parent.(type) {
	case *ast.AssignStmt:
		return slices.Contains(p.Lhs, e)
	case *ast.KeyValueExpr:
		return p.Key == e
	}
	return false
}

// inspectPath is ast.Inspect that also hands visit the ancestors of each
// node, outermost first.
func inspectPath(root ast.Node, visit func(n ast.Node, path []ast.Node) bool) {
	var path []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			path = path[:len(path)-1]
			return false
		}
		if !visit(n, path) {
			return false
		}
		path = append(path, n)
		return true
	})
}
