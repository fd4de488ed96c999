package lint

import (
	"go/ast"
	"go/types"
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
	decls map[*types.Func]declOf

	ptrMemo  map[factKey]ParamFact
	ptrBusy  map[factKey]bool
	spanMemo map[factKey]ParamFact
	spanBusy map[factKey]bool

	visMemo map[*types.Func]visResult
	visBusy map[*types.Func]bool
}

type declOf struct {
	decl *ast.FuncDecl
	pkg  *Package
}

type factKey struct {
	fn    *types.Func
	index int
}

type visResult struct {
	visible bool
	why     string
}

// NewFacts indexes every function declaration in the universe.
func NewFacts(universe []*Package) *Facts {
	f := &Facts{
		decls:    map[*types.Func]declOf{},
		ptrMemo:  map[factKey]ParamFact{},
		ptrBusy:  map[factKey]bool{},
		spanMemo: map[factKey]ParamFact{},
		spanBusy: map[factKey]bool{},
		visMemo:  map[*types.Func]visResult{},
		visBusy:  map[*types.Func]bool{},
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
	d, ok := f.decls[fn]
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
	key := factKey{fn, index}
	if v, ok := f.ptrMemo[key]; ok {
		return v
	}
	if f.ptrBusy[key] {
		return ParamMoves // recursion: be conservative
	}
	f.ptrBusy[key] = true
	v := f.paramFact(fn, index, ptrUseRules{f})
	f.ptrBusy[key] = false
	f.ptrMemo[key] = v
	return v
}

// SpanParam is PtrParam for obs.Span parameters: releasing means calling
// Span.End (or passing the span to another releasing function).
func (f *Facts) SpanParam(fn *types.Func, index int) ParamFact {
	key := factKey{fn, index}
	if v, ok := f.spanMemo[key]; ok {
		return v
	}
	if f.spanBusy[key] {
		return ParamMoves
	}
	f.spanBusy[key] = true
	v := f.paramFact(fn, index, spanUseRules{f})
	f.spanBusy[key] = false
	f.spanMemo[key] = v
	return v
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
	d, ok := f.decls[fn]
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
// Determinism fact: does calling fn touch sim-visible state?

// SimVisible reports whether calling fn (transitively) touches
// simulation-visible state: schedules engine events, records obs tasks or
// counters, posts fabric work, takes or returns vbufs, mutates trace
// breakdowns, or prints to a writer. why names the API that makes it so.
func (f *Facts) SimVisible(fn *types.Func) (visible bool, why string) {
	if fn == nil {
		return false, ""
	}
	if v, ok := f.visMemo[fn]; ok {
		return v.visible, v.why
	}
	if base, ok := simVisibleBase(fn); ok {
		f.visMemo[fn] = visResult{true, base}
		return true, base
	}
	d, ok := f.decls[fn]
	if !ok {
		return false, "" // out-of-tree and not in the base table: assume pure
	}
	if f.visBusy[fn] {
		return false, "" // recursion: resolved by the outer frame
	}
	f.visBusy[fn] = true
	res := visResult{}
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		if res.visible {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(d.pkg.Info, call)
		if callee == nil || callee == fn {
			return true
		}
		if v, why := f.SimVisible(callee); v {
			res = visResult{true, funcLabel(callee) + " → " + why}
			if callee.Pkg() != nil && f.hasDeclFor(callee) {
				// Keep only the first hop for readability.
				res.why = funcLabel(callee) + " → " + lastHop(why)
			}
		}
		return !res.visible
	})
	f.visBusy[fn] = false
	f.visMemo[fn] = res
	return res.visible, res.why
}

func (f *Facts) hasDeclFor(fn *types.Func) bool {
	_, ok := f.decls[fn]
	return ok
}

func lastHop(why string) string {
	if i := strings.LastIndex(why, "→ "); i >= 0 {
		return why[i+len("→ "):]
	}
	return why
}

// funcLabel renders fn as pkg.Type.Method or pkg.Func for messages.
func funcLabel(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		p := fn.Pkg().Path()
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		pkg = p + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			return pkg + n.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// simVisibleBase classifies fn against the base table of APIs whose call
// order is observable in simulation results: engine scheduling, obs task
// and counter records, tracer callbacks, vbuf pool accounting, fabric
// posts, trace breakdowns, and direct printing.
func simVisibleBase(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	pkgPath := fn.Pkg().Path()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		n := namedOf(sig.Recv().Type())
		if n == nil {
			return "", false
		}
		if simVisibleMethods[[3]string{pkgPath, n.Obj().Name(), fn.Name()}] {
			return funcLabel(fn), true
		}
		return "", false
	}
	if simVisibleFuncs[[2]string{pkgPath, fn.Name()}] {
		return funcLabel(fn), true
	}
	return "", false
}

// tracePath and hostmemPath/ibPath extend the analyzer-known import paths
// (lint.go) for the determinism domain.
const (
	tracePath   = "mv2sim/internal/trace"
	hostmemPath = "mv2sim/internal/hostmem"
	ibPath      = "mv2sim/internal/ib"
)

var simVisibleMethods = map[[3]string]bool{
	// Engine scheduling and lifecycle: creation and dispatch order define
	// the event sequence.
	{simPath, "Engine", "CallAt"}:        true,
	{simPath, "Engine", "CallAfter"}:     true,
	{simPath, "Engine", "Spawn"}:         true,
	{simPath, "Engine", "SpawnAt"}:       true,
	{simPath, "Engine", "Run"}:           true,
	{simPath, "Engine", "RunUntil"}:      true,
	{simPath, "Engine", "Shutdown"}:      true,
	{simPath, "Engine", "NewEvent"}:      true,
	{simPath, "Engine", "NewResource"}:   true,
	{simPath, "Event", "Trigger"}:        true,
	{simPath, "Event", "OnTrigger"}:      true,
	{simPath, "Event", "Then"}:           true,
	{simPath, "Proc", "Wait"}:            true,
	{simPath, "Proc", "WaitAll"}:         true,
	{simPath, "Proc", "WaitAny"}:         true,
	{simPath, "Proc", "Sleep"}:           true,
	{simPath, "Resource", "Acquire"}:     true,
	{simPath, "Resource", "AcquireThen"}: true,
	{simPath, "Resource", "Release"}:     true,
	{simPath, "Queue", "Put"}:            true,
	{simPath, "Queue", "Get"}:            true,
	{simPath, "Queue", "GetThen"}:        true,
	{simPath, "Queue", "TryGet"}:         true,

	// Task stream: record order is byte-visible in Chrome traces.
	{obsPath, "Hub", "Start"}:             true,
	{obsPath, "Hub", "StartTask"}:         true,
	{obsPath, "Hub", "StartChild"}:        true,
	{obsPath, "Hub", "Instant"}:           true,
	{obsPath, "Hub", "InstantChild"}:      true,
	{obsPath, "Hub", "Counter"}:           true,
	{obsPath, "Span", "End"}:              true,
	{obsPath, "Span", "Step"}:             true,
	{obsPath, "Span", "DependsOn"}:        true,
	{obsPath, "Span", "DependsOnTask"}:    true,
	{obsPath, "Tracer", "TaskStart"}:      true,
	{obsPath, "Tracer", "TaskEnd"}:        true,
	{obsPath, "Tracer", "TaskStep"}:       true,
	{obsPath, "Tracer", "CounterSample"}:  true,
	{obsPath, "DepTracer", "TaskDepends"}: true,

	// Rail/vbuf accounting and fabric posts.
	{hostmemPath, "Pool", "Get"}:         true,
	{hostmemPath, "Pool", "GetRail"}:     true,
	{hostmemPath, "Pool", "GetThen"}:     true,
	{hostmemPath, "Pool", "GetRailThen"}: true,
	{hostmemPath, "Pool", "TryGet"}:      true,
	{hostmemPath, "Pool", "TryGetRail"}:  true,
	{hostmemPath, "Pool", "Put"}:         true,
	{ibPath, "HCA", "PostSendRailInto"}:  true,
	{ibPath, "HCA", "RDMAWrite"}:         true,
	{ibPath, "HCA", "RDMAWriteRail"}:     true,
	{ibPath, "HCA", "RDMAWriteRailInto"}: true,
	{ibPath, "HCA", "RDMAReadInto"}:      true,
	{ibPath, "HCA", "Register"}:          true,
	{ibPath, "HCA", "Deregister"}:        true,

	// Trace breakdowns: key insertion order is the report's row order.
	{tracePath, "Breakdown", "Add"}:   true,
	{tracePath, "Breakdown", "Timed"}: true,
	{tracePath, "Breakdown", "Merge"}: true,
	{tracePath, "Breakdown", "Scale"}: true,
	{tracePath, "Breakdown", "Sub"}:   true,
}

var simVisibleFuncs = map[[2]string]bool{
	// Writer-directed printing: emit order is output order.
	{"fmt", "Print"}:    true,
	{"fmt", "Printf"}:   true,
	{"fmt", "Println"}:  true,
	{"fmt", "Fprint"}:   true,
	{"fmt", "Fprintf"}:  true,
	{"fmt", "Fprintln"}: true,
}
