package lint

import (
	"go/ast"
	"go/types"
)

// ProcBlock flags calls to blocking simulator APIs made without a
// simulation process to block: the deadlock-by-construction class of bug.
//
// Blocking operations (Stream.Synchronize, Event.Synchronize, Ctx.Memcpy/
// Memcpy2D/Memset, Proc.Wait/WaitAll/Sleep, Resource.Acquire,
// Queue.Get, Pool.Get/GetRail) hand the cooperative baton back to the
// engine; they may only run inside a *sim.Proc goroutine. The analyzer
// reports a call when
//
//   - the *sim.Proc argument is a nil literal (the async-issue convention
//     permits nil only for non-blocking calls), or
//   - the call sits inside an engine-context callback (a func literal
//     passed to Engine.CallAt/CallAfter, Event.OnTrigger/Then,
//     Resource.AcquireThen, Queue.GetThen, Pool.GetThen/GetRailThen,
//     Request.AwaitCTSThen/AwaitSlotThen/AwaitFinThen or a kernel
//     launch's body), which the engine runs to completion on its own
//     goroutine and must never block, or
//   - no enclosing function receives a *sim.Proc and the proc value is
//     not obtained locally (e.g. from rank.Proc()).
var ProcBlock = &Analyzer{
	Name: "procblock",
	Doc:  "flags blocking simulator calls made outside a *sim.Proc context",
	Run:  runProcBlock,
}

// blockingMethods maps (pkg, type, method) to the index of the *sim.Proc
// argument; -1 means the receiver itself is the process.
var blockingMethods = map[[3]string]int{
	{cudaPath, "Stream", "Synchronize"}: 0,
	{cudaPath, "Event", "Synchronize"}:  0,
	{cudaPath, "Ctx", "Memcpy"}:         0,
	{cudaPath, "Ctx", "Memcpy2D"}:       0,
	{cudaPath, "Ctx", "Memset"}:         0,
	{simPath, "Proc", "Wait"}:           -1,
	{simPath, "Proc", "WaitAll"}:        -1,
	{simPath, "Proc", "Sleep"}:          -1,
	{simPath, "Resource", "Acquire"}:    0,
	{simPath, "Queue", "Get"}:           0,
	{hostmemPath, "Pool", "Get"}:        0,
	{hostmemPath, "Pool", "GetRail"}:    0,
}

// engineCallbacks are the methods whose func-literal argument runs in
// engine context and therefore must not block: scheduled calls, event
// continuations and callbacks, grant, queue, vbuf and rendezvous-protocol
// continuations, and kernel bodies, which run as scheduled calls.
var engineCallbacks = map[[3]string]bool{
	{simPath, "Engine", "CallAt"}:         true,
	{simPath, "Engine", "CallAfter"}:      true,
	{simPath, "Event", "OnTrigger"}:       true,
	{simPath, "Event", "Then"}:            true,
	{simPath, "Resource", "AcquireThen"}:  true,
	{simPath, "Queue", "GetThen"}:         true,
	{hostmemPath, "Pool", "GetThen"}:      true,
	{hostmemPath, "Pool", "GetRailThen"}:  true,
	{mpiPath, "Request", "AwaitCTSThen"}:  true,
	{mpiPath, "Request", "AwaitSlotThen"}: true,
	{mpiPath, "Request", "AwaitFinThen"}:  true,
	{cudaPath, "Ctx", "LaunchKernel"}:     true,
	{cudaPath, "Ctx", "LaunchKernelTask"}: true,
	{cudaPath, "Ctx", "LaunchKernelInto"}: true,
}

func runProcBlock(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			mi, ok := methodCall(pass.TypesInfo, call)
			if !ok {
				return true
			}
			argIdx, blocking := blockingMethods[[3]string{mi.pkgPath, mi.typeName, mi.method}]
			if !blocking {
				return true
			}
			label := mi.typeName + "." + mi.method

			var procExpr ast.Expr
			if argIdx == -1 {
				procExpr = mi.recv
			} else if argIdx < len(call.Args) {
				procExpr = call.Args[argIdx]
			}
			if procExpr == nil {
				return true
			}

			// Rule 1: a nil process can never block.
			if tv, ok := pass.TypesInfo.Types[procExpr]; ok && tv.IsNil() {
				pass.Reportf(call.Pos(), "blocking call %s with nil *sim.Proc", label)
				return true
			}

			// Rules 2 and 3: walk the enclosing function chain.
			path := enclosing(file, call.Pos())
			for i := len(path) - 1; i >= 0; i-- {
				switch fn := path[i].(type) {
				case *ast.FuncLit:
					if funcHasParam(pass.TypesInfo, fn.Type, simPath, "Proc") {
						return true // a process body encloses the call
					}
					if i > 0 && isEngineCallbackArg(pass.TypesInfo, path[i-1], fn) {
						pass.Reportf(call.Pos(),
							"blocking call %s inside an engine-context callback (callbacks the engine runs must not block)", label)
						return true
					}
				case *ast.FuncDecl:
					if funcHasParam(pass.TypesInfo, fn.Type, simPath, "Proc") {
						return true
					}
					if recvIs(pass.TypesInfo, fn, simPath, "Proc") {
						return true // a method on Proc is itself process context
					}
					if procObtainedLocally(pass.TypesInfo, fn, procExpr) {
						return true
					}
					pass.Reportf(call.Pos(),
						"blocking call %s in a function that does not receive a *sim.Proc", label)
					return true
				}
			}
			return true
		})
	}
	return nil
}

// recvIs reports whether fn is a method whose receiver (behind pointers)
// is the named type pkgPath.name.
func recvIs(info *types.Info, fn *ast.FuncDecl, pkgPath, name string) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	t := info.TypeOf(fn.Recv.List[0].Type)
	return t != nil && typeIs(t, pkgPath, name)
}

// isEngineCallbackArg reports whether lit is an argument of a call to an
// engine-context callback registrar; parent is lit's parent node.
func isEngineCallbackArg(info *types.Info, parent ast.Node, lit *ast.FuncLit) bool {
	call, ok := parent.(*ast.CallExpr)
	if !ok {
		return false
	}
	isArg := false
	for _, a := range call.Args {
		if a == lit {
			isArg = true
		}
	}
	if !isArg {
		return false
	}
	mi, ok := methodCall(info, call)
	if !ok {
		return false
	}
	return engineCallbacks[[3]string{mi.pkgPath, mi.typeName, mi.method}]
}

// procObtainedLocally reports whether the proc expression is produced
// inside fn: a call (rank.Proc()), a field of a simulation object the
// function owns (r.proc), or a local variable assigned from a call.
func procObtainedLocally(info *types.Info, fn *ast.FuncDecl, procExpr ast.Expr) bool {
	switch e := procExpr.(type) {
	case *ast.CallExpr:
		return true
	case *ast.SelectorExpr:
		// A stored process field (e.g. rank.proc): the owning object
		// vouches for the process's validity.
		return true
	case *ast.Ident:
		obj := objOfIdent(info, e)
		if obj == nil {
			return false
		}
		found := false
		ast.Inspect(fn, func(n ast.Node) bool {
			if found {
				return false
			}
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || objOfIdent(info, id) != obj {
						continue
					}
					rhs := st.Rhs[0]
					if len(st.Rhs) == len(st.Lhs) {
						rhs = st.Rhs[i]
					}
					switch rhs.(type) {
					case *ast.CallExpr, *ast.SelectorExpr:
						found = true
					}
				}
			case *ast.ValueSpec:
				for i, id := range st.Names {
					if objOfIdent(info, id) != obj || i >= len(st.Values) {
						continue
					}
					switch st.Values[i].(type) {
					case *ast.CallExpr, *ast.SelectorExpr:
						found = true
					}
				}
			}
			return true
		})
		return found
	}
	return false
}
