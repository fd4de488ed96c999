package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ProcBlock flags calls to blocking simulator APIs made without a
// simulation process to block: the deadlock-by-construction class of bug.
//
// A call blocks when its callee takes a *sim.Proc and hands the baton
// back to the engine with it (the blocking fact, derived from function
// bodies down to Proc.Wait/WaitAll/WaitAny/Sleep); it may only run inside
// a *sim.Proc goroutine. The analyzer reports a call when
//
//   - the *sim.Proc argument is a nil literal and the callee blocks
//     without an `if p != nil` guard (the async-issue convention permits
//     nil only where it is guarded), or
//   - the call sits inside a func literal or method the engine runs to
//     completion on its own goroutine: one passed to
//     Engine.CallAt/CallAfter, Event.Then/OnTrigger or Queue.GetThen, or
//     to a parameter (the CallbackParam fact) or stored in a field that
//     reaches one of them, or
//   - no enclosing function receives a *sim.Proc and the proc value is
//     not obtained locally (e.g. from rank.Proc()).
var ProcBlock = &Analyzer{
	Name: "procblock",
	Doc:  "flags blocking simulator calls made outside a *sim.Proc context",
	Run:  runProcBlock,
}

const callbackMsg = "blocking call %s inside an engine-context callback (callbacks the engine runs must not block)"

func runProcBlock(pass *Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		inspectPath(file, func(n ast.Node, path []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if callee == nil {
				return true
			}
			bf := pass.Facts.blocking(callee)
			procExpr := procArg(call, bf)
			if procExpr == nil {
				return true
			}
			label := funcLabel(callee)
			label = label[strings.Index(label, ".")+1:]

			// Rule 1: a nil process can never block.
			if tv, ok := info.Types[procExpr]; ok && tv.IsNil() {
				if !bf.nilSafe {
					pass.Reportf(call.Pos(), "blocking call %s with nil *sim.Proc", label)
				}
				return true
			}

			// Rules 2 and 3: walk the enclosing function chain.
			for i := len(path) - 1; i >= 0; i-- {
				switch fn := path[i].(type) {
				case *ast.FuncLit:
					if funcHasParam(info, fn.Type, simPath, "Proc") {
						return true // a process body encloses the call
					}
					if pass.Facts.flowsToEngine(valueSite{info, fn, path[:i]}) {
						pass.Reportf(call.Pos(), callbackMsg, label)
						return true
					}
				case *ast.FuncDecl:
					if funcHasParam(info, fn.Type, simPath, "Proc") {
						return true
					}
					if recvIs(info, fn, simPath, "Proc") {
						return true // a method on Proc is itself process context
					}
					if obj, ok := info.Defs[fn.Name].(*types.Func); ok && pass.Facts.engineRun(obj) {
						pass.Reportf(call.Pos(), callbackMsg, label)
						return true
					}
					if procObtainedLocally(info, fn, procExpr) {
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
		found := false
		ast.Inspect(fn, func(n ast.Node) bool {
			var lhs, rhs []ast.Expr
			switch st := n.(type) {
			case *ast.AssignStmt:
				lhs, rhs = st.Lhs, st.Rhs
			case *ast.ValueSpec:
				for _, id := range st.Names {
					lhs = append(lhs, id)
				}
				rhs = st.Values
			}
			for i, l := range lhs {
				if id, ok := l.(*ast.Ident); ok && obj != nil && objOfIdent(info, id) == obj && len(rhs) > 0 {
					switch rhs[min(i, len(rhs)-1)].(type) {
					case *ast.CallExpr, *ast.SelectorExpr:
						found = true
					}
				}
			}
			return !found
		})
		return found
	}
	return false
}
