package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"mv2sim/internal/lint/cfg"
)

// AllocFree enforces device-memory ownership discipline in library code.
//
// Check 1 (leaks, flow-sensitive): a mem.Ptr obtained from
// Device.Malloc/MustMalloc or Ctx.Malloc/MustMalloc in an internal/
// package must reach a release on EVERY non-panicking path to the
// function's exit: a call whose name contains "Free" (immediate or
// deferred), or a call to an in-tree helper whose cross-package fact says
// it frees that parameter on every path. Ownership may instead visibly
// transfer — returned, stored into a field/slice/map, captured by a
// closure, or passed to a function that may keep it (fact: Moves) — after
// which the function owes nothing. Borrowing uses (simulator copies,
// kernel launches, sends, and in-tree helpers with a Borrows fact) leave
// the obligation standing. For the two-value form `p, err := Malloc(n)`,
// paths that return the paired error owe no release: the allocation
// failed. The flow analysis catches the early-return leak the old
// syntactic check could not see: freed on the happy path, leaked on an
// error return between Malloc and Free.
//
// Check 2 (error propagation): MustMalloc and panic(err) are conveniences
// for main packages and for simulation-process bodies, where the engine
// re-raises the panic to the Run caller. In exported library API outside
// a simulation context the error should propagate as a return value;
// panicking turns a recoverable out-of-memory or configuration problem
// into a crash. Functions named Must* are exempt: they are documented
// panic wrappers.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc:  "flags device allocations that miss a Free on some path, and panic-instead-of-error in library code",
	Run:  runAllocFree,
}

func runAllocFree(pass *Pass) error {
	internal := isInternalLib(pass.Pkg.Path())
	cmdLike := isCmdOrMain(pass.Pkg.Path(), pass.Pkg.Name())
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || isTestFile(pass.Fset, fn.Pos()) {
				continue
			}
			if internal {
				checkLeaks(pass, fn)
			}
			if !cmdLike {
				checkErrorPropagation(pass, fn)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Check 1: allocations must reach a Free on every path

// isAllocCall reports whether call allocates device memory.
func isAllocCall(info *types.Info, call *ast.CallExpr) bool {
	mi, ok := methodCall(info, call)
	if !ok || (mi.method != "Malloc" && mi.method != "MustMalloc") {
		return false
	}
	return (mi.pkgPath == gpuPath && mi.typeName == "Device") ||
		(mi.pkgPath == cudaPath && mi.typeName == "Ctx")
}

// borrowingReceivers are types whose methods borrow pointer arguments
// without taking ownership.
var borrowingReceivers = map[[2]string]bool{
	{cudaPath, "Ctx"}:    true,
	{cudaPath, "Stream"}: true,
	{gpuPath, "Device"}:  true,
	{mpiPath, "Rank"}:    true,
	{memPath, "Ptr"}:     true,
	{memPath, "Space"}:   true,
}

func checkLeaks(pass *Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	rules := ptrUseRules{facts: pass.Facts}
	for _, body := range functionBodies(fn) {
		obls := collectObligations(info, body, func(call *ast.CallExpr) bool {
			return isAllocCall(info, call)
		})
		if len(obls) == 0 {
			continue
		}
		g := cfg.New(body)
		for _, o := range flowSurvivors(g, info, obls, rules) {
			pass.Reportf(o.call.Pos(),
				"device allocation assigned to %s is not freed on every path through this function (missing Free on some path to return)",
				o.obj.Name())
		}
	}
}

// calleeName extracts the called function or method name.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// ---------------------------------------------------------------------------
// Check 2: MustMalloc / panic(err) where errors should propagate

func checkErrorPropagation(pass *Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	if strings.HasPrefix(fn.Name.Name, "Must") {
		return
	}
	exported := fn.Name.IsExported()
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

	inspectPath(fn, func(n ast.Node, path []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// A body that receives a *sim.Proc or *cluster.Node runs inside a
		// simulation process, where panicking is the designed error
		// channel (the engine re-raises it at the Run caller).
		inSim := slices.ContainsFunc(path, func(n ast.Node) bool {
			return funcTypeOf(n) != nil && simContext(info, n)
		})

		// MustMalloc outside a simulation context.
		if mi, ok2 := methodCall(info, call); ok2 && mi.method == "MustMalloc" &&
			((mi.pkgPath == gpuPath && mi.typeName == "Device") || (mi.pkgPath == cudaPath && mi.typeName == "Ctx")) {
			if !inSim {
				pass.Reportf(call.Pos(),
					"MustMalloc panics on allocation failure; outside a simulation process the error should propagate (use Malloc and return the error)")
			}
			return true
		}

		// panic(err) in exported API outside a simulation context.
		if id, ok2 := call.Fun.(*ast.Ident); ok2 && id.Name == "panic" && len(call.Args) == 1 {
			tv, ok3 := info.Types[call.Args[0]]
			if ok3 && tv.Type != nil && types.Implements(tv.Type, errType) &&
				exported && !inSim {
				pass.Reportf(call.Pos(),
					"%s panics with an error value; exported library API should return the error (wrap with %%w)", fn.Name.Name)
			}
		}
		return true
	})
}
