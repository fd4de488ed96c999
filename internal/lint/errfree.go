package lint

import (
	"go/ast"
)

// ErrFree flags discarded error results from Device.Free, Ctx.Free,
// Space.Free and Device.CheckAllocator.
//
// Free reports double-frees and frees of foreign pointers — the exact
// corruption modes a growing allocator-sharing codebase introduces — and
// CheckAllocator exists solely for its error. Dropping these results
// (calling them as a statement, assigning to _, or deferring them bare)
// silently converts allocator corruption into downstream mystery.
var ErrFree = &Analyzer{
	Name: "errfree",
	Doc:  "flags discarded error results of Device.Free, Ctx.Free, Space.Free and CheckAllocator",
	Run:  runErrFree,
}

// errCriticalMethods lists the calls whose error result must be consumed.
var errCriticalMethods = map[[3]string]bool{
	{gpuPath, "Device", "Free"}:           true,
	{gpuPath, "Device", "CheckAllocator"}: true,
	{cudaPath, "Ctx", "Free"}:             true,
	{memPath, "Space", "Free"}:            true,
}

func runErrFree(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = st.Call
			case *ast.GoStmt:
				call = st.Call
			case *ast.AssignStmt:
				// _ = x.Free(p) is as discarded as a bare statement.
				if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
					if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
						call, _ = st.Rhs[0].(*ast.CallExpr)
					}
				}
			}
			if call == nil {
				return true
			}
			mi, ok := methodCall(pass.TypesInfo, call)
			if !ok || !errCriticalMethods[[3]string{mi.pkgPath, mi.typeName, mi.method}] {
				return true
			}
			pass.Reportf(call.Pos(),
				"error result of %s.%s is discarded (allocator corruption would go unnoticed)",
				mi.typeName, mi.method)
			return true
		})
	}
	return nil
}
