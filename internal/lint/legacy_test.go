package lint

import (
	"bufio"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// This file proves the acceptance criterion for the flow-sensitive
// rewrite: the golden packages contain seeded bugs (marked with a
// "seeded:flow-only" comment) that the pre-v2 syntactic analyzers
// demonstrably do NOT catch, while the dataflow versions do. The legacy
// analyzers below are faithful reimplementations of the shipped pre-v2
// checkLeaks/checkSpanEnds: one boolean per tracked object ("freed/ended
// somewhere?", "escaped somewhere?") with no path sensitivity.

func TestSeededFlowBugsEscapeLegacyAnalyzers(t *testing.T) {
	cases := []struct {
		path   string
		file   string
		legacy *Analyzer
		fresh  *Analyzer
	}{
		{"allocfree/internal/liba", "liba.go", legacyAllocFree, AllocFree},
		{"spanend", "spanend.go", legacySpanEnd, SpanEnd},
	}
	for _, tc := range cases {
		t.Run(tc.legacy.Name, func(t *testing.T) {
			src := filepath.Join(Testdata(), filepath.FromSlash(tc.path), tc.file)
			seeded := seededLines(t, src)
			if len(seeded) < 2 {
				t.Fatalf("%s: found %d seeded:flow-only bugs, want at least 2", tc.file, len(seeded))
			}

			loader := NewTreeLoader(Testdata())
			pkgs, err := loader.Load(tc.path)
			if err != nil {
				t.Fatalf("load %s: %v", tc.path, err)
			}
			legacyDiags, err := Run(loader, pkgs, []*Analyzer{tc.legacy})
			if err != nil {
				t.Fatalf("legacy run: %v", err)
			}
			freshDiags, err := Run(loader, pkgs, []*Analyzer{tc.fresh})
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}

			atLine := func(diags []Diagnostic, line int) bool {
				for _, d := range diags {
					if filepath.Base(d.Pos.Filename) == tc.file && d.Pos.Line == line {
						return true
					}
				}
				return false
			}
			for _, line := range seeded {
				if atLine(legacyDiags, line) {
					t.Errorf("%s:%d: seeded flow bug IS caught by the legacy syntactic analyzer; it does not demonstrate the flow-sensitive upgrade", tc.file, line)
				}
				if !atLine(freshDiags, line) {
					t.Errorf("%s:%d: seeded flow bug is NOT caught by the dataflow analyzer", tc.file, line)
				}
			}
		})
	}
}

// seededLines returns the 1-based line numbers of the `// want` markers
// that follow each "seeded:flow-only" doc comment in the file.
func seededLines(t *testing.T, path string) []int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	var lines []int
	pending := false
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		n++
		if strings.Contains(sc.Text(), "seeded:flow-only") {
			pending = true
			continue
		}
		if pending && strings.Contains(sc.Text(), "// want") {
			lines = append(lines, n)
			pending = false
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan %s: %v", path, err)
	}
	return lines
}

// ---------------------------------------------------------------------------
// Legacy allocfree (leak check only; the error-propagation check is
// unchanged in v2 and needs no comparison).

var legacyAllocFree = &Analyzer{
	Name: "legacy-allocfree",
	Doc:  "pre-v2 syntactic leak check: freed-anywhere / escaped-anywhere booleans",
	Run: func(pass *Pass) error {
		if !isInternalLib(pass.Pkg.Path()) {
			return nil
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || isTestFile(pass.Fset, fn.Pos()) {
					continue
				}
				legacyCheckLeaks(pass, fn)
			}
		}
		return nil
	},
}

type legacyAllocState struct {
	obj   types.Object
	pos   ast.Node
	freed bool
	moved bool
}

func legacyCheckLeaks(pass *Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	allocs := map[types.Object]*legacyAllocState{}

	ast.Inspect(fn, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			call, ok := as.Rhs[i].(*ast.CallExpr)
			if !ok || !isAllocCall(info, call) {
				continue
			}
			obj := objOfIdent(info, id)
			if obj == nil || allocs[obj] != nil {
				continue
			}
			allocs[obj] = &legacyAllocState{obj: obj, pos: call}
		}
		return true
	})
	if len(allocs) == 0 {
		return
	}

	ast.Inspect(fn, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			legacyMarkDeep(info, st, allocs, func(a *legacyAllocState) { a.moved = true })
			return false
		case *ast.CallExpr:
			legacyClassifyCallUse(info, st, allocs)
			return true
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				if !legacyMentionsDirect(info, rhs, allocs) {
					continue
				}
				if call, ok := rhs.(*ast.CallExpr); ok && isAllocCall(info, call) {
					continue
				}
				legacyMarkDirect(info, rhs, allocs, func(a *legacyAllocState) { a.moved = true })
			}
			return true
		case *ast.CompositeLit, *ast.UnaryExpr:
			if legacyMentionsDirect(info, n, allocs) {
				legacyMarkDirect(info, n, allocs, func(a *legacyAllocState) { a.moved = true })
			}
			return true
		}
		return true
	})

	for _, a := range allocs {
		if !a.freed && !a.moved {
			pass.Reportf(a.pos.Pos(),
				"device allocation assigned to %s is never freed and never escapes this function (missing Free)",
				a.obj.Name())
		}
	}
}

func legacyClassifyCallUse(info *types.Info, call *ast.CallExpr, allocs map[types.Object]*legacyAllocState) {
	mentioned := false
	for _, a := range call.Args {
		if legacyMentionsDirect(info, a, allocs) {
			mentioned = true
		}
	}
	if !mentioned {
		return
	}
	mark := func(f func(*legacyAllocState)) {
		for _, a := range call.Args {
			legacyMarkDirect(info, a, allocs, f)
		}
	}
	if strings.Contains(strings.ToLower(calleeName(call)), "free") {
		mark(func(st *legacyAllocState) { st.freed = true })
		return
	}
	if mi, ok := methodCall(info, call); ok && borrowingReceivers[[2]string{mi.pkgPath, mi.typeName}] {
		return
	}
	mark(func(st *legacyAllocState) { st.moved = true })
}

func legacyMentionsDirect(info *types.Info, node ast.Node, allocs map[types.Object]*legacyAllocState) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.CallExpr, *ast.FuncLit:
			return false
		}
		if id, ok := n.(*ast.Ident); ok && allocs[objOfIdent(info, id)] != nil {
			found = true
		}
		return !found
	})
	return found
}

func legacyMarkDirect(info *types.Info, node ast.Node, allocs map[types.Object]*legacyAllocState, f func(*legacyAllocState)) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.CallExpr, *ast.FuncLit:
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if st := allocs[objOfIdent(info, id)]; st != nil {
				f(st)
			}
		}
		return true
	})
}

func legacyMarkDeep(info *types.Info, node ast.Node, allocs map[types.Object]*legacyAllocState, f func(*legacyAllocState)) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if st := allocs[objOfIdent(info, id)]; st != nil {
				f(st)
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Legacy spanend.

var legacySpanEnd = &Analyzer{
	Name: "legacy-spanend",
	Doc:  "pre-v2 syntactic span check: ended-anywhere / escaped-anywhere booleans",
	Run: func(pass *Pass) error {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				legacyCheckSpanEnds(pass, fn)
			}
		}
		return nil
	},
}

type legacySpanState struct {
	obj     types.Object
	start   *ast.CallExpr
	ended   bool
	escaped bool
}

func legacyCheckSpanEnds(pass *Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	spans := map[types.Object]*legacySpanState{}

	ast.Inspect(fn, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != len(as.Lhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			call, ok := as.Rhs[i].(*ast.CallExpr)
			if !ok {
				continue
			}
			mi, ok := methodCall(info, call)
			if !ok || !isHubStart(mi) {
				continue
			}
			if obj := objOfIdent(info, id); obj != nil {
				spans[obj] = &legacySpanState{obj: obj, start: call}
			}
		}
		return true
	})
	if len(spans) == 0 {
		return
	}

	escape := func(st *legacySpanState) { st.escaped = true }
	markMentioned := func(node ast.Node, f func(*legacySpanState)) {
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if st := spans[objOfIdent(info, id)]; st != nil {
					f(st)
				}
			}
			return true
		})
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			markMentioned(n, escape)
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if _, ok := rhs.(*ast.CallExpr); ok {
					continue
				}
				markMentioned(rhs, escape)
			}
		case *ast.CallExpr:
			mi, ok := methodCall(info, n)
			if ok && mi.pkgPath == obsPath && mi.typeName == "Span" {
				if id, ok := mi.recv.(*ast.Ident); ok {
					if st := spans[objOfIdent(info, id)]; st != nil {
						if mi.method == "End" {
							st.ended = true
						}
						return true
					}
				}
			}
			if ok && isHubStart(mi) {
				return true
			}
			for _, a := range n.Args {
				markMentioned(a, escape)
			}
		}
		return true
	})

	for _, st := range spans {
		if st.ended || st.escaped {
			continue
		}
		pass.Reportf(st.start.Pos(),
			"span %s is started but never ended in this function (Span.End must run on every path)",
			st.obj.Name())
	}
}
