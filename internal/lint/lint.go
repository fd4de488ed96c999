// Package lint implements mv2lint, a suite of static analyzers that
// machine-check the simulator's GPU/MPI invariants: the discipline the
// type system cannot see, but whose violation is how datatype-pipeline
// code actually breaks (blocking calls outside a simulation process,
// unrecorded events, leaked device allocations, swallowed Free errors,
// magic pipeline block sizes).
//
// The framework is a deliberately small, dependency-free re-implementation
// of the golang.org/x/tools/go/analysis surface this repository needs:
// an Analyzer runs once per type-checked package and reports position-
// anchored diagnostics. Packages are loaded and type-checked with the
// standard library only (go/parser + go/types, with a source importer for
// the standard library), so the linter builds in a hermetic environment.
//
// False positives are suppressed with a directive on the flagged line or
// the line directly above it:
//
//	//lint:ignore <analyzer> reason the code is actually fine
//
// where <analyzer> is one analyzer name, a comma-separated list, or "all".
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// encodes.
	Doc string
	// Run performs the check on one package, reporting findings through
	// the pass.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts answers cross-package questions about functions anywhere in
	// the loaded universe ("does this callee free its pointer param?"),
	// so analyzers can see through helpers instead of forcing
	// //lint:ignore suppressions at every call site.
	Facts *Facts

	diags []Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers lists every analyzer in the suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{ProcBlock, EventPair, SpanEnd, AllocFree, ErrFree, ChunkConst, DetRand}
}

// Run applies the analyzers to pkgs and returns the surviving
// diagnostics (after //lint:ignore suppression), sorted by position.
// Facts are computed over every package l has loaded: pkgs and their
// in-tree dependencies, so a helper in a package that is not itself
// linted is still seen through.
func Run(l *Loader, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := NewFacts(l.Packages())
	var out []Diagnostic
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Facts:     facts,
			}
			if err := a.Run(pass); err != nil {
				return out, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if !ignores.suppressed(a.Name, d.Pos) {
					out = append(out, d)
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer), strings.Compare(a.Message, b.Message))
	})
	// De-duplicate identical findings: the same position can be analyzed
	// twice when a package is loaded both as itself and as the in-package
	// half of its test variant.
	return slices.Compact(out), nil
}

// ---------------------------------------------------------------------------
// //lint:ignore directives

type ignoreSet struct {
	// byFile maps filename -> line -> analyzer names (or "all").
	byFile map[string]map[int][]string
}

func collectIgnores(fset *token.FileSet, files []*ast.File) *ignoreSet {
	s := &ignoreSet{byFile: map[string]map[int][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				m := s.byFile[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					s.byFile[pos.Filename] = m
				}
				names := strings.Split(fields[0], ",")
				m[pos.Line] = append(m[pos.Line], names...)
			}
		}
	}
	return s
}

// suppressed reports whether a directive on the diagnostic's line or the
// line directly above it names the analyzer.
func (s *ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	m := s.byFile[pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range m[line] {
			if name == analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Shared type-matching helpers. Analyzers identify simulator API by
// (package path, type name, method name); testdata stubs are loaded under
// the same import paths so golden tests exercise identical matching.

// Import paths of the packages whose APIs the analyzers know.
const (
	simPath     = "mv2sim/internal/sim"
	cudaPath    = "mv2sim/internal/cuda"
	gpuPath     = "mv2sim/internal/gpu"
	memPath     = "mv2sim/internal/mem"
	mpiPath     = "mv2sim/internal/mpi"
	clusterPath = "mv2sim/internal/cluster"
	obsPath     = "mv2sim/internal/obs"
)

// namedOf unwraps pointers and generic instantiations down to the
// defining *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// typeIs reports whether t (possibly behind pointers) is the named type
// pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// methodCall resolves a call expression to (receiver type name info,
// method name). ok is false for non-method calls.
type methodInfo struct {
	pkgPath  string
	typeName string
	method   string
	recv     ast.Expr
}

func methodCall(info *types.Info, call *ast.CallExpr) (methodInfo, bool) {
	sel, _ := call.Fun.(*ast.SelectorExpr)
	if sel == nil {
		return methodInfo{}, false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return methodInfo{}, false
	}
	n := namedOf(selection.Recv())
	if n == nil || n.Obj().Pkg() == nil {
		return methodInfo{}, false
	}
	return methodInfo{
		pkgPath:  n.Obj().Pkg().Path(),
		typeName: n.Obj().Name(),
		method:   sel.Sel.Name,
		recv:     sel.X,
	}, true
}

// funcHasParam reports whether ft declares a parameter whose type matches
// pkgPath.name (behind any pointers).
func funcHasParam(info *types.Info, ft *ast.FuncType, pkgPath, name string) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if t := info.TypeOf(field.Type); t != nil && typeIs(t, pkgPath, name) {
			return true
		}
	}
	return false
}

// funcTypeOf extracts the *ast.FuncType from a FuncDecl or FuncLit node.
func funcTypeOf(n ast.Node) *ast.FuncType {
	switch f := n.(type) {
	case *ast.FuncDecl:
		return f.Type
	case *ast.FuncLit:
		return f.Type
	}
	return nil
}

// simContext reports whether the function node runs with a simulation
// process in hand: it receives a *sim.Proc directly, or a *cluster.Node
// (cluster.Run rank bodies execute inside a spawned process).
func simContext(info *types.Info, n ast.Node) bool {
	ft := funcTypeOf(n)
	return funcHasParam(info, ft, simPath, "Proc") || funcHasParam(info, ft, clusterPath, "Node")
}

// pkgClass classifies a package path for scoping rules.
func isCmdOrMain(pkgPath, pkgName string) bool {
	return pkgName == "main" || strings.Contains(pkgPath, "/cmd/") ||
		strings.HasPrefix(pkgPath, "cmd/") || strings.Contains(pkgPath, "/examples/")
}

func isInternalLib(pkgPath string) bool {
	return strings.Contains(pkgPath, "/internal/") || strings.HasPrefix(pkgPath, "internal/")
}

// isTestFile reports whether the position is inside a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// objOfIdent resolves an identifier to its object via Uses or Defs.
func objOfIdent(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
