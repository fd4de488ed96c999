package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages using only the standard
// library. Imports inside the loaded tree are resolved from source;
// everything else falls back to a source importer rooted at GOROOT, so
// loading works without pre-built export data or network access.
type Loader struct {
	fset         *token.FileSet
	resolve      func(importPath string) (dir string, ok bool)
	includeTests bool

	std  types.ImporterFrom
	pkgs map[string]*loadEntry
}

type loadEntry struct {
	pkg      *Package
	checking bool
}

// NewModuleLoader creates a loader for the Go module rooted at dir; import
// paths under the module path resolve to source directories in the tree.
func NewModuleLoader(root string, includeTests bool) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := newLoader(includeTests)
	l.resolve = func(importPath string) (string, bool) {
		if importPath == modPath {
			return root, true
		}
		if rest, ok := strings.CutPrefix(importPath, modPath+"/"); ok {
			return filepath.Join(root, filepath.FromSlash(rest)), true
		}
		return "", false
	}
	return l, nil
}

func newLoader(includeTests bool) *Loader {
	fset := token.NewFileSet()
	std, _ := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return &Loader{
		fset:         fset,
		includeTests: includeTests,
		std:          std,
		pkgs:         map[string]*loadEntry{},
	}
}

// Fset returns the loader's file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Packages returns every in-tree package the loader has loaded so far —
// the requested packages and their transitive in-tree dependencies —
// sorted by import path. This is the natural Facts universe: helper
// functions live in dependencies that may not themselves be analyzed.
func (l *Loader) Packages() []*Package {
	var out []*Package
	for _, e := range l.pkgs {
		if e.pkg != nil {
			out = append(out, e.pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// ModulePackages walks the module tree under root and returns the import
// paths of every package directory (skipping testdata, hidden directories
// and non-Go directories), relative to the module path.
func ModulePackages(root string) ([]string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var out []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "scripts") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, modPath)
		} else {
			out = append(out, modPath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// Load parses and type-checks the named import paths (and, transitively,
// their in-tree dependencies), returning them in dependency order.
// Directories that hold only excluded files (e.g. _test.go files when
// tests are off) are skipped silently.
func (l *Loader) Load(paths ...string) ([]*Package, error) {
	var out []*Package
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

func (l *Loader) load(path string) (*Package, error) {
	if e, ok := l.pkgs[path]; ok {
		if e.checking {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return e.pkg, nil
	}
	dir, ok := l.resolve(path)
	if !ok {
		return nil, fmt.Errorf("lint: cannot resolve import path %s", path)
	}
	entry := &loadEntry{checking: true}
	l.pkgs[path] = entry

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		// Test-only directory with tests excluded: nothing to analyze.
		entry.checking = false
		return nil, nil
	}

	// Load in-tree dependencies first so type identity is shared.
	for _, f := range files {
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if _, inTree := l.resolve(ip); inTree && ip != path {
				if _, err := l.load(ip); err != nil {
					return nil, err
				}
			}
		}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: &chainImporter{l: l, srcDir: dir},
		Error: func(err error) {
			typeErrs = append(typeErrs, err)
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type errors in %s: %v", path, typeErrs[0])
	}
	entry.pkg = &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	entry.checking = false
	return entry.pkg, nil
}

func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !l.includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	// External test packages (package foo_test) cannot be mixed into the
	// same type-check; keep only the majority (non-_test-suffixed) package.
	var kept []*ast.File
	for _, f := range files {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			kept = append(kept, f)
		}
	}
	if len(kept) > 0 {
		return kept, nil
	}
	return files, nil
}

// chainImporter resolves in-tree imports from the loader and everything
// else (the standard library) from source under GOROOT.
type chainImporter struct {
	l      *Loader
	srcDir string
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := c.l.resolve(path); ok {
		pkg, err := c.l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: import %s has no Go files", path)
		}
		return pkg.Types, nil
	}
	if c.l.std == nil {
		return nil, fmt.Errorf("lint: no standard-library importer for %s", path)
	}
	return c.l.std.ImportFrom(path, c.srcDir, 0)
}
