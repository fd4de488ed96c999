package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// This file is a miniature of golang.org/x/tools/go/analysis/analysistest:
// golden tests annotate testdata sources with expectations in trailing
// comments,
//
//	ctx.Memcpy(nil, dst, src, n) // want `blocking call .* nil`
//
// and RunGolden checks the analyzer's diagnostics against them: every
// `// want "regexp"` must be matched by a diagnostic on its line, and
// every diagnostic must be covered by a want comment. Test packages live
// under testdata/src/<importpath>, the same layout analysistest uses, so
// stubs of the simulator packages can be provided under their real import
// paths.

var wantRe = regexp.MustCompile("// want `([^`]*)`|// want \"([^\"]*)\"")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// GoldenResult is the outcome of one golden run, reported through t.
type testingT interface {
	Errorf(format string, args ...interface{})
	Fatalf(format string, args ...interface{})
	Helper()
}

// RunGolden loads testdata/src/<pkgPath> with the given tree loader and
// checks analyzer diagnostics against // want comments.
func RunGolden(t testingT, srcRoot string, a *Analyzer, pkgPath string) {
	t.Helper()
	loader := NewTreeLoader(srcRoot)
	pkgs, err := loader.Load(pkgPath)
	if err != nil {
		t.Fatalf("load %s: %v", pkgPath, err)
	}
	diags, err := Run(loader, pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, pkgPath, err)
	}

	expects := collectWants(pkgs[0].Fset, pkgs[0].Files)
	for _, d := range diags {
		covered := false
		for _, e := range expects {
			if e.file == d.Pos.Filename && e.line == d.Pos.Line && e.pattern.MatchString(d.Message) {
				e.matched = true
				covered = true
			}
		}
		if !covered {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, d)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none",
				a.Name, e.file, e.line, e.pattern)
		}
	}
}

func collectWants(fset *token.FileSet, files []*ast.File) []*expectation {
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						panic(fmt.Sprintf("bad want pattern %q: %v", pat, err))
					}
					pos := fset.Position(c.Pos())
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out
}

// NewTreeLoader creates a loader that resolves every import path to
// srcRoot/<path> when that directory exists — the layout analysistest-style
// golden tests use (testdata/src/<importpath>).
func NewTreeLoader(srcRoot string) *Loader {
	l := newLoader(true)
	l.resolve = func(importPath string) (string, bool) {
		dir := filepath.Join(srcRoot, filepath.FromSlash(importPath))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
		return "", false
	}
	return l
}

// Testdata returns the conventional testdata/src root next to the test.
func Testdata() string { return strings.Join([]string{"testdata", "src"}, "/") }
