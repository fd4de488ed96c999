package lint

import "testing"

// TestSuppression verifies //lint:ignore directives silence findings on
// the flagged line or the line directly above it.
func TestSuppression(t *testing.T) {
	loader := NewTreeLoader(Testdata())
	pkgs, err := loader.Load("suppress")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := Run(loader, pkgs, Analyzers())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("diagnostic not suppressed: %s", d)
	}

	// The same package must produce findings when suppression is ignored:
	// prove the directives are load-bearing, not that the code is clean.
	var raw int
	facts := NewFacts(loader.Packages())
	for _, a := range Analyzers() {
		pass := &Pass{Analyzer: a, Fset: pkgs[0].Fset, Files: pkgs[0].Files, Pkg: pkgs[0].Types, TypesInfo: pkgs[0].Info, Facts: facts}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		raw += len(pass.diags)
	}
	if raw == 0 {
		t.Fatalf("suppress testdata produced no raw findings; directives are untested")
	}
}

// TestAnalyzerNames pins the analyzer set: scripts/check.sh and the docs
// reference these names.
func TestAnalyzerNames(t *testing.T) {
	want := []string{"procblock", "eventpair", "spanend", "allocfree", "errfree", "chunkconst", "detrand"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}
