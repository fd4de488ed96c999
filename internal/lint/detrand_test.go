package lint

import "testing"

func TestDetRand(t *testing.T) {
	RunGolden(t, Testdata(), DetRand, "detrand/internal/libd")
}

// TestDetRandCmdExempt verifies the cmd/ carve-out: the same constructs
// that are findings in library code are clean in a main package.
func TestDetRandCmdExempt(t *testing.T) {
	RunGolden(t, Testdata(), DetRand, "detrand/cmd/appd")
}

// TestDetRandSeededExempt verifies the seeded-randomness carve-out: a
// library file whose math/rand uses are confined to the explicit-seed
// constructors (rand.New(rand.NewSource(seed))) is deterministic by
// construction and draws no finding. The libd golden keeps the positive
// case: a file that also calls a package-level draw (rand.Int) is still
// flagged at the import.
func TestDetRandSeededExempt(t *testing.T) {
	RunGolden(t, Testdata(), DetRand, "detrand/internal/libseed")
}

// TestDetRandWorkerPoolExemption verifies the sanctioned worker-pool
// pattern: a documented //lint:ignore detrand on the pool spawn silences
// the go-statement finding at the driver level, while the raw analyzer
// still reports it (the directive is load-bearing, not dead).
func TestDetRandWorkerPoolExemption(t *testing.T) {
	loader := NewTreeLoader(Testdata())
	pkgs, err := loader.Load("suppress/internal/pool")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := Run(loader, pkgs, []*Analyzer{DetRand})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("worker-pool spawn not suppressed: %s", d)
	}

	facts := NewFacts(loader.Packages())
	pass := &Pass{Analyzer: DetRand, Fset: pkgs[0].Fset, Files: pkgs[0].Files, Pkg: pkgs[0].Types, TypesInfo: pkgs[0].Info, Facts: facts}
	if err := DetRand.Run(pass); err != nil {
		t.Fatalf("raw run: %v", err)
	}
	if len(pass.diags) == 0 {
		t.Fatal("raw detrand found nothing in the pool package; the //lint:ignore is untested")
	}
}
