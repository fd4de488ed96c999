// Command mv2lint is the multichecker for the repository's custom static
// analyzers (internal/lint): procblock, eventpair, spanend, allocfree,
// errfree, chunkconst and detrand. It loads and type-checks the module
// with the standard library only — no network, no pre-built export data —
// so it runs anywhere the repo builds.
//
// Usage:
//
//	mv2lint [flags] [./... | import/path ...]
//
// Machine-readable reports: -json and -sarif write the findings to the
// given path ("-" for stdout) in addition to the human-readable listing;
// -github emits GitHub Actions ::error annotations. Reports are written
// even when there are no findings, so CI always has an artifact.
//
// Exit status: 0 clean, 1 findings, 2 load or usage errors. Suppress a
// false positive with a directive on the flagged line or the line above:
//
//	//lint:ignore <analyzer> reason
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mv2sim/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	tests := flag.Bool("tests", false, "also lint _test.go files")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.String("json", "", "write findings as JSON to this path (\"-\" for stdout)")
	sarifOut := flag.String("sarif", "", "write findings as SARIF 2.1.0 to this path (\"-\" for stdout)")
	github := flag.Bool("github", false, "emit GitHub Actions ::error annotations on stdout")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
			}
		}
		if len(sel) == 0 {
			fmt.Fprintf(os.Stderr, "mv2lint: no analyzer matches -only=%s\n", *only)
			os.Exit(2)
		}
		analyzers = sel
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mv2lint: %v\n", err)
		os.Exit(2)
	}

	paths, err := targetPackages(root, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "mv2lint: %v\n", err)
		os.Exit(2)
	}

	loader, err := lint.NewModuleLoader(root, *tests)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mv2lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(paths...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mv2lint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Run(loader, pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mv2lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		rel := d.Pos.String()
		if r, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			rel = fmt.Sprintf("%s:%d:%d", r, d.Pos.Line, d.Pos.Column)
		}
		fmt.Printf("%s: %s (%s)\n", rel, d.Message, d.Analyzer)
	}
	if *github {
		lint.WriteGitHub(os.Stdout, root, diags)
	}
	writeReport(*jsonOut, func(w io.Writer) error {
		return lint.WriteJSON(w, root, diags)
	})
	writeReport(*sarifOut, func(w io.Writer) error {
		return lint.WriteSARIF(w, root, analyzers, diags)
	})
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mv2lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// writeReport writes one report to path ("" = off, "-" = stdout).
func writeReport(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	if path == "-" {
		if err := write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "mv2lint: %v\n", err)
			os.Exit(2)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mv2lint: %v\n", err)
		os.Exit(2)
	}
	if err := write(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mv2lint: %v\n", err)
		os.Exit(2)
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// targetPackages expands the command-line patterns. "./..." (and no
// arguments at all) means every package in the module; "./x/y" means that
// one directory.
func targetPackages(root string, args []string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	all, err := lint.ModulePackages(root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			out = append(out, all...)
		case strings.HasSuffix(arg, "/..."):
			prefix := strings.TrimSuffix(arg, "/...")
			prefix = strings.TrimPrefix(prefix, "./")
			matched := false
			for _, p := range all {
				if strings.Contains(p, "/"+prefix+"/") || strings.HasSuffix(p, "/"+prefix) ||
					strings.Contains(p, "/"+prefix+"/") {
					out = append(out, p)
					matched = true
				}
			}
			// Also match by path suffix inside the module.
			for _, p := range all {
				if strings.Contains(p, prefix) && !matched {
					out = append(out, p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("pattern %s matches no packages", arg)
			}
		default:
			rel := strings.TrimPrefix(arg, "./")
			found := false
			for _, p := range all {
				if strings.HasSuffix(p, "/"+rel) || p == rel {
					out = append(out, p)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("package %s not found in module", arg)
			}
		}
	}
	return out, nil
}
