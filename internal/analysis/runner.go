package analysis

import (
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"
)

// GlobalCheck is a whole-module pass run by the driver after every
// package-local pass: cross-package invariants (a lock-order cycle that
// only closes across packages) live here.
type GlobalCheck func(l *Loader, pkgs []*Package) []Diagnostic

// RunModule is the `gwlint ./...` entry point: load the module rooted at
// dir, run every analyzer on every package, then the global checks,
// render the findings with print (PrintDiagnostics for the vet-style
// text form, PrintJSON for CI) and return the process exit code.
func RunModule(w io.Writer, dir string, patterns []string, analyzers []*Analyzer, globals []GlobalCheck, print func(io.Writer, *token.FileSet, []Diagnostic)) int {
	l, pkgs, err := LoadModule(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gwlint:", err)
		return 1
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ds, err := RunAnalyzers(l.Fset, pkg.Files, pkg.Types, pkg.Info, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gwlint:", err)
			return 1
		}
		diags = append(diags, ds...)
	}
	for _, g := range globals {
		diags = append(diags, g(l, pkgs)...)
	}
	print(w, l.Fset, diags)
	if len(diags) == 0 {
		return 0
	}
	return 2
}

// PrintDiagnostics renders findings vet-style, sorted by position.
func PrintDiagnostics(w io.Writer, fset *token.FileSet, diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Message < diags[j].Message
	})
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
