// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis vocabulary, built only on the standard
// library so the repository's domain linters (cmd/gwlint) carry no
// external dependencies. An Analyzer inspects one type-checked package
// through a Pass and reports Diagnostics; the driver (RunModule) handles
// loading, the //lint:allow escape hatch, rendering and exit codes.
//
// The suite encodes invariants that neither the compiler nor a running
// server can see, each of which needs a value's flow or the call graph:
// delivery-arena aliasing (arenaalias), the typed atomics (syncextra),
// the simulation's determinism (simdet), a provable lifecycle for every
// goroutine (gospawn), and lock order, including a totem node's protocol
// goroutine, which must never block (lockorder). docs/STATIC_ANALYSIS.md
// documents each invariant and its escape hatch.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check: a name (used in diagnostics and in
// //lint:allow directives), one-line documentation, and the per-package
// Run function.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // non-test files only
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	*p.diags = append(*p.diags, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: msg})
}

// Reportf records a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// RunAnalyzers applies every analyzer to one package and returns the
// findings that survive the //lint:allow directives found in files,
// together with diagnostics about malformed directives themselves.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path(), err)
		}
	}
	allows, malformed := collectAllows(fset, files, analyzers)
	kept := diags[:0]
	for _, d := range diags {
		if !allows.suppresses(fset, d) {
			kept = append(kept, d)
		}
	}
	return append(kept, malformed...), nil
}
