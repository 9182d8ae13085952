// Package analysistest is a small golden-file harness for the gwlint
// analyzers, mirroring golang.org/x/tools/go/analysis/analysistest:
// test packages live under testdata/src/<pkg>/, and every line where an
// analyzer must report carries a trailing comment of the form
//
//	code() // want "regexp" "another regexp"
//
// The harness type-checks the testdata package against the real module
// (so corpora may import eternalgw/internal/... packages), runs the
// analyzer through the same RunAnalyzers entry point the driver uses —
// //lint:allow processing included — and fails the test on any
// unexpected or missing diagnostic.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"eternalgw/internal/analysis"
)

// The module is listed and type-checked once per test binary: every Run
// call shares one Loader, so corpora that import eternalgw packages see
// the same type identities the analyzers key on.
var (
	loadOnce sync.Once
	loadL    *analysis.Loader
	loadPkgs []*analysis.Package
	loadErr  error
)

func sharedLoader() (*analysis.Loader, error) {
	loadOnce.Do(func() {
		moduleDir, err := findModuleDir()
		if err != nil {
			loadErr = err
			return
		}
		loadL, loadPkgs, loadErr = analysis.LoadModule(moduleDir)
	})
	return loadL, loadErr
}

// Loader returns the shared module loader, for driver-level tests that
// invoke whole-module checks (analysis.GlobalCheck) directly.
func Loader(t *testing.T) *analysis.Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("analysistest: load module: %v", err)
	}
	return l
}

// ModulePackage returns one of the module's own type-checked packages,
// so a global check can be run over a mix of real and testdata packages.
func ModulePackage(t *testing.T, path string) *analysis.Package {
	t.Helper()
	Loader(t)
	for _, pkg := range loadPkgs {
		if pkg.PkgPath == path {
			return pkg
		}
	}
	t.Fatalf("analysistest: module package %q not loaded", path)
	return nil
}

// Check type-checks testdata/src/<pkg> against the real module and
// returns it without running any analyzer, for driver-level tests.
func Check(t *testing.T, pkg string) *analysis.Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatalf("analysistest: no .go files in %s", dir)
	}
	l := Loader(t)
	tp, err := l.CheckFiles("gwlint-testdata/"+pkg, files)
	if err != nil {
		t.Fatalf("analysistest: type-check %s: %v", dir, err)
	}
	return tp
}

// Diagnostics type-checks one source string as an ad-hoc package and
// returns the analyzer's surviving findings. Mutation-style tests use it
// in pairs: a known-good snippet must stay silent, and the same snippet
// with one invariant deliberately broken must fire.
func Diagnostics(t *testing.T, a *analysis.Analyzer, name, src string) []analysis.Diagnostic {
	t.Helper()
	l := Loader(t)
	file := filepath.Join(t.TempDir(), name+".go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	tp, err := l.CheckFiles("gwlint-mutation/"+name, []string{file})
	if err != nil {
		t.Fatalf("analysistest: type-check %s: %v", name, err)
	}
	diags, err := analysis.RunAnalyzers(l.Fset, tp.Files, tp.Types, tp.Info, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: run %s: %v", a.Name, err)
	}
	return diags
}

// Teeth holds an analyzer to the code that ships. The module package at
// pkgPath must draw no finding as it is; a copy with a mutation planted in
// file — each old string of oldNew, found there exactly once, replaced by
// the new one after it — type-checked under the same import path, must
// draw a finding in file that matches want.
func Teeth(t *testing.T, a *analysis.Analyzer, pkgPath, file, want string, oldNew ...string) {
	t.Helper()
	l := Loader(t)
	run := func(pkg *analysis.Package) []analysis.Diagnostic {
		diags, err := analysis.RunAnalyzers(l.Fset, pkg.Files, pkg.Types, pkg.Info, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("analysistest: run %s: %v", a.Name, err)
		}
		// An allow naming another analyzer reads as unknown to a run of one.
		return slices.DeleteFunc(diags, func(d analysis.Diagnostic) bool { return d.Analyzer != a.Name })
	}
	pkg := ModulePackage(t, pkgPath)
	if diags := run(pkg); len(diags) != 0 {
		t.Fatalf("%s as it ships: unexpected findings %v", pkgPath, diags)
	}
	dir := t.TempDir()
	var files []string
	for _, name := range pkg.GoFiles {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		if filepath.Base(name) == file {
			for i := 0; i+1 < len(oldNew); i += 2 {
				if n := strings.Count(string(src), oldNew[i]); n != 1 {
					t.Fatalf("%s: %q occurs %d times, want once", name, oldNew[i], n)
				}
				src = []byte(strings.Replace(string(src), oldNew[i], oldNew[i+1], 1))
			}
		}
		files = append(files, filepath.Join(dir, filepath.Base(name)))
		if err := os.WriteFile(files[len(files)-1], src, 0o644); err != nil {
			t.Fatalf("analysistest: %v", err)
		}
	}
	mutant, err := l.CheckFiles(pkgPath, files)
	if err != nil {
		t.Fatalf("analysistest: type-check the mutant of %s: %v", pkgPath, err)
	}
	re := regexp.MustCompile(want)
	diags := run(mutant)
	for _, d := range diags {
		if filepath.Base(l.Fset.Position(d.Pos).Filename) == file && re.MatchString(d.Message) {
			return
		}
	}
	t.Fatalf("%s with %q planted in %s: no finding matching %q, got %v", pkgPath, oldNew, file, want, diags)
}

// expectation is one want regexp awaiting a diagnostic.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

// Run checks one analyzer against testdata/src/<pkg> relative to the
// calling test's package directory.
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()

	l := Loader(t)
	tp := Check(t, pkg)
	diags, err := analysis.RunAnalyzers(l.Fset, tp.Files, tp.Types, tp.Info, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: run %s: %v", a.Name, err)
	}

	wants := collectWants(t, l.Fset, tp.Files)
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		if w := matchWant(wants, pos.Filename, pos.Line, d.Message); w == nil {
			t.Errorf("%s:%d: unexpected diagnostic: %s: %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// collectWants parses the `// want "re"...` comments of the package.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := fset.Position(c.Pos())
				res, err := parseWants(strings.TrimSpace(text[idx+len("want "):]))
				if err != nil {
					t.Fatalf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				for _, raw := range res {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return wants
}

// parseWants splits a want payload into its quoted regexps.
func parseWants(s string) ([]string, error) {
	var out []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("want: expected quoted regexp, have %q", s)
		}
		end := -1
		if s[0] == '`' {
			if i := strings.IndexByte(s[1:], '`'); i >= 0 {
				end = i + 2
			}
		} else {
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i + 1
					break
				}
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("want: unterminated quote in %q", s)
		}
		unq, err := strconv.Unquote(s[:end])
		if err != nil {
			return nil, fmt.Errorf("want: %q: %v", s[:end], err)
		}
		out = append(out, unq)
		s = s[end:]
	}
	return out, nil
}

// matchWant finds and consumes the first unmet expectation on the
// diagnostic's line whose regexp matches the message.
func matchWant(wants []*expectation, file string, line int, msg string) *expectation {
	for _, w := range wants {
		if !w.met && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.met = true
			return w
		}
	}
	return nil
}

// findModuleDir walks up from the working directory to go.mod.
func findModuleDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}
