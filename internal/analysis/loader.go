package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one type-checked module package as the driver sees it:
// syntax plus types for the non-test files.
type Package struct {
	PkgPath string
	GoFiles []string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader loads a module's packages for whole-program analysis. Module
// packages are type-checked from source (so analyzers see one identity
// for every object across packages); everything else — the standard
// library and any external dependency — is imported from the gc export
// data that `go list -export` reports, which works offline and never
// compiles more than the build cache already holds.
type Loader struct {
	Fset *token.FileSet

	listed map[string]*listPackage
	loaded map[string]*Package
	gc     types.ImporterFrom
	export map[string]string
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
	Module     *struct{ Main bool }
}

// LoadModule lists patterns (plus dependencies, with export data) in the
// module rooted at or above dir and type-checks every matched module
// package from source. It returns the matched module packages in
// deterministic (list) order.
func LoadModule(dir string, patterns ...string) (*Loader, []*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Name,Dir,GoFiles,Imports,Export,Standard,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	l := &Loader{
		Fset:   token.NewFileSet(),
		listed: make(map[string]*listPackage),
		loaded: make(map[string]*Package),
		export: make(map[string]string),
	}
	l.gc = importer.ForCompiler(l.Fset, "gc", l.lookupExport).(types.ImporterFrom)

	var order []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %w", err)
		}
		lp := p
		l.listed[lp.ImportPath] = &lp
		if lp.Export != "" {
			l.export[lp.ImportPath] = lp.Export
		}
		if lp.inModule() {
			order = append(order, lp.ImportPath)
		}
	}

	var pkgs []*Package
	for _, path := range order {
		pkg, err := l.loadModulePackage(path)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return l, pkgs, nil
}

func (p *listPackage) inModule() bool {
	return p.Module != nil && p.Module.Main && !p.Standard
}

func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	f, ok := l.export[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(f)
}

// Import resolves an import for a module package being type-checked:
// module packages from source (recursively), the rest from export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if lp, ok := l.listed[path]; ok && lp.inModule() {
		pkg, err := l.loadModulePackage(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.gc.ImportFrom(path, "", 0)
}

// loadModulePackage parses and type-checks one module package once.
func (l *Loader) loadModulePackage(path string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	lp, ok := l.listed[path]
	if !ok {
		return nil, fmt.Errorf("package %q not listed", path)
	}
	var names []string
	for _, f := range lp.GoFiles {
		names = append(names, filepath.Join(lp.Dir, f))
	}
	pkg, err := l.CheckFiles(path, names)
	if err != nil {
		return nil, err
	}
	l.loaded[path] = pkg
	return pkg, nil
}

// CheckFiles parses and type-checks an ad-hoc set of files as one
// package under pkgPath, resolving imports through the loader. The
// analysistest harness uses it for testdata packages, which live outside
// the go tool's view of the module.
func (l *Loader) CheckFiles(pkgPath string, filenames []string) (*Package, error) {
	var files []*ast.File
	var goFiles []string
	for _, name := range filenames {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		goFiles = append(goFiles, name)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", pkgPath, err)
	}
	return &Package{PkgPath: pkgPath, GoFiles: goFiles, Files: files, Types: tpkg, Info: info}, nil
}
