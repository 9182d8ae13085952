package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"eternalgw/internal/analysis"
	"eternalgw/internal/analysis/analysistest"
)

// TestAnalyzerKeysNameDeclarations holds every analyzer to the symbols
// it names by string. A key such as "eternalgw/internal/totem.Node.Run"
// matches a function, type, field or package by name, so a rename leaves
// it matching nothing and the check it anchors goes quiet without a
// failing test. Each string literal of the analyzers' non-test sources
// that starts with the module path is resolved against the loaded
// module: a package, a package-level name, a type's method or field —
// and, where the key maps to a set of field names (arenaalias's
// carriers), each of those fields. A literal with a space in it is a
// label, not a key (lockorder's nodeClass).
func TestAnalyzerKeysNameDeclarations(t *testing.T) {
	l := analysistest.Loader(t)

	sources, err := filepath.Glob(filepath.Join("*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	keys := 0
	for _, name := range sources {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		resolve := func(lit *ast.BasicLit, key string, fields []string) {
			keys++
			if what := missing(l, key, fields); what != "" {
				t.Errorf("%s: %s names nothing in the module (%s)", fset.Position(lit.Pos()), lit.Value, what)
			}
		}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.IMPORT {
				continue
			}
			// A key whose value lists field names resolves those fields
			// with it; its literal is then not visited again on its own.
			done := make(map[*ast.BasicLit]bool)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					lit, key := moduleKey(n.Key)
					value, ok := n.Value.(*ast.CompositeLit)
					if lit == nil || !ok {
						return true
					}
					var fields []string
					for _, elt := range value.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if s, ok := stringLit(kv.Key); ok {
								fields = append(fields, s)
							}
						}
					}
					resolve(lit, key, fields)
					done[lit] = true
				case *ast.BasicLit:
					if lit, key := moduleKey(n); lit != nil && !done[lit] {
						resolve(lit, key, nil)
					}
				}
				return true
			})
		}
	}
	if keys == 0 {
		t.Fatal("no analyzer key found: the scan no longer sees the analyzers' sources")
	}
	t.Logf("%d keys checked", keys)
}

// missing resolves key, and fields of the type it names, against the
// loaded module; it returns what could not be found, or "".
func missing(l *analysis.Loader, key string, fields []string) string {
	slash := strings.LastIndex(key, "/")
	parts := strings.Split(key[slash+1:], ".")
	pkgPath := key[:slash+1] + parts[0]
	pkg, err := l.Import(pkgPath)
	if err != nil {
		return "no package " + pkgPath
	}
	names := parts[1:]
	if len(names) == 0 {
		return ""
	}
	obj := pkg.Scope().Lookup(names[0])
	if obj == nil {
		return "no " + names[0] + " in " + pkgPath
	}
	var members []string
	switch len(names) {
	case 1:
		members = fields
	case 2:
		members = []string{names[1]}
	default:
		return "a key has at most two names after the package"
	}
	if len(members) == 0 {
		return ""
	}
	if _, ok := obj.(*types.TypeName); !ok {
		return names[0] + " is not a type"
	}
	for _, m := range members {
		if found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, m); found == nil {
			return "no field or method " + m + " of " + names[0]
		}
	}
	return ""
}

// moduleKey returns the literal and its value when e is a string
// literal that names something of the module, else nil. A module
// renamed away from the prefix leaves no keys, which the test reports.
func moduleKey(e ast.Expr) (*ast.BasicLit, string) {
	s, ok := stringLit(e)
	if !ok || !strings.HasPrefix(s, "eternalgw/") || strings.ContainsAny(s, " \t") {
		return nil, ""
	}
	return e.(*ast.BasicLit), s
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
