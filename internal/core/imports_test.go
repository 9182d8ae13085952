package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func nonTest(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }

// TestImportAllowlist pins the module packages that the packages under
// the gateway depend on. The gateway parses untrusted bytes from outside
// the fault tolerance domain and totem and replication parse them off
// the ring, so each imports the minimum, and a new dependency is a
// decision made here, not a side effect of a refactor.
func TestImportAllowlist(t *testing.T) {
	const module = "eternalgw/internal/"
	for _, tt := range []struct {
		pkg  string
		want []string
	}{
		{"core", []string{"admission", "cdr", "giop", "obs", "replication", "slab"}},
		{"totem", []string{"cdr", "memnet", "obs", "slab"}},
		{"replication", []string{"cdr", "fifo", "giop", "logrec", "memnet", "obs", "orb", "slab", "totem"}},
	} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join("..", tt.pkg), nonTest, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, imp := range f.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						t.Fatal(err)
					}
					if rest, ok := strings.CutPrefix(path, module); ok {
						seen[rest] = true
					}
				}
			}
		}
		got := make([]string, 0, len(seen))
		for p := range seen {
			got = append(got, p)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(tt.want, " ") {
			t.Errorf("internal/%s imports %s{%s}, want exactly {%s}", tt.pkg, module, strings.Join(got, " "), strings.Join(tt.want, " "))
		}
	}
}

// TestCommandsDoNotAssembleProcessors: internal/domain is the one place
// a processor is wired (transport → totem → replication → gateway). A
// command may name these packages' types and options, but it stands a
// node up by calling domain.New, so no cmd/ package calls a constructor
// of the stack itself.
func TestCommandsDoNotAssembleProcessors(t *testing.T) {
	constructors := map[string]bool{"totem.Start": true, "totem.NewNode": true, "replication.New": true, "core.New": true}
	dirs, err := filepath.Glob(filepath.Join("..", "..", "cmd", "*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no commands found: %v", err)
	}
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nonTest, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			ast.Inspect(pkg, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && constructors[x.Name+"."+sel.Sel.Name] {
						t.Errorf("%s: %s.%s called outside internal/domain", fset.Position(call.Pos()), x.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
