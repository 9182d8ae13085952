package core

import (
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestImportAllowlist pins the module packages the internet-facing
// gateway depends on: it parses untrusted bytes from outside the fault
// tolerance domain, so it imports the minimum, and a new dependency is a
// decision made here, not a side effect of a refactor.
func TestImportAllowlist(t *testing.T) {
	const module = "eternalgw/internal/"
	want := []string{"admission", "cdr", "fifo", "giop", "obs", "replication"}

	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
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
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("internal/core imports %s{%s}, want exactly {%s}", module, strings.Join(got, " "), strings.Join(want, " "))
	}
}
