package eternalgw_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docTestName matches a Go test, benchmark or fuzz function named in
// prose; a trailing * makes it a prefix ("the BenchmarkE* rows").
var docTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)

// TestDocsNameDeclaredTests fails when README.md, DESIGN.md,
// EXPERIMENTS.md or a document under docs/ names a Test, Benchmark or Fuzz
// function that no _test.go file of the repository declares: a claim's
// evidence must exist. Fenced code blocks are exempt, since they are
// recorded output; CHANGES.md and ROADMAP.md are history and not read.
func TestDocsNameDeclaredTests(t *testing.T) {
	var declared []string
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata"):
			return filepath.SkipDir
		case e.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared = append(declared, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, _ := filepath.Glob("docs/*.md") // the pattern is well formed
	for _, doc := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			if fenced {
				continue
			}
			for _, name := range docTestName.FindAllString(line, -1) {
				prefix, isPrefix := strings.CutSuffix(name, "*")
				if !slices.ContainsFunc(declared, func(d string) bool { return d == name || isPrefix && strings.HasPrefix(d, prefix) }) {
					t.Errorf("%s:%d names %s, which no test file declares", doc, i+1, name)
				}
			}
		}
	}
}
