package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const allowSrc = `package p

var a, b, c int

func f() {
	a = 1 //lint:allow fake justified reason
	//lint:allow fake standalone covers next line
	b = 2
	//lint:allow fake
	c = 3
	//lint:allow unknownname some reason
}
`

func parseAllowSrc(t *testing.T) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", allowSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestCollectAllows(t *testing.T) {
	fset, f := parseAllowSrc(t)
	fake := &Analyzer{Name: "fake"}
	set, malformed := collectAllows(fset, []*ast.File{f}, []*Analyzer{fake})

	for _, line := range []int{6, 7, 8} {
		if !set.keys[allowKey{file: "p.go", line: line, name: "fake"}] {
			t.Errorf("line %d not suppressed", line)
		}
	}
	// Line 10 follows a malformed (reasonless) directive: a broken allow
	// must not suppress anything.
	if set.keys[allowKey{file: "p.go", line: 10, name: "fake"}] {
		t.Error("reasonless directive suppressed the next line")
	}

	if len(malformed) != 2 {
		t.Fatalf("got %d malformed diagnostics, want 2: %v", len(malformed), malformed)
	}
	if !strings.Contains(malformed[0].Message, "malformed //lint:allow") {
		t.Errorf("first malformed diagnostic = %q, want missing-reason message", malformed[0].Message)
	}
	if !strings.Contains(malformed[1].Message, "unknown analyzer unknownname") {
		t.Errorf("second malformed diagnostic = %q, want unknown-analyzer message", malformed[1].Message)
	}
	for _, d := range malformed {
		if d.Analyzer != "lintdirective" {
			t.Errorf("malformed diagnostic attributed to %q, want lintdirective", d.Analyzer)
		}
	}
}

// TestRunAnalyzersSuppression drives the full pipeline with a stub
// analyzer: a finding on an allowed line disappears, one on an
// unprotected line survives, and the malformed directives come out as
// lintdirective findings.
func TestRunAnalyzersSuppression(t *testing.T) {
	fset, f := parseAllowSrc(t)
	tf := fset.File(f.Pos())
	stub := &Analyzer{
		Name: "fake",
		Run: func(p *Pass) error {
			p.Report(tf.LineStart(6), "finding on an allowed line")
			p.Report(tf.LineStart(8), "finding under a standalone directive")
			p.Report(tf.LineStart(10), "finding under a reasonless directive")
			return nil
		},
	}
	diags, err := RunAnalyzers(fset, []*ast.File{f}, nil, nil, []*Analyzer{stub})
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, d := range diags {
		kept = append(kept, d.Analyzer+": "+d.Message)
	}
	want := []string{
		"fake: finding under a reasonless directive",
		"lintdirective: malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\" with a non-empty reason",
		"lintdirective: //lint:allow names unknown analyzer unknownname",
	}
	if len(kept) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d", len(kept), kept, len(want))
	}
	for i := range want {
		if kept[i] != want[i] {
			t.Errorf("diagnostic %d = %q, want %q", i, kept[i], want[i])
		}
	}
}
