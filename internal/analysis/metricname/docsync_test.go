package metricname_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eternalgw/internal/analysis"
	"eternalgw/internal/analysis/metricname"
)

func moduleDir(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			t.Fatalf("no go.mod above %s", dir)
		}
		d = parent
	}
}

// TestDocSyncModuleClean is the drift gate for the real tree: every
// registered metric is documented in docs/OBSERVABILITY.md and every
// documented name is still registered. Add a metric without a doc row —
// or retire one and leave its row behind — and this fails.
func TestDocSyncModuleClean(t *testing.T) {
	l, pkgs, err := analysis.LoadModule(moduleDir(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range metricname.DocSync(l, pkgs) {
		t.Errorf("%s: %s", l.Fset.Position(d.Pos), d.Message)
	}
}

// TestDocSyncDrift seeds both drift directions and a module-wide
// duplicate against a synthetic module dir and checks each is caught.
func TestDocSyncDrift(t *testing.T) {
	l, _, err := analysis.LoadModule(moduleDir(t))
	if err != nil {
		t.Fatal(err)
	}

	srcDir := t.TempDir()
	write := func(name, src string) string {
		t.Helper()
		path := filepath.Join(srcDir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	one := write("one.go", `package one

import "eternalgw/internal/obs"

func register(reg *obs.Registry) {
	reg.CounterFunc("eternalgw_drift_documented_total", "documented and registered", nil, nil)
	reg.CounterFunc("eternalgw_drift_undocumented_total", "registered but missing from the docs", nil, nil)
}
`)
	two := write("two.go", `package two

import "eternalgw/internal/obs"

func register(reg *obs.Registry) {
	reg.CounterFunc("eternalgw_drift_documented_total", "second registration of the same name", nil, nil)
}
`)
	pkg1, err := l.CheckFiles("gwlint-testdata/driftone", []string{one})
	if err != nil {
		t.Fatal(err)
	}
	pkg2, err := l.CheckFiles("gwlint-testdata/drifttwo", []string{two})
	if err != nil {
		t.Fatal(err)
	}

	fakeModule := t.TempDir()
	if err := os.MkdirAll(filepath.Join(fakeModule, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	doc := "| `eternalgw_drift_documented_total` | counter | fine |\n" +
		"| `eternalgw_drift_ghost_total` | counter | retired from code, row left behind |\n"
	if err := os.WriteFile(filepath.Join(fakeModule, "docs", "OBSERVABILITY.md"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	l.ModuleDir = fakeModule

	diags := metricname.DocSync(l, []*analysis.Package{pkg1, pkg2})
	wants := []string{
		`"eternalgw_drift_documented_total" registered more than once in the module`,
		`"eternalgw_drift_undocumented_total" is not documented`,
		`documents "eternalgw_drift_ghost_total", which no code registers`,
	}
	for _, want := range wants {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q in %v", want, messages(diags))
		}
	}
	if len(diags) != len(wants) {
		t.Errorf("got %d diagnostics %v, want %d", len(diags), messages(diags), len(wants))
	}
}

func messages(diags []analysis.Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Message)
	}
	return out
}
