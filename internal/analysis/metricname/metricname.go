// Package metricname enforces the repository's metric conventions: every
// series registered with obs.Registry is named eternalgw_<subsystem>_...
// in Prometheus-safe lowercase, is registered exactly once across the
// whole module, and appears in docs/OBSERVABILITY.md — and everything
// documented there still exists in code. The doc cross-reference is a
// whole-module check (DocSync), because one package cannot see the full
// registration set.
//
// Registration sites are direct string arguments to the Registry methods
// (CounterFunc, GaugeFunc, Histogram). The table-driven
// idiom — a slice literal of {name, help} rows fed to the registry in a
// loop — is resolved by following the name argument's field back to the
// string literals in the same function's composite literals. A name the
// analyzer cannot resolve statically is itself a finding: an unreviewable
// metric name is how conventions rot.
package metricname

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"eternalgw/internal/analysis"
)

const (
	prefix  = "eternalgw_"
	docFile = "docs/OBSERVABILITY.md"
)

var registerMethods = map[string]bool{
	"eternalgw/internal/obs.Registry.CounterFunc": true,
	"eternalgw/internal/obs.Registry.GaugeFunc":   true,
	"eternalgw/internal/obs.Registry.Histogram":   true,
}

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc:  "metric names follow the eternalgw_* convention, registered once, synced with docs/OBSERVABILITY.md",
	Run:  run,
}

// Metric is one statically resolved registration.
type Metric struct {
	Name string
	Pos  token.Pos
}

func run(pass *analysis.Pass) error {
	metrics, unresolved := Collect(pass.TypesInfo, pass.Files)
	for _, pos := range unresolved {
		pass.Report(pos, "metric name is not a resolvable string literal; name metrics statically so conventions stay checkable")
	}
	seen := make(map[string]token.Pos, len(metrics))
	for _, m := range metrics {
		if !strings.HasPrefix(m.Name, prefix) {
			pass.Reportf(m.Pos, "metric %q does not start with %q", m.Name, prefix)
		} else if !nameRE.MatchString(m.Name) {
			pass.Reportf(m.Pos, "metric %q is not lowercase [a-z0-9_] Prometheus form", m.Name)
		}
		if _, dup := seen[m.Name]; dup {
			pass.Reportf(m.Pos, "metric %q registered more than once in this package", m.Name)
		}
		seen[m.Name] = m.Pos
	}
	return nil
}

// Collect returns the metric registrations in the files, plus positions
// of name arguments that could not be resolved to string literals.
func Collect(info *types.Info, files []*ast.File) ([]Metric, []token.Pos) {
	var metrics []Metric
	var unresolved []token.Pos
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !registerMethods[analysis.FuncKey(analysis.Callee(info, call))] || len(call.Args) == 0 {
					return true
				}
				name := call.Args[0]
				if s, ok := stringLit(info, name); ok {
					metrics = append(metrics, Metric{Name: s, Pos: name.Pos()})
					return true
				}
				// Table-driven: reg.CounterFunc(c.name, ...) inside a
				// range over a row-literal slice. Resolve c back to its
				// range statement and harvest the name field's string
				// literals from that statement's slice literal — and
				// only that one, so a function with several tables
				// counts each row exactly once.
				if sel, ok := ast.Unparen(name).(*ast.SelectorExpr); ok {
					if lit := rangeSource(info, fd.Body, sel); lit != nil {
						rows := harvestField(info, lit, sel.Sel.Name)
						if len(rows) > 0 {
							metrics = append(metrics, rows...)
							return true
						}
					}
				}
				unresolved = append(unresolved, name.Pos())
				return true
			})
		}
	}
	return metrics, unresolved
}

func stringLit(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	s := tv.Value.ExactString()
	unq, err := strconv.Unquote(s)
	if err != nil {
		return "", false
	}
	return unq, true
}

// rangeSource finds the composite literal ranged over by the statement
// that defines sel's base variable (the c in `for _, c := range []T{…}`).
func rangeSource(info *types.Info, body *ast.BlockStmt, sel *ast.SelectorExpr) *ast.CompositeLit {
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[base]
	if obj == nil {
		return nil
	}
	var found *ast.CompositeLit
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || found != nil {
			return found == nil
		}
		for _, v := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := v.(*ast.Ident); ok && info.Defs[id] == obj {
				if lit, ok := ast.Unparen(rs.X).(*ast.CompositeLit); ok {
					found = lit
				}
				return false
			}
		}
		return true
	})
	return found
}

// harvestField collects string literals bound to the named struct field
// in composite literals within root.
func harvestField(info *types.Info, root ast.Node, field string) []Metric {
	var out []Metric
	ast.Inspect(root, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		st, ok := structType(info.TypeOf(cl))
		if !ok {
			return true
		}
		fieldIdx := -1
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == field {
				fieldIdx = i
				break
			}
		}
		if fieldIdx < 0 {
			return true
		}
		for i, el := range cl.Elts {
			var val ast.Expr
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == field {
					val = kv.Value
				}
			} else if i == fieldIdx {
				val = el // unkeyed row: {"name", "help", fn}
			}
			if val == nil {
				continue
			}
			if s, ok := stringLit(info, val); ok {
				out = append(out, Metric{Name: s, Pos: val.Pos()})
			}
		}
		return true
	})
	return out
}

func structType(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

var docTokenRE = regexp.MustCompile(`eternalgw_[a-z0-9_]+`)

// DocSync is the whole-module check: the union of every package's
// registrations must match docs/OBSERVABILITY.md exactly, and no name may
// be registered twice anywhere in the module.
func DocSync(l *analysis.Loader, pkgs []*analysis.Package) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	all := make(map[string]token.Pos)
	for _, pkg := range pkgs {
		metrics, _ := Collect(pkg.Info, pkg.Files)
		for _, m := range metrics {
			if _, dup := all[m.Name]; dup {
				diags = append(diags, analysis.Diagnostic{
					Pos:      m.Pos,
					Analyzer: Analyzer.Name,
					Message:  "metric \"" + m.Name + "\" registered more than once in the module",
				})
				continue
			}
			all[m.Name] = m.Pos
		}
	}

	path := filepath.Join(l.ModuleDir, filepath.FromSlash(docFile))
	data, err := os.ReadFile(path)
	if err != nil {
		var pos token.Pos
		for _, p := range all {
			pos = p
			break
		}
		return append(diags, analysis.Diagnostic{
			Pos:      pos,
			Analyzer: Analyzer.Name,
			Message:  docFile + " unreadable, cannot cross-check metric documentation: " + err.Error(),
		})
	}
	// Give the documentation file real positions so findings in it are
	// clickable like any other.
	docF := l.Fset.AddFile(path, -1, len(data))
	docF.SetLinesForContent(data)

	documented := make(map[string]token.Pos)
	for _, loc := range docTokenRE.FindAllIndex(data, -1) {
		tok := string(data[loc[0]:loc[1]])
		if _, ok := documented[tok]; !ok {
			documented[tok] = docF.Pos(loc[0])
		}
	}

	for name, pos := range all {
		if _, ok := documented[name]; !ok {
			diags = append(diags, analysis.Diagnostic{
				Pos:      pos,
				Analyzer: Analyzer.Name,
				Message:  "metric \"" + name + "\" is not documented in " + docFile,
			})
		}
	}
	for tok, pos := range documented {
		if _, ok := all[tok]; ok {
			continue
		}
		// Prose may legitimately mention a bare prefix of a real metric
		// family (a grep example); only a token that prefixes nothing in
		// code is drift.
		if prefixesSomeMetric(tok, all) {
			continue
		}
		diags = append(diags, analysis.Diagnostic{
			Pos:      pos,
			Analyzer: Analyzer.Name,
			Message:  docFile + " documents \"" + tok + "\", which no code registers",
		})
	}
	return diags
}

func prefixesSomeMetric(tok string, all map[string]token.Pos) bool {
	for name := range all {
		if strings.HasPrefix(name, tok) {
			return true
		}
	}
	return false
}
