// Package syncextra tightens vet's mutex-copy and atomic-alignment
// checking for the sharded pending/record tables.
//
// Two hazards in this codebase sit just outside stock vet's reach:
//
//  1. The bounded first-wins table behind the record, pending and
//     dedup shards (fifo.Map) contains no locks — it is guarded by its
//     shard's mutex — so vet's copylocks says nothing when one is
//     copied by value. But a copy aliases the eviction ring's buffer
//     while diverging its head index, which corrupts FIFO eviction as
//     silently as a copied mutex corrupts exclusion. Declaring
//     "gwlint:nocopy" on a type (a directive comment on its
//     declaration) brings it, every instantiation of it if it is
//     generic, and every struct containing it under the same copy
//     rules as a lock, in the declaring package and in its importers:
//     no by-value assignment from an existing value, no by-value
//     parameters, arguments, returns, or range elements. Types that
//     transitively contain a sync primitive or a typed atomic are
//     covered automatically, like vet, so the analyzer is
//     self-sufficient in module mode.
//
//  2. The repository standardized on the typed atomics (atomic.Uint64
//     and friends, always correctly aligned thanks to the runtime's
//     align64 support) after mixed function-style usage caused a
//     32-bit alignment crash risk in an early sharded-table draft. Any
//     call to the function-style sync/atomic API is reported; when the
//     operand is a struct field whose offset under GOARCH=386 rules is
//     not 8-byte aligned, the finding says so explicitly — that is the
//     crash, not just a style violation.
package syncextra

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"eternalgw/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "syncextra",
	Doc:  "no-copy discipline for ring/shard types and typed-atomics enforcement beyond stock vet",
	Run:  run,
}

type checker struct {
	pass   *analysis.Pass
	nocopy map[string]bool     // TypeKeys declared gwlint:nocopy in this package
	memo   map[types.Type]bool // containsNoCopy cache
	// imported caches, per source file of another module package, the
	// type names declared gwlint:nocopy there.
	imported map[string]map[string]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		nocopy:   make(map[string]bool),
		memo:     make(map[types.Type]bool),
		imported: make(map[string]map[string]bool),
	}
	for obj, ds := range analysis.TypeDirectives(pass.Files, pass.TypesInfo) {
		if analysis.HasDirective(ds, "nocopy") {
			c.nocopy[pass.Pkg.Path()+"."+obj.Name()] = true
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, c.inspect)
	}
	return nil
}

func (c *checker) inspect(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return true
		}
		for i := range n.Rhs {
			c.checkCopy(n.Rhs[i], "assignment copies")
		}
	case *ast.ValueSpec:
		for _, v := range n.Values {
			c.checkCopy(v, "initialization copies")
		}
	case *ast.CallExpr:
		c.checkAtomicCall(n)
		if analysis.Callee(c.pass.TypesInfo, n) != nil || isConversion(c.pass.TypesInfo, n) {
			for _, a := range n.Args {
				c.checkCopy(a, "call passes by value")
			}
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			c.checkCopy(r, "return copies")
		}
	case *ast.RangeStmt:
		if n.Value != nil {
			if t := c.pass.TypesInfo.TypeOf(n.Value); c.noCopyType(t) {
				c.pass.Reportf(n.Value.Pos(),
					"range copies a value of no-copy type %s; iterate by index and take addresses", analysis.TypeKey(t))
			}
		}
	case *ast.FuncDecl:
		c.checkSignature(n)
	}
	return true
}

// checkCopy flags e when evaluating it copies an existing value of a
// no-copy type. Composite literals and function results are fresh values
// being placed, not copies of a live one, so they pass — the same rule
// vet's copylocks applies.
func (c *checker) checkCopy(e ast.Expr, how string) {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	t := c.pass.TypesInfo.TypeOf(e)
	if !c.noCopyType(t) {
		return
	}
	c.pass.Reportf(e.Pos(), "%s a value of no-copy type %s; use a pointer", how, analysis.TypeKey(t))
}

// checkSignature flags by-value parameters, receivers and results of
// no-copy types on function declarations.
func (c *checker) checkSignature(fd *ast.FuncDecl) {
	flag := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			t := c.pass.TypesInfo.TypeOf(f.Type)
			if c.noCopyType(t) {
				c.pass.Reportf(f.Type.Pos(), "%s of no-copy type %s passed by value; use a pointer", what, analysis.TypeKey(t))
			}
		}
	}
	flag(fd.Recv, "receiver")
	flag(fd.Type.Params, "parameter")
	flag(fd.Type.Results, "result")
}

// noCopyType reports whether a value of t must not be copied: declared
// gwlint:nocopy, or transitively containing a sync primitive or typed
// atomic. Pointers are always copyable.
func (c *checker) noCopyType(t types.Type) bool {
	if t == nil {
		return false
	}
	if v, ok := c.memo[t]; ok {
		return v
	}
	c.memo[t] = false // cut recursion on cyclic types
	v := c.noCopy1(t)
	c.memo[t] = v
	return v
}

func (c *checker) noCopy1(t types.Type) bool {
	key := analysis.TypeKey(t)
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return false
	}
	if c.nocopy[key] || isSyncPrimitive(key) || c.importedNoCopy(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if c.noCopyType(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return c.noCopyType(u.Elem())
	}
	return false
}

// importedNoCopy reports whether t is a named type of another package
// of this module whose declaration carries gwlint:nocopy. The vettool
// driver sees dependencies only as export data and there are no facts
// to carry the directive, but export data (like the source loader)
// keeps each object's file position, so the declaring file is parsed
// for it.
func (c *checker) importedNoCopy(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg() == c.pass.Pkg || c.pass.ModuleDir == "" {
		return false
	}
	file := c.pass.Fset.Position(named.Obj().Pos()).Filename
	if !strings.HasPrefix(file, c.pass.ModuleDir+string(filepath.Separator)) {
		return false
	}
	names, ok := c.imported[file]
	if !ok {
		names = make(map[string]bool)
		if f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ParseComments|parser.SkipObjectResolution); err == nil {
			for name, ds := range analysis.FileTypeDirectives(f) {
				names[name] = analysis.HasDirective(ds, "nocopy")
			}
		}
		c.imported[file] = names
	}
	return names[named.Obj().Name()]
}

func isSyncPrimitive(key string) bool {
	switch key {
	case "sync.Mutex", "sync.RWMutex", "sync.WaitGroup", "sync.Cond", "sync.Once", "sync.Map", "sync.Pool":
		return true
	}
	return strings.HasPrefix(key, "sync/atomic.")
}

// checkAtomicCall flags function-style sync/atomic usage, with the
// 32-bit misalignment called out when provable.
func (c *checker) checkAtomicCall(call *ast.CallExpr) {
	fn := analysis.Callee(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods on the typed atomics are the sanctioned API
	}
	msg := "function-style sync/atomic call " + fn.Name() + "; use the typed atomics (atomic.Uint64 and friends)"
	if strings.Contains(fn.Name(), "64") && len(call.Args) > 0 {
		if off, field, ok := c.fieldOffset32(call.Args[0]); ok && off%8 != 0 {
			msg += "; field " + field + " is at offset " + strconv.FormatInt(off, 10) + " under 32-bit alignment rules — this crashes on 386/arm"
		}
	}
	c.pass.Report(call.Pos(), msg)
}

// fieldOffset32 resolves &x.f (or x.f for pointer-typed fields) to the
// field's byte offset within its struct under 32-bit (GOARCH=386) layout.
func (c *checker) fieldOffset32(arg ast.Expr) (int64, string, bool) {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok {
		return 0, "", false
	}
	sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
	if !ok {
		return 0, "", false
	}
	selection, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return 0, "", false
	}
	recv := selection.Recv()
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	var offset int64
	t := recv
	for _, idx := range selection.Index() {
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return 0, "", false
		}
		fields := make([]*types.Var, st.NumFields())
		for i := range fields {
			fields[i] = st.Field(i)
		}
		offsets := c.pass.Sizes32.Offsetsof(fields)
		offset += offsets[idx]
		t = st.Field(idx).Type()
	}
	return offset, sel.Sel.Name, true
}

func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}
