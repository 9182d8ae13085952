package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared resolution helpers for the analyzers.

// TypeKey names a (possibly pointer-wrapped) named type as
// "importpath.Name"; "" for everything else.
func TypeKey(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok && !isNamed(t) {
		t = p.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func isNamed(t types.Type) bool {
	_, ok := t.(*types.Named)
	return ok
}

// FuncKey names a function or method: "importpath.Func" for package
// functions, "importpath.Recv.Method" for methods (pointer receivers
// included, without the star).
func FuncKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if key := TypeKey(sig.Recv().Type()); key != "" {
			return key + "." + fn.Name()
		}
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// Callee resolves a call expression to its static callee, looking
// through parentheses and an explicit instantiation. Interface-method
// and function-value calls where no single static target exists return
// nil.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) { // an explicit instantiation, f[T] or f[T, U]
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	var id *ast.Ident
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Directives returns the "gwlint:" directives attached to the package's
// type and function declarations, keyed by the declared object. A
// directive is any comment line of the form "// gwlint:<word>" (with or
// without the space) in the declaration's doc comment or, for a type, on
// the line of its TypeSpec.
func Directives(files []*ast.File, info *types.Info) map[types.Object][]string {
	out := make(map[types.Object][]string)
	add := func(name *ast.Ident, groups ...*ast.CommentGroup) {
		if obj := info.Defs[name]; obj != nil {
			for _, cg := range groups {
				out[obj] = append(out[obj], directivesIn(cg)...)
			}
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name, d.Doc)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						add(ts.Name, d.Doc, ts.Doc, ts.Comment)
					}
				}
			}
		}
	}
	return out
}

func directivesIn(cg *ast.CommentGroup) []string {
	if cg == nil {
		return nil
	}
	var out []string
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimLeft(strings.TrimPrefix(c.Text, "//"), " "))
		if strings.HasPrefix(text, "gwlint:") {
			out = append(out, strings.Fields(strings.TrimPrefix(text, "gwlint:"))[0])
		}
	}
	return out
}
