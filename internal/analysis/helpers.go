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
// through parentheses. Interface-method and function-value calls where
// no single static target exists return nil.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
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

// TypeDirectives returns the "gwlint:" directives attached to type
// declarations in the package's files, keyed by the declared type name's
// object. A directive is any comment line of the form "// gwlint:<word>"
// (with or without the space) in the type's doc comment or on the line
// of its TypeSpec.
func TypeDirectives(files []*ast.File, info *types.Info) map[types.Object][]string {
	out := make(map[types.Object][]string)
	for _, f := range files {
		forEachTypeDirectives(f, func(ts *ast.TypeSpec, ds []string) {
			if obj := info.Defs[ts.Name]; obj != nil {
				out[obj] = append(out[obj], ds...)
			}
		})
	}
	return out
}

// FileTypeDirectives is TypeDirectives for one parsed but not
// type-checked file, keyed by type name: how an analyzer reads the
// directives on a type declared in another package.
func FileTypeDirectives(f *ast.File) map[string][]string {
	out := make(map[string][]string)
	forEachTypeDirectives(f, func(ts *ast.TypeSpec, ds []string) {
		out[ts.Name.Name] = append(out[ts.Name.Name], ds...)
	})
	return out
}

// forEachTypeDirectives calls fn for every top-level type declaration
// of f that carries directives.
func forEachTypeDirectives(f *ast.File, fn func(ts *ast.TypeSpec, ds []string)) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			var ds []string
			for _, cg := range []*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment} {
				ds = append(ds, directivesIn(cg)...)
			}
			if len(ds) > 0 {
				fn(ts, ds)
			}
		}
	}
}

// FuncDirectives is TypeDirectives for function declarations.
func FuncDirectives(files []*ast.File, info *types.Info) map[types.Object][]string {
	out := make(map[types.Object][]string)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			for _, d := range directivesIn(fd.Doc) {
				out[obj] = append(out[obj], d)
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

// HasDirective reports whether directives contains want.
func HasDirective(directives []string, want string) bool {
	for _, d := range directives {
		if d == want {
			return true
		}
	}
	return false
}
