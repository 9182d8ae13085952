// Package syncextra holds the sharded tables to the typed atomics.
//
// The repository standardized on the typed atomics (atomic.Uint64 and
// friends, always correctly aligned thanks to the runtime's align64
// support) after mixed function-style usage caused a 32-bit alignment
// crash risk in an early sharded-table draft. Any call to the
// function-style sync/atomic API is reported; when the operand is a
// struct field whose offset under GOARCH=386 rules is not 8-byte
// aligned, the finding says so explicitly — that is the crash, not just
// a style violation.
//
// Copies are go vet's: a type that must not be copied (fifo.Map) carries
// a zero-size noCopy field with Lock and Unlock methods, and copylocks
// reports a copy of it, or of any struct holding it, as it does a lock.
package syncextra

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"eternalgw/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "syncextra",
	Doc:  "rejects function-style sync/atomic calls, naming a field misaligned on 32-bit targets",
	Run:  run,
}

// sizes32 models a 32-bit gc target (GOARCH=386), under which a 64-bit
// field is only 4-byte aligned.
var sizes32 = types.SizesFor("gc", "386")

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkAtomicCall(pass, call)
			}
			return true
		})
	}
	return nil
}

// checkAtomicCall flags function-style sync/atomic usage, with the
// 32-bit misalignment called out when provable.
func checkAtomicCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods on the typed atomics are the sanctioned API
	}
	msg := "function-style sync/atomic call " + fn.Name() + "; use the typed atomics (atomic.Uint64 and friends)"
	if strings.Contains(fn.Name(), "64") && len(call.Args) > 0 {
		if off, field, ok := fieldOffset32(pass.TypesInfo, call.Args[0]); ok && off%8 != 0 {
			msg += "; field " + field + " is at offset " + strconv.FormatInt(off, 10) + " under 32-bit alignment rules — this crashes on 386/arm"
		}
	}
	pass.Report(call.Pos(), msg)
}

// fieldOffset32 resolves &x.f (or x.f for pointer-typed fields) to the
// field's byte offset within its struct under 32-bit (GOARCH=386) layout.
func fieldOffset32(info *types.Info, arg ast.Expr) (int64, string, bool) {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok {
		return 0, "", false
	}
	sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
	if !ok {
		return 0, "", false
	}
	selection, ok := info.Selections[sel]
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
		offsets := sizes32.Offsetsof(fields)
		offset += offsets[idx]
		t = st.Field(idx).Type()
	}
	return offset, sel.Sel.Name, true
}
