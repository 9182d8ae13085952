// Package completedno enforces the GIOP system-exception completion
// contract on shed and failure replies.
//
// Section 3.3's exactly-once argument only holds if a client that
// receives a system exception can tell whether its request may have
// executed. Every exception the gateway fabricates on a path where the
// request was never dispatched — admission sheds, decode failures,
// unknown objects — must therefore say COMPLETED_NO, so the client (or
// the thin client's retry loop) can reissue safely; and an exception
// raised where execution state is genuinely unknown must say
// COMPLETED_MAYBE, never NO. A bare integer in the completed argument
// slot is how PR 4 shipped a COMPLETED_YES shed reply without anyone
// noticing.
//
// The analyzer inspects every call to giop.SystemExceptionBody and
// requires:
//
//   - the completed argument is one of the named giop constants
//     (CompletedYes, CompletedNo, CompletedMaybe), not a literal;
//   - the minor argument is a named constant or an expression (a
//     documented minor-code table entry, or a value computed from one),
//     not a bare integer literal;
//   - when the repository ID is a compile-time string, its exception
//     name carries the completion status this codebase assigns it:
//     TRANSIENT, OBJECT_NOT_EXIST and MARSHAL arise only before
//     dispatch and must be COMPLETED_NO; NO_AGREEMENT means the replicas
//     split on an executed request and must be COMPLETED_MAYBE;
//     REPLY_DISCARDED answers a duplicate of an operation that ran and
//     must be COMPLETED_YES.
package completedno

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"eternalgw/internal/analysis"
)

const sysExKey = "eternalgw/internal/giop.SystemExceptionBody"

// completionByException maps the exception name embedded in a repository
// ID to the completion status this codebase's paths imply for it.
var completionByException = map[string]int64{
	"TRANSIENT":        1, // CompletedNo: shed before dispatch
	"OBJECT_NOT_EXIST": 1, // CompletedNo: never dispatched
	"MARSHAL":          1, // CompletedNo: failed in decode
	"NO_AGREEMENT":     2, // CompletedMaybe: executed, outcome disputed
	"REPLY_DISCARDED":  0, // CompletedYes: executed once, the reply no longer kept
}

var completionName = map[int64]string{0: "COMPLETED_YES", 1: "COMPLETED_NO", 2: "COMPLETED_MAYBE"}

var Analyzer = &analysis.Analyzer{
	Name: "completedno",
	Doc:  "system exceptions on undispatched paths must carry COMPLETED_NO and a documented minor code",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if analysis.FuncKey(analysis.Callee(pass.TypesInfo, call)) != sysExKey || len(call.Args) != 4 {
				return true
			}
			check(pass, call)
			return true
		})
	}
	return nil
}

func check(pass *analysis.Pass, call *ast.CallExpr) {
	repoID, minor, completed := call.Args[1], call.Args[2], call.Args[3]

	if isBareLiteral(minor) {
		pass.Report(minor.Pos(),
			"bare literal minor code in SystemExceptionBody; use a named constant from the documented minor-code table")
	}

	completedConst, completedVal := namedIntConst(pass.TypesInfo, completed)
	if !completedConst {
		pass.Report(completed.Pos(),
			"completed status must be a named giop constant (CompletedYes/CompletedNo/CompletedMaybe), not a literal")
		// A literal still has a value; keep checking it against the
		// repository ID so a wrong bare status gets both findings.
		if v, ok := literalValue(pass.TypesInfo, completed); ok {
			completedVal = v
		} else {
			return
		}
	}

	repoVal, ok := stringValue(pass.TypesInfo, repoID)
	if !ok {
		return // dynamic repository ID: nothing more to prove statically
	}
	for name, want := range completionByException {
		if !strings.Contains(repoVal, name) {
			continue
		}
		if completedVal != want {
			pass.Reportf(completed.Pos(),
				"%s must be raised with %s (got %s): %s",
				name, completionName[want], completionName[completedVal], rationale(name))
		}
		return
	}
}

func rationale(name string) string {
	switch name {
	case "NO_AGREEMENT":
		return "the request executed but the replicas disagree, so the outcome is unknown"
	case "REPLY_DISCARDED":
		return "the request is a duplicate of an operation that ran, so a reissue must not be invited"
	default:
		return "the request was never dispatched, so the client may retry safely"
	}
}

// isBareLiteral reports whether e is an (possibly parenthesized or
// converted) integer literal rather than a named constant or computed
// expression.
func isBareLiteral(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return true
	case *ast.CallExpr: // uint32(7) is still a bare literal
		if len(e.Args) == 1 {
			return isBareLiteral(e.Args[0])
		}
	}
	return false
}

// namedIntConst reports whether e resolves to a declared constant, and
// its value.
func namedIntConst(info *types.Info, e ast.Expr) (bool, int64) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false, 0
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok {
		return false, 0
	}
	v, _ := constant.Int64Val(constant.ToInt(c.Val()))
	return true, v
}

func literalValue(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return v, exact
}

func stringValue(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
