// Package simdet enforces the determinism discipline of the simulation
// harness: a seeded run's trace must be a pure function of its
// configuration, so nothing reachable from the virtual-clock event loop
// may consult the wall clock, the process-global random source, spawn
// goroutines, or let map iteration order escape into observable output.
// It is the static complement of the FNV trace-hash replay gate
// (docs/SIMULATION.md), and the precondition for running the production
// totem/replication/core stacks under the virtual clock: a package is
// opted in by rooting it here, and from then on the compiler-invisible
// nondeterminism sources LLFT-style replication must sanitize are
// machine-checked.
//
// Roots: every function declared in internal/sim, internal/vclock and
// internal/faultinject, every function declared in internal/memnet (the
// deterministic network substrate — all of its delivery machinery runs
// as virtual-clock callbacks when a simulation injects its clock), and
// any function whose declaration carries a "gwlint:simroot" directive —
// which is how the first part of the shipping stack is rooted: the three
// exported entry points of internal/totem's protocol core
// (Core.Receive, Core.Submit, Core.Tick), which take the time as an
// argument and which the simulation steps.
// From the roots the analyzer walks the package's static call graph
// (internal/analysis/callgraph) and reports:
//
//   - wall-clock calls: time.Now, Since, Until, Sleep, After, AfterFunc,
//     Tick, NewTimer, NewTicker. Durations and time arithmetic are fine;
//     reading or scheduling on the runtime clock is not.
//   - the process-global math/rand source: package-level rand.Intn,
//     rand.Float64 and friends. Methods on a seeded *rand.Rand are the
//     sanctioned replacement (derive the seed with faultinject.Split).
//   - go statements: simulated concurrency must be expressed as
//     virtual-clock events; a real goroutine races the event loop.
//   - map iteration whose order can escape: a range over a map whose
//     body performs calls (beyond side-effect-free builtins) or channel
//     sends. The sanctioned idioms — collect-keys-then-sort, map-to-map
//     copies, commutative aggregation — read and write only locals and
//     containers and survive the rule.
//
// The escape hatch is //lint:allow simdet <reason>; the only sanctioned
// use is the real-time default of an injectable clock (memnet's
// realClock), where the wall clock is the documented production
// behavior and every deterministic harness injects a virtual clock.
package simdet

import (
	"go/ast"
	"go/types"

	"eternalgw/internal/analysis"
	"eternalgw/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "simdet",
	Doc:  "forbids wall-clock, global rand, goroutine spawns and order-leaking map iteration on virtual-clock-reachable paths",
	Run:  run,
}

// rootedPackages are analyzed whole: every declared function is a root.
var rootedPackages = map[string]bool{
	"eternalgw/internal/sim":         true,
	"eternalgw/internal/vclock":      true,
	"eternalgw/internal/faultinject": true,
	"eternalgw/internal/memnet":      true,
}

// wallClock names the time package functions that read or schedule on
// the runtime clock.
var wallClock = map[string]bool{
	"time.Now":       true,
	"time.Since":     true,
	"time.Until":     true,
	"time.Sleep":     true,
	"time.After":     true,
	"time.AfterFunc": true,
	"time.Tick":      true,
	"time.NewTimer":  true,
	"time.NewTicker": true,
}

func run(pass *analysis.Pass) error {
	g := callgraph.New(pass.Files, pass.TypesInfo)

	var roots []*types.Func
	if rootedPackages[pass.Pkg.Path()] {
		roots = g.Funcs()
	}
	roots = append(roots, g.DirectiveRoots("simroot")...)
	if len(roots) == 0 {
		return nil
	}

	g.Walk(roots, &callgraph.Walk{
		// Spawned goroutines are themselves findings; their bodies are
		// still nondeterminism carried by the root, so follow them.
		FollowGoBodies: true,
		Node: func(n ast.Node, path string) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement on a virtual-clock path (reachable via %s); express concurrency as clock events", path)
				return true
			case *ast.RangeStmt:
				checkMapRange(pass, n, path)
				return true
			case *ast.CallExpr:
				callee := analysis.Callee(pass.TypesInfo, n)
				if callee == nil {
					return true
				}
				key := analysis.FuncKey(callee)
				if wallClock[key] {
					pass.Reportf(n.Pos(),
						"%s on a virtual-clock path (reachable via %s); use the injected clock", key, path)
					return true
				}
				if isGlobalRand(callee) {
					pass.Reportf(n.Pos(),
						"global math/rand.%s on a virtual-clock path (reachable via %s); use a *rand.Rand seeded via faultinject.Split", callee.Name(), path)
				}
				return true
			}
			return true
		},
	})
	return nil
}

// isGlobalRand reports whether fn is a package-level math/rand function
// that draws from the process-global source. Methods on *rand.Rand are
// allowed, and so are the constructors (New, NewSource, NewZipf) — they
// are exactly how a seeded source is built.
func isGlobalRand(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "math/rand" {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return false
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf":
		return false
	}
	return true
}

// checkMapRange reports a range over a map whose body could publish the
// iteration order: any call beyond the side-effect-free builtins, or a
// channel send. Pure data movement (appends into a slice that is sorted
// later, map-to-map copies, counters, existence checks) is allowed.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, path string) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside map iteration on a virtual-clock path (reachable via %s); iteration order escapes — sort the keys first", path)
			return true
		case *ast.CallExpr:
			if orderSafeCall(pass.TypesInfo, n) {
				return true
			}
			pass.Reportf(n.Pos(),
				"call inside map iteration on a virtual-clock path (reachable via %s); iteration order escapes — sort the keys first", path)
			return true
		}
		return true
	})
}

// orderSafeCall reports whether call cannot observe the order it is
// invoked in: the side-effect-free builtins plus conversions.
func orderSafeCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "append", "cap", "copy", "delete", "len", "make", "max", "min", "new":
				return true
			}
			return false
		case *types.TypeName:
			return true // conversion
		}
	case *ast.SelectorExpr:
		if _, ok := info.Uses[fun.Sel].(*types.TypeName); ok {
			return true // qualified conversion
		}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType:
		return true // conversion via type literal
	}
	return false
}
