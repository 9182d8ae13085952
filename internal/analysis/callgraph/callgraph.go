// Package callgraph builds the static call graph of a type-checked
// package and drives reachability walks over it. It is the shared
// substrate of every gwlint analyzer that reasons about "code reachable
// from X": simdet (nondeterminism reachable from the simulation
// harness), gospawn (lifecycle proofs reachable from a spawned body)
// and lockorder (lock acquisitions reachable through calls, and blocking
// calls reachable from a totem node's protocol goroutine).
//
// The graph is deliberately modest — it resolves only static callees
// (package functions and methods named directly at the call site) and
// trusts dynamic calls (interface methods, function values). The
// analyzers' blocking and nondeterminism sets are made of leaf
// operations precisely so the interesting cases need no callee bodies; a
// dynamic call that matters can always be rooted explicitly with a
// gwlint directive.
package callgraph

import (
	"go/ast"
	"go/types"
	"slices"

	"eternalgw/internal/analysis"
)

// Graph is the static call graph of one type-checked package.
type Graph struct {
	Files []*ast.File
	Info  *types.Info

	decls map[*types.Func]*ast.FuncDecl
	order []*types.Func // declaration order, for deterministic iteration
}

// New collects every function declaration with a body.
func New(files []*ast.File, info *types.Info) *Graph {
	g := &Graph{Files: files, Info: info, decls: make(map[*types.Func]*ast.FuncDecl)}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					g.decls[fn] = fd
					g.order = append(g.order, fn)
				}
			}
		}
	}
	return g
}

// Decl returns the declaration of fn, or nil when fn is not declared
// (with a body) in this package.
func (g *Graph) Decl(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Funcs returns every declared function in declaration order.
func (g *Graph) Funcs() []*types.Func { return g.order }

// DirectiveRoots returns the declared functions whose doc comment
// carries the given "gwlint:<directive>".
func (g *Graph) DirectiveRoots(directive string) []*types.Func {
	var out []*types.Func
	byObj := analysis.Directives(g.Files, g.Info)
	for _, fn := range g.order {
		if slices.Contains(byObj[fn], directive) {
			out = append(out, fn)
		}
	}
	return out
}

// RegisteredArgs returns every declared function passed as an argument
// to a call of the function named by registrarKey (an analysis.FuncKey).
// This resolves registration points whose function argument later runs
// in a constrained context — (*Mechanisms).SetObserver's observers run
// on the replication event loop, for example.
func (g *Graph) RegisteredArgs(registrarKey string) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	for _, f := range g.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if analysis.FuncKey(analysis.Callee(g.Info, call)) != registrarKey {
				return true
			}
			for _, arg := range call.Args {
				var id *ast.Ident
				switch a := ast.Unparen(arg).(type) {
				case *ast.Ident:
					id = a
				case *ast.SelectorExpr:
					id = a.Sel
				}
				if id == nil {
					continue
				}
				if fn, ok := g.Info.Uses[id].(*types.Func); ok && !seen[fn] && g.decls[fn] != nil {
					seen[fn] = true
					out = append(out, fn)
				}
			}
			return true
		})
	}
	return out
}

// Callee resolves the static callee of a call, when it is declared in
// this package with a body.
func (g *Graph) Callee(call *ast.CallExpr) (*types.Func, *ast.FuncDecl) {
	fn := analysis.Callee(g.Info, call)
	if fn == nil {
		return nil, nil
	}
	return fn, g.decls[fn]
}

// SpawnedBody resolves the body a go statement runs: the function
// literal's own body, or the declaration of a directly named
// same-package callee. Nil when the spawned function is dynamic or
// declared elsewhere.
func (g *Graph) SpawnedBody(gs *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if _, fd := g.Callee(gs.Call); fd != nil {
		return fd.Body
	}
	return nil
}

// Walk configures a reachability traversal (see Graph.Walk).
type Walk struct {
	// FollowGoBodies controls go statements. When false the spawned
	// code is skipped — it runs on another goroutine — but the spawn's
	// argument expressions are still visited (they are evaluated on the
	// spawning goroutine). When true the traversal descends into the
	// spawned body and follows a directly spawned same-package callee.
	FollowGoBodies bool
	// Node is invoked for every node visited, with the call path that
	// reached the enclosing function ("root → f → g"). Returning false
	// prunes the subtree: children are not visited and calls inside it
	// are not followed.
	Node func(n ast.Node, path string) bool
}

// Walk traverses every function reachable from roots through static
// same-package calls, visiting each declared function at most once (the
// first path wins). The zero Walk simply marks reachability.
func (g *Graph) Walk(roots []*types.Func, w *Walk) map[*types.Func]bool {
	visited := make(map[*types.Func]bool)
	var scan func(fn *types.Func, path string)
	var inspect func(n ast.Node, path string)

	inspect = func(n ast.Node, path string) {
		ast.Inspect(n, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if w.Node != nil && !w.Node(n, path) {
				return false
			}
			switch n := n.(type) {
			case *ast.GoStmt:
				if !w.FollowGoBodies {
					for _, a := range n.Call.Args {
						inspect(a, path)
					}
					return false
				}
				if fn, fd := g.Callee(n.Call); fd != nil && !visited[fn] {
					visited[fn] = true
					inspect(fd.Body, path+" → "+fn.Name())
				}
				return true
			case *ast.CallExpr:
				if fn, fd := g.Callee(n); fd != nil && !visited[fn] {
					visited[fn] = true
					inspect(fd.Body, path+" → "+fn.Name())
				}
				return true
			}
			return true
		})
	}
	scan = func(fn *types.Func, path string) {
		if visited[fn] {
			return
		}
		visited[fn] = true
		if fd := g.decls[fn]; fd != nil {
			inspect(fd.Body, path)
		}
	}
	for _, fn := range roots {
		scan(fn, fn.Name())
	}
	return visited
}
