// Package lockorder builds a mutex-acquisition graph and reports
// ordering hazards: cycles (two lock classes acquired in opposite
// orders on different paths), recursive acquisition of a non-reentrant
// class, and acquisition of a sharded class while another lock of the
// same sharded class is held — the cross-shard case where the second
// acquisition may target a different shard index, so the pairwise order
// is whatever the workload makes it.
//
// Locks are grouped into classes, not instances: a mutex field is keyed
// by its owning named type ("pkg.Type.field"), a package-level mutex by
// its variable ("pkg.var"). All the shards of a sharded table therefore
// share one class, which is exactly the granularity the deadlock
// argument needs — the ordering discipline "pending shard before
// directory" is a statement about the types, and two shards of the same
// class have no defined order at all. A class is sharded when its
// owning type appears as the element of a slice, array or map field in
// the package, or when an index expression feeds the receiver at an
// acquisition site.
//
// Within a function the analyzer simulates acquisition order
// statement-by-statement: Lock/RLock pushes the class, Unlock/RUnlock
// pops it, a deferred unlock holds to function end, and branches are
// explored with a copy of the held set. A call made while holding adds
// edges to everything the callee transitively acquires — within the
// package via the shared call graph (internal/analysis/callgraph), and
// across packages via the whole-module check, which stitches the
// per-package summaries together and reports only the cycles a single
// package cannot see. RLock-only self-edges are tolerated (concurrent
// readers are the point of an RWMutex); everything else in a cycle is
// reported with the counter-witness position inline.
//
// The analyzer also reports a stored callback invoked while a lock is
// held: a func value read from a field, map or slice dispatches to code
// registered by another package, whose acquisitions are exactly what
// the static edge collector cannot see — every module-wide cycle this
// analyzer could miss would be laundered through that shape. The
// sanctioned idiom is to snapshot the callback under the lock and
// invoke it after release (obs.Registry's scrape and
// domain.republishAll both do this). Function parameters are exempt —
// a closure the lock's owner passes explicitly is part of the
// function's contract (replication's waitCondition evaluates its
// condition under mu by design) — and so are locals only ever assigned
// function literals, whose bodies are visible.
//
// A totem node's protocol goroutine is one more class (nodeClass), held
// by the code it runs: the consumer (totem.Node.Run's argument), the
// functions marked "gwlint:eventloop" (replication's datapath handlers,
// totem's leader-mode send hooks) and any function passed to
// (*replication.Mechanisms).SetObserver. A call that waits on the
// goroutine acquires it: Multicast and MulticastFramed, which block on a
// submission queue only that goroutine drains, and Stop. A lock held
// across such a call, where that code takes the same lock, is a cycle,
// and that code waiting on the goroutine is a re-acquisition.
//
// The event-loop roots (not the consumer, whose rare membership kinds
// may take the directory write lock) must not block at all: the ring
// waits while they run. Walking from them, not into code launched with
// go, the analyzer reports time.Sleep, WaitGroup.Wait, Cond.Wait, the
// write lock of a sync.RWMutex (the directory lock; read locks and Mutex
// sections are the sharded tables' design), dials, listens, socket writes
// (a gateway's completion hook hands a reply to the connection's replier
// instead) and transport sends, a select without default, and a channel
// send that is neither a
// comm case of a select with default nor on a channel every make site of
// which has a constant positive capacity.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"eternalgw/internal/analysis"
	"eternalgw/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "reports mutex acquisition cycles, recursive locking, cross-shard acquisitions, stored callbacks invoked under a held lock, and blocking on a totem node's protocol goroutine",
	Run:  run,
}

// nodeClass is the pseudo lock class of a totem node's protocol
// goroutine, runKey and observerKey register functions that run holding
// it, and nodeWaits are the calls that acquire it.
const (
	nodeClass   = "eternalgw/internal/totem.Node.run (the protocol goroutine)"
	runKey      = "eternalgw/internal/totem.Node.Run"
	observerKey = "eternalgw/internal/replication.Mechanisms.SetObserver"
)

var nodeWaits = map[string]bool{
	"eternalgw/internal/totem.Node.Multicast":       true,
	"eternalgw/internal/totem.Node.MulticastFramed": true,
	"eternalgw/internal/totem.Node.Stop":            true,
}

// loopBlocks maps the calls that block the protocol goroutine to what a
// report calls them.
var loopBlocks = map[string]string{
	"time.Sleep":          "time.Sleep",
	"sync.RWMutex.Lock":   "write-Lock of a sync.RWMutex (the directory lock)",
	"sync.WaitGroup.Wait": "sync.WaitGroup.Wait",
	"sync.Cond.Wait":      "sync.Cond.Wait",
	"net.Dial":            "net.Dial",
	"net.DialTimeout":     "net.DialTimeout",
	"net.Listen":          "net.Listen",
	"net.ListenUDP":       "net.ListenUDP",
	"net.ListenPacket":    "net.ListenPacket",
	"net.Conn.Write":      "socket write",
	"net.Buffers.WriteTo": "socket write",

	"eternalgw/internal/giop.WriteMessage":           "socket write",
	"eternalgw/internal/giop.WriteMessageFragmented": "socket write",

	"eternalgw/internal/memnet.Endpoint.Send":      "memnet send",
	"eternalgw/internal/memnet.Endpoint.Broadcast": "memnet broadcast",
	"eternalgw/internal/udpnet.Endpoint.Broadcast": "udpnet broadcast",
	"eternalgw/internal/udpnet.Listen":             "udpnet.Listen",
}

// lockMethods classifies the sync primitives.
var lockMethods = map[string]struct{ acquire, rlock bool }{
	"sync.Mutex.Lock":      {true, false},
	"sync.RWMutex.Lock":    {true, false},
	"sync.RWMutex.RLock":   {true, true},
	"sync.Mutex.Unlock":    {false, false},
	"sync.RWMutex.Unlock":  {false, false},
	"sync.RWMutex.RUnlock": {false, true},
}

// Acq is one lock-class acquisition.
type Acq struct {
	Class string
	RLock bool
	Pos   token.Pos
}

// Edge records "To was acquired at Pos while From was held".
type Edge struct {
	From, To           string
	FromRLock, ToRLock bool
	Pos                token.Pos // the acquisition of To
	HeldAt             token.Pos // where From was taken
	Global             bool      // derived from a cross-package call
}

// HeldCall records a call to a function outside the package made while
// holding a lock; the global check expands it against the callee's
// module-wide acquisition set.
type HeldCall struct {
	Held      string
	HeldRLock bool
	HeldAt    token.Pos
	Callee    string // analysis.FuncKey
	Pos       token.Pos
}

// DynInfo records that a function (transitively) invokes a stored
// callback: a func value read from a field, map or slice, whose body no
// static analysis can see.
type DynInfo struct {
	Pos token.Pos // the dynamic call site
	Via string    // same-package function carrying it, "" when direct
}

// CallbackHazard is a stored callback dispatched while a lock is held.
type CallbackHazard struct {
	Pos       token.Pos // the call made under the lock
	Held      string
	HeldRLock bool
	HeldAt    token.Pos
	Dyn       DynInfo
}

// FuncInfo is the per-function summary the global check consumes.
type FuncInfo struct {
	Acquires  []Acq      // transitive within the package
	Callees   []string   // cross-package static callees, transitively
	HeldCalls []HeldCall //
	Dyn       *DynInfo   // invokes a stored callback, transitively
}

// Summary is everything lockorder knows about one package.
type Summary struct {
	PkgPath   string
	Edges     []Edge
	Sharded   map[string]bool
	Funcs     map[string]*FuncInfo
	Callbacks []CallbackHazard

	blocks []hazard // what may block the protocol goroutine
}

func run(pass *analysis.Pass) error {
	s := Collect(pass.Pkg, pass.Files, pass.TypesInfo)
	for _, h := range hazards(s.Edges, s.Sharded, pass.Fset, false) {
		pass.Reportf(h.pos, "%s", h.msg)
	}
	for _, cb := range s.Callbacks {
		pass.Reportf(cb.Pos, "%s", callbackMsg(cb, pass.Fset))
	}
	for _, h := range s.blocks {
		pass.Reportf(h.pos, "%s", h.msg)
	}
	return nil
}

// callbackMsg renders a callback-under-lock hazard.
func callbackMsg(cb CallbackHazard, fset *token.FileSet) string {
	at := func(p token.Pos) string { return fset.Position(p).String() }
	if cb.Dyn.Via == "" {
		return fmt.Sprintf(
			"stored callback invoked while %s is held (since %s); its acquisitions are invisible to lock-order analysis — snapshot the callback under the lock and invoke it after release",
			cb.Held, at(cb.HeldAt))
	}
	return fmt.Sprintf(
		"call to %s invokes a stored callback (at %s) while %s is held (since %s); its acquisitions are invisible to lock-order analysis — snapshot the callback under the lock and invoke it after release",
		cb.Dyn.Via, at(cb.Dyn.Pos), cb.Held, at(cb.HeldAt))
}

// Global is the whole-module check: it merges every package's summary,
// expands calls-while-holding against the callees' module-wide
// acquisition sets, and reports the cycles that only exist across
// package boundaries.
func Global(l *analysis.Loader, pkgs []*analysis.Package) []analysis.Diagnostic {
	var edges []Edge
	sharded := make(map[string]bool)
	funcs := make(map[string]*FuncInfo)
	for _, pkg := range pkgs {
		s := Collect(pkg.Types, pkg.Files, pkg.Info)
		edges = append(edges, s.Edges...)
		for c, ok := range s.Sharded {
			if ok {
				sharded[c] = true
			}
		}
		for k, fi := range s.Funcs {
			funcs[k] = fi
		}
	}

	// Module-wide acquisition sets: iterate to fixpoint over the
	// cross-package call edges (intra-package closure is already done).
	acq := make(map[string]map[string]Acq)
	for k, fi := range funcs {
		m := make(map[string]Acq)
		for _, a := range fi.Acquires {
			m[a.Class] = a
		}
		acq[k] = m
	}
	for changed := true; changed; {
		changed = false
		for k, fi := range funcs {
			for _, callee := range fi.Callees {
				for c, a := range acq[callee] {
					if _, ok := acq[k][c]; !ok {
						acq[k][c] = a
						changed = true
					}
				}
			}
		}
	}

	var callbacks []CallbackHazard
	cbSeen := make(map[string]bool)
	for _, fi := range funcs {
		for _, hc := range fi.HeldCalls {
			for _, a := range acq[hc.Callee] {
				edges = append(edges, Edge{
					From: hc.Held, To: a.Class,
					FromRLock: hc.HeldRLock, ToRLock: a.RLock,
					Pos: hc.Pos, HeldAt: hc.HeldAt, Global: true,
				})
			}
			// A cross-package callee that dispatches a stored callback
			// extends the held section into invisible code just like an
			// intra-package one; the per-package pass cannot see it.
			if cf := funcs[hc.Callee]; cf != nil && cf.Dyn != nil {
				key := fmt.Sprintf("%s|%d", hc.Held, hc.Pos)
				if !cbSeen[key] {
					cbSeen[key] = true
					callbacks = append(callbacks, CallbackHazard{
						Pos: hc.Pos, Held: hc.Held, HeldRLock: hc.HeldRLock,
						HeldAt: hc.HeldAt,
						Dyn:    DynInfo{Pos: cf.Dyn.Pos, Via: hc.Callee},
					})
				}
			}
		}
	}

	var diags []analysis.Diagnostic
	for _, h := range hazards(edges, sharded, l.Fset, true) {
		diags = append(diags, analysis.Diagnostic{
			Pos:      h.pos,
			Analyzer: Analyzer.Name,
			Message:  h.msg,
		})
	}
	for _, cb := range callbacks {
		diags = append(diags, analysis.Diagnostic{
			Pos:      cb.Pos,
			Analyzer: Analyzer.Name,
			Message:  callbackMsg(cb, l.Fset),
		})
	}
	return diags
}

// Collect extracts the lock-order summary of one package.
func Collect(pkg *types.Package, files []*ast.File, info *types.Info) *Summary {
	g := callgraph.New(files, info)
	c := &collector{
		g:    g,
		info: info,
		pkg:  pkg,
		s: &Summary{
			PkgPath: pkg.Path(),
			Sharded: make(map[string]bool),
			Funcs:   make(map[string]*FuncInfo),
		},
		edgeSeen: make(map[string]bool),
	}
	c.findShardedTypes(files)

	// Per-function direct facts, then the intra-package transitive
	// closure of acquires and cross-package callees.
	direct := make(map[*types.Func]*funcFacts)
	for _, fn := range g.Funcs() {
		fd := g.Decl(fn)
		c.setCurrent(fn, fd)
		direct[fn] = c.directFacts(fd)
	}
	c.trans = closeOver(direct, g)
	loop := append(g.DirectiveRoots("eventloop"), g.RegisteredArgs(observerKey)...)
	for _, fn := range append(g.RegisteredArgs(runKey), loop...) {
		t := c.trans[fn]
		for _, class := range sortedKeys(t.acquires) {
			a := t.acquires[class]
			c.addEdge(Edge{From: nodeClass, To: class, ToRLock: a.RLock, Pos: a.Pos, HeldAt: g.Decl(fn).Pos()})
		}
	}
	c.s.blocks = blocking(g, loop)

	for _, fn := range g.Funcs() {
		fd := g.Decl(fn)
		c.setCurrent(fn, fd)
		c.simFunc(fd.Body)
		// Function literals run with their own (empty) held set: a
		// goroutine or stored callback does not inherit the spawn
		// site's locks.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.simFunc(lit.Body)
			}
			return true
		})

		t := c.trans[fn]
		fi := &FuncInfo{}
		for _, cl := range sortedKeys(t.acquires) {
			fi.Acquires = append(fi.Acquires, t.acquires[cl])
		}
		fi.Callees = sortedStrings(t.crossCallees)
		fi.HeldCalls = c.heldCalls[fn]
		fi.Dyn = t.dyn
		c.s.Funcs[analysis.FuncKey(fn)] = fi
	}
	return c.s
}

// blocking walks from the event-loop roots and returns what may block
// the protocol goroutine.
func blocking(g *callgraph.Graph, roots []*types.Func) []hazard {
	var out []hazard
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, hazard{pos, fmt.Sprintf(format, args...)})
	}
	chans := g.Chans()
	safe := make(map[*ast.SendStmt]bool) // comm cases of a select with default
	g.Walk(roots, &callgraph.Walk{Node: func(n ast.Node, path string) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			var sends []*ast.SendStmt
			hasDefault := false
			for _, cl := range n.Body.List {
				cc := cl.(*ast.CommClause)
				hasDefault = hasDefault || cc.Comm == nil
				if s, ok := cc.Comm.(*ast.SendStmt); ok {
					sends = append(sends, s)
				}
			}
			if !hasDefault {
				report(n.Pos(), "select without default may block the protocol goroutine (reachable via %s)", path)
				return false
			}
			for _, s := range sends {
				safe[s] = true
			}
		case *ast.SendStmt:
			if !safe[n] && !chans.ProvablyBuffered(n.Chan) {
				report(n.Pos(), "channel send may block the protocol goroutine (reachable via %s); use a buffered channel or select with default", path)
			}
		case *ast.CallExpr:
			if what, ok := loopBlocks[analysis.FuncKey(analysis.Callee(g.Info, n))]; ok {
				report(n.Pos(), "%s on the protocol goroutine (reachable via %s)", what, path)
			}
		}
		return true
	}})
	return out
}

// setCurrent points the collector at one declaration: its function, and
// the parameter objects of the declaration and every function literal
// inside it (parameters are exempt from the stored-callback rule).
func (c *collector) setCurrent(fn *types.Func, fd *ast.FuncDecl) {
	c.current = fn
	c.curDecl = fd
	c.curParams = make(map[types.Object]bool)
	ast.Inspect(fd, func(n ast.Node) bool {
		ft, ok := n.(*ast.FuncType)
		if !ok || ft.Params == nil {
			return true
		}
		for _, f := range ft.Params.List {
			for _, name := range f.Names {
				if o := c.info.Defs[name]; o != nil {
					c.curParams[o] = true
				}
			}
		}
		return true
	})
}

type funcFacts struct {
	acquires     map[string]Acq
	crossCallees map[string]bool
	dyn          *DynInfo // contains (or reaches) a stored-callback call
}

type collector struct {
	g         *callgraph.Graph
	info      *types.Info
	pkg       *types.Package
	s         *Summary
	trans     map[*types.Func]*funcFacts
	edgeSeen  map[string]bool
	cbSeen    map[string]bool
	heldCalls map[*types.Func][]HeldCall
	current   *types.Func
	curDecl   *ast.FuncDecl
	curParams map[types.Object]bool
}

// findShardedTypes marks every named struct type that appears as the
// element of a slice, array or map field declared in the package:
// mutexes owned by such a type form a sharded class.
func (c *collector) findShardedTypes(files []*ast.File) {
	markElem := func(t ast.Expr) {
		key := analysis.TypeKey(c.info.TypeOf(t))
		if key != "" && strings.HasPrefix(key, c.pkg.Path()+".") {
			c.s.Sharded[key] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				switch ft := field.Type.(type) {
				case *ast.ArrayType:
					markElem(ft.Elt)
				case *ast.MapType:
					markElem(ft.Value)
				}
			}
			return true
		})
	}
	// The marks are type keys; acquisition sites translate them to
	// class keys (type + field) lazily via shardedOwner.
}

// shardedOwner reports whether the class key belongs to a sharded type.
func (c *collector) shardedOwner(class string) bool {
	i := strings.LastIndex(class, ".")
	return i > 0 && c.s.Sharded[class[:i]]
}

// classOf resolves the lock class of a mutex receiver expression.
func (c *collector) classOf(recv ast.Expr) (class string, sharded, ok bool) {
	recv = ast.Unparen(recv)
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		owner := analysis.TypeKey(c.info.TypeOf(e.X))
		if owner == "" {
			return "", false, false
		}
		class = owner + "." + e.Sel.Name
		return class, c.shardedOwner(class) || hasIndex(e.X), true
	case *ast.Ident:
		if v, ok := c.info.Uses[e].(*types.Var); ok && v.Pkg() != nil && !v.IsField() &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), false, true
		}
	}
	return "", false, false
}

// hasIndex reports whether an index expression feeds the receiver chain
// (s.shards[i].mu — a shard picked by index).
func hasIndex(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		return true
	case *ast.SelectorExpr:
		return hasIndex(e.X)
	case *ast.StarExpr:
		return hasIndex(e.X)
	case *ast.CallExpr:
		return false
	}
	return false
}

// lockCall classifies a call as a lock-class operation.
func (c *collector) lockCall(call *ast.CallExpr) (class string, acquire, rlock, sharded, ok bool) {
	callee := analysis.Callee(c.info, call)
	m, isLock := lockMethods[analysis.FuncKey(callee)]
	if !isLock {
		return "", false, false, false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false, false, false
	}
	class, sharded, ok = c.classOf(sel.X)
	return class, m.acquire, m.rlock, sharded, ok
}

// directFacts scans a declaration for lock acquisitions and
// cross-package static callees, excluding function literals and spawned
// bodies (they run with their own held set).
func (c *collector) directFacts(fd *ast.FuncDecl) *funcFacts {
	ff := &funcFacts{acquires: make(map[string]Acq), crossCallees: make(map[string]bool)}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if class, acquire, rlock, sharded, ok := c.lockCall(n); ok {
				if acquire {
					if old, seen := ff.acquires[class]; !seen || (old.RLock && !rlock) {
						ff.acquires[class] = Acq{Class: class, RLock: rlock, Pos: n.Pos()}
					}
					if sharded {
						c.s.Sharded[class] = true
					}
				}
				return true
			}
			callee := analysis.Callee(c.info, n)
			if nodeWaits[analysis.FuncKey(callee)] {
				ff.acquires[nodeClass] = Acq{Class: nodeClass, Pos: n.Pos()}
			}
			if callee == nil {
				if ff.dyn == nil && c.isDynamicCall(n) {
					ff.dyn = &DynInfo{Pos: n.Pos()}
				}
				return true
			}
			if callee.Pkg() == nil {
				return true
			}
			if c.g.Decl(callee) == nil && callee.Pkg() != c.pkg && callee.Pkg().Path() != "sync" {
				ff.crossCallees[analysis.FuncKey(callee)] = true
			}
		}
		return true
	})
	return ff
}

// isDynamicCall reports whether call invokes a stored callback: a func
// value whose body static analysis cannot see. Conversions, builtins,
// resolvable functions and methods (including interface methods) are
// not; neither are function parameters of the enclosing declaration
// (an explicitly passed closure is part of the function's contract) or
// locals only ever assigned function literals (their bodies are right
// there, and are simulated as separate roots).
func (c *collector) isDynamicCall(call *ast.CallExpr) bool {
	if tv, ok := c.info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return false
	}
	t := c.info.TypeOf(call.Fun)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Signature); !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		obj := c.info.Uses[id]
		if obj == nil || c.curParams[obj] {
			return false
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && c.funcLitOnly(obj) {
			return false
		}
	}
	return true
}

// funcLitOnly reports whether every assignment to obj inside the current
// declaration is a function literal (and there is at least one).
func (c *collector) funcLitOnly(obj types.Object) bool {
	if c.curDecl == nil {
		return false
	}
	found, all := false, true
	ast.Inspect(c.curDecl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				o := c.info.Defs[id]
				if o == nil {
					o = c.info.Uses[id]
				}
				if o != obj {
					continue
				}
				found = true
				if len(n.Rhs) == len(n.Lhs) {
					if _, isLit := ast.Unparen(n.Rhs[i]).(*ast.FuncLit); isLit {
						continue
					}
				}
				all = false
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if c.info.Defs[name] != obj {
					continue
				}
				found = true
				if i < len(n.Values) {
					if _, isLit := ast.Unparen(n.Values[i]).(*ast.FuncLit); isLit {
						continue
					}
				}
				all = false
			}
		}
		return true
	})
	return found && all
}

// closeOver computes the intra-package transitive closure of acquires
// and cross-package callees over the static call graph.
func closeOver(direct map[*types.Func]*funcFacts, g *callgraph.Graph) map[*types.Func]*funcFacts {
	callees := make(map[*types.Func][]*types.Func)
	for _, fn := range g.Funcs() {
		fd := g.Decl(fn)
		seen := make(map[*types.Func]bool)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			// Spawned and deferred-literal code runs with its own held
			// set; its acquisitions must not leak into the caller's, so
			// skip the same subtrees directFacts does.
			switch n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if callee, cfd := g.Callee(call); cfd != nil && !seen[callee] {
					seen[callee] = true
					callees[fn] = append(callees[fn], callee)
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Funcs() {
			ff := direct[fn]
			for _, callee := range callees[fn] {
				cf := direct[callee]
				for class, a := range cf.acquires {
					if _, ok := ff.acquires[class]; !ok {
						ff.acquires[class] = a
						changed = true
					}
				}
				for key := range cf.crossCallees {
					if !ff.crossCallees[key] {
						ff.crossCallees[key] = true
						changed = true
					}
				}
				if ff.dyn == nil && cf.dyn != nil {
					ff.dyn = cf.dyn
					changed = true
				}
			}
		}
	}
	return direct
}

// --- intra-function simulation ---

type held struct {
	class   string
	rlock   bool
	sharded bool
	pos     token.Pos
}

// simFunc simulates one body with an empty held set.
func (c *collector) simFunc(body *ast.BlockStmt) {
	if c.heldCalls == nil {
		c.heldCalls = make(map[*types.Func][]HeldCall)
	}
	c.simBlock(body.List, nil)
}

func (c *collector) simBlock(stmts []ast.Stmt, h []held) []held {
	for _, st := range stmts {
		h = c.simStmt(st, h)
	}
	return h
}

func cloneHeld(h []held) []held { return append([]held(nil), h...) }

func (c *collector) simStmt(st ast.Stmt, h []held) []held {
	switch st := st.(type) {
	case nil:
		return h
	case *ast.BlockStmt:
		return c.simBlock(st.List, h)
	case *ast.LabeledStmt:
		return c.simStmt(st.Stmt, h)
	case *ast.DeferStmt:
		// A deferred unlock runs at return: the lock stays held for the
		// rest of the simulation, which is exactly the ordering truth.
		if _, _, _, _, ok := c.lockCall(st.Call); ok {
			return h
		}
		for _, a := range st.Call.Args {
			h = c.simExpr(a, h)
		}
		return h
	case *ast.GoStmt:
		for _, a := range st.Call.Args {
			h = c.simExpr(a, h)
		}
		return h
	case *ast.IfStmt:
		h = c.simStmt(st.Init, h)
		h = c.simExpr(st.Cond, h)
		c.simBlock(st.Body.List, cloneHeld(h))
		if st.Else != nil {
			c.simStmt(st.Else, cloneHeld(h))
		}
		return h
	case *ast.ForStmt:
		h = c.simStmt(st.Init, h)
		if st.Cond != nil {
			h = c.simExpr(st.Cond, h)
		}
		inner := c.simBlock(st.Body.List, cloneHeld(h))
		c.simStmt(st.Post, inner)
		return h
	case *ast.RangeStmt:
		h = c.simExpr(st.X, h)
		c.simBlock(st.Body.List, cloneHeld(h))
		return h
	case *ast.SwitchStmt:
		h = c.simStmt(st.Init, h)
		if st.Tag != nil {
			h = c.simExpr(st.Tag, h)
		}
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.simBlock(cc.Body, cloneHeld(h))
			}
		}
		return h
	case *ast.TypeSwitchStmt:
		h = c.simStmt(st.Init, h)
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.simBlock(cc.Body, cloneHeld(h))
			}
		}
		return h
	case *ast.SelectStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				inner := cloneHeld(h)
				if cc.Comm != nil {
					inner = c.simStmt(cc.Comm, inner)
				}
				c.simBlock(cc.Body, inner)
			}
		}
		return h
	default:
		return c.simExpr(st, h)
	}
}

// simExpr scans a node for calls in source order, updating the held set
// and recording edges. Function literals are skipped — they are
// simulated as separate roots.
func (c *collector) simExpr(n ast.Node, h []held) []held {
	if n == nil {
		return h
	}
	var calls []*ast.CallExpr
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			calls = append(calls, n)
		}
		return true
	})
	for _, call := range calls {
		h = c.simCall(call, h)
	}
	return h
}

func (c *collector) simCall(call *ast.CallExpr, h []held) []held {
	if class, acquire, rlock, sharded, ok := c.lockCall(call); ok {
		if !acquire {
			for i := len(h) - 1; i >= 0; i-- {
				if h[i].class == class {
					return append(append([]held(nil), h[:i]...), h[i+1:]...)
				}
			}
			return h
		}
		for _, hl := range h {
			c.addEdge(Edge{
				From: hl.class, To: class,
				FromRLock: hl.rlock, ToRLock: rlock,
				Pos: call.Pos(), HeldAt: hl.pos,
			})
		}
		if sharded {
			c.s.Sharded[class] = true
		}
		return append(h, held{class: class, rlock: rlock, sharded: sharded, pos: call.Pos()})
	}

	callee := analysis.Callee(c.info, call)
	if callee == nil {
		if len(h) > 0 && c.isDynamicCall(call) {
			c.addCallback(CallbackHazard{
				Pos: call.Pos(), Held: h[len(h)-1].class,
				HeldRLock: h[len(h)-1].rlock, HeldAt: h[len(h)-1].pos,
				Dyn: DynInfo{Pos: call.Pos()},
			})
		}
		return h
	}
	if len(h) == 0 {
		return h
	}
	if nodeWaits[analysis.FuncKey(callee)] {
		for _, hl := range h {
			c.addEdge(Edge{
				From: hl.class, To: nodeClass,
				FromRLock: hl.rlock,
				Pos:       call.Pos(), HeldAt: hl.pos,
			})
		}
		return h
	}
	if fd := c.g.Decl(callee); fd != nil {
		// Same-package callee: edge to everything it transitively takes.
		if t := c.trans[callee]; t != nil {
			for _, class := range sortedKeys(t.acquires) {
				a := t.acquires[class]
				for _, hl := range h {
					c.addEdge(Edge{
						From: hl.class, To: a.Class,
						FromRLock: hl.rlock, ToRLock: a.RLock,
						Pos: call.Pos(), HeldAt: hl.pos,
					})
				}
			}
			if t.dyn != nil {
				c.addCallback(CallbackHazard{
					Pos: call.Pos(), Held: h[len(h)-1].class,
					HeldRLock: h[len(h)-1].rlock, HeldAt: h[len(h)-1].pos,
					Dyn: DynInfo{Pos: t.dyn.Pos, Via: callee.Name()},
				})
			}
		}
		return h
	}
	if callee.Pkg() != nil && callee.Pkg() != c.pkg && callee.Pkg().Path() != "sync" {
		for _, hl := range h {
			c.heldCalls[c.current] = append(c.heldCalls[c.current], HeldCall{
				Held: hl.class, HeldRLock: hl.rlock, HeldAt: hl.pos,
				Callee: analysis.FuncKey(callee), Pos: call.Pos(),
			})
		}
	}
	return h
}

func (c *collector) addEdge(e Edge) {
	key := fmt.Sprintf("%s|%s|%v|%v", e.From, e.To, e.FromRLock, e.ToRLock)
	if c.edgeSeen[key] {
		return
	}
	c.edgeSeen[key] = true
	c.s.Edges = append(c.s.Edges, e)
}

func (c *collector) addCallback(cb CallbackHazard) {
	if c.cbSeen == nil {
		c.cbSeen = make(map[string]bool)
	}
	key := fmt.Sprintf("%s|%d", cb.Held, cb.Pos)
	if c.cbSeen[key] {
		return
	}
	c.cbSeen[key] = true
	c.s.Callbacks = append(c.s.Callbacks, cb)
}

// --- hazard detection ---

type hazard struct {
	pos token.Pos
	msg string
}

// hazards finds self-edges and cycles. In global mode only hazards that
// involve at least one cross-package edge are reported (the per-package
// pass already covered the rest).
func hazards(edges []Edge, sharded map[string]bool, fset *token.FileSet, globalOnly bool) []hazard {
	var out []hazard
	at := func(p token.Pos) string { return fset.Position(p).String() }

	for _, e := range edges {
		if e.From != e.To {
			continue
		}
		if globalOnly != e.Global {
			continue
		}
		if e.FromRLock && e.ToRLock {
			continue // concurrent readers are fine
		}
		switch {
		case e.From == nodeClass:
			out = append(out, hazard{e.Pos, fmt.Sprintf(
				"code a totem node's protocol goroutine runs (%s) waits on that goroutine, which is the goroutine it runs on",
				at(e.HeldAt))})
		case sharded[e.From]:
			out = append(out, hazard{e.Pos, fmt.Sprintf(
				"acquisition of sharded lock class %s while another lock of the same class is held (since %s); cross-shard order is undefined — release the first shard or impose an index order",
				e.From, at(e.HeldAt))})
		default:
			out = append(out, hazard{e.Pos, fmt.Sprintf(
				"%s acquired while already held (since %s); sync mutexes are not reentrant",
				e.From, at(e.HeldAt))})
		}
	}

	// Cycles between distinct classes: adjacency without self-edges,
	// report once per ordered pair at the lexicographically first edge.
	adj := make(map[string][]Edge)
	for _, e := range edges {
		if e.From != e.To {
			adj[e.From] = append(adj[e.From], e)
		}
	}
	reported := make(map[string]bool)
	for _, e := range edges {
		if e.From == e.To || e.From > e.To {
			continue
		}
		path, hasGlobal := findPath(adj, e.To, e.From)
		if path == nil {
			continue
		}
		if globalOnly && !e.Global && !hasGlobal {
			continue
		}
		pairKey := e.From + "|" + e.To
		if reported[pairKey] {
			continue
		}
		reported[pairKey] = true
		back := path[len(path)-1] // the edge that re-acquires e.From
		out = append(out, hazard{e.Pos, fmt.Sprintf(
			"lock order cycle: %s acquired while %s is held here, but %s is acquired while %s is held at %s",
			e.To, e.From, e.From, back.From, at(back.Pos))})
	}

	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// findPath finds an edge path from -> ... -> to, returning the edges and
// whether any of them is cross-package.
func findPath(adj map[string][]Edge, from, to string) ([]Edge, bool) {
	type state struct {
		node string
		path []Edge
	}
	visited := map[string]bool{from: true}
	queue := []state{{from, nil}}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, e := range adj[s.node] {
			p := append(append([]Edge(nil), s.path...), e)
			if e.To == to {
				hasGlobal := false
				for _, pe := range p {
					if pe.Global {
						hasGlobal = true
					}
				}
				return p, hasGlobal
			}
			if !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, state{e.To, p})
			}
		}
	}
	return nil, false
}

func sortedKeys(m map[string]Acq) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedStrings(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
