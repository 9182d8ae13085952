// Package arenaalias flags code paths that let delivered datagram bytes
// escape the delivery callback without a copy, or that write to them.
//
// The receive path is zero-copy and the datagram is the arena: totem
// decodes a received datagram in place, totem.Delivery.Payload is a
// window onto it, and replication.DecodeHeader returns a HeaderView
// whose Payload aliases it in turn. Everything downstream of the
// event-loop callback therefore holds borrowed memory — and on memnet
// the same datagram is in every ring member's hands at once. Retaining
// it — storing it into a long-lived structure, sending it to another
// goroutine, capturing it in a spawned closure — pins the whole datagram
// and becomes a silent use-after-reuse the day datagrams are pooled.
// Writing to it corrupts the message for every other payload packed into
// the datagram and for every other member. The only safe way to change
// delivery bytes is an explicit copy: append([]byte(nil), b...), or a
// string conversion. And the only ways to keep them are that copy and the
// two sanctioned retentions (DESIGN.md section 7). A function declared
// with a "gwlint:arena-retain" directive — replication.retain, which the
// long-lived gateway-group record keeps its replies through — hands back
// the window itself when the datagram carries no other message and a
// copy when it is a part of a pack. Its result may flow into a field
// store; it is still borrowed for the read-only pass, because a kept
// datagram is as shared as a delivered one. A function declared with a
// "gwlint:arena-keep" directive — replication's logInvocation — is a
// bounded sink that keeps what it is given by reference, a part of a pack
// too, until something cuts it (the recovery log, at every checkpoint):
// its reference-like parameters are borrowed, so it may store them and
// may not write to them. A datagram that may be kept like this is one no
// transport may ever pool: it lives as long as the log entry or reply
// record that keeps it.
//
// The analyzer runs a per-function taint pass. Any expression whose type
// is an arena type (totem.Delivery, totem.Event, replication.HeaderView,
// replication.Message, or any in-package type declared with a
// "gwlint:arena" directive comment) is borrowed; taint flows through
// reference-carrying selectors, sub-slices, locals, composite literals
// and address-taking, and stops at copies — appending borrowed bytes
// copies the bytes, so append([]byte(nil), b...) comes out clean without
// special-casing. A finding is reported when a borrowed value is
//
//   - assigned to anything longer-lived than a local variable (a struct
//     field, a map or slice element, a dereferenced pointer, a package
//     variable),
//   - sent on a channel whose element type is not a declared carrier
//     (replication's task and Response stay on the delivery cycle by
//     construction; others opt in with "gwlint:arena-carrier"),
//   - captured by a function launched with go, or
//   - returned with a type that is not itself an arena or carrier type
//     (returning a HeaderView hands the borrow to the caller explicitly;
//     returning a bare []byte hides it).
//
// Passing a borrowed value as a call argument is allowed — the callee is
// analyzed on its own and is responsible for what it retains.
//
// Borrowed also means read-only. A second pass over the same taint —
// widened by memnet.Packet, whose Payload the transport shares between
// receivers before totem ever decodes it — reports
//
//   - an element of a borrowed slice assigned, op-assigned or
//     incremented (b[i] = x),
//   - a borrowed slice as the destination of copy, and
//   - append onto a borrowed slice whose capacity is not visibly clipped
//     (b[:n:n] or slices.Clip(b)): the append may write into the bytes
//     behind it, which belong to the next payload of the datagram.
package arenaalias

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"eternalgw/internal/analysis"
)

// defaultArena names the types whose values alias the delivery arena,
// wherever they appear. In-package code can extend the set with a
// "gwlint:arena" directive on the type declaration (directives are
// comments, so they are invisible across package boundaries — which is
// why the cross-package defaults are spelled out here).
var defaultArena = map[string]bool{
	"eternalgw/internal/totem.Delivery":         true,
	"eternalgw/internal/totem.Event":            true,
	"eternalgw/internal/replication.HeaderView": true,
	"eternalgw/internal/replication.Message":    true,
}

// defaultShared names types that are not escape-checked — a Packet is
// made to be queued and handed on — but whose bytes are as read-only as
// any arena type's: memnet gives every receiver of a broadcast the same
// Payload.
var defaultShared = map[string]bool{
	"eternalgw/internal/memnet.Packet": true,
}

// defaultCarrier maps the types allowed to carry borrowed memory
// through channels, queues and returns to the set of their fields that
// actually hold the borrow: task.msg/task.raw and Response.raw alias
// the arena and stay tainted when selected; every other field
// (Response.rep, which the voting path decodes on the loop) is clean. Their consumers
// decode or copy immediately on receipt by construction, which the
// replication package's own tests and this analyzer's pass over that
// package keep honest. A nil field set — what an in-package
// "gwlint:arena-carrier" directive declares — means every
// reference-carrying field is treated as a borrow, the conservative
// default.
var defaultCarrier = map[string]map[string]bool{
	"eternalgw/internal/replication.task":     {"msg": true, "raw": true},
	"eternalgw/internal/replication.Response": {"raw": true},
}

var Analyzer = &analysis.Analyzer{
	Name: "arenaalias",
	Doc:  "flags delivery-arena memory escaping the delivery callback without a copy",
	Run:  run,
}

type checker struct {
	pass  *analysis.Pass
	arena map[string]bool // type keys whose values are always borrowed
	// writes selects the read-only pass: arena holds the shared types as
	// well, and findings are writes instead of escapes.
	writes bool
	// carrier maps carrier type keys to their borrow-holding fields;
	// a nil set means every reference-carrying field.
	carrier map[string]map[string]bool
	// retain holds the functions declared "gwlint:arena-retain": what they
	// return may be kept, and may not be written to.
	retain map[types.Object]bool
	// keep holds the functions declared "gwlint:arena-keep": their
	// parameters are borrowed, and they may store them, not write them.
	keep map[types.Object]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:    pass,
		arena:   make(map[string]bool, len(defaultArena)),
		carrier: make(map[string]map[string]bool, len(defaultCarrier)),
		retain:  make(map[types.Object]bool),
		keep:    make(map[types.Object]bool),
	}
	for k := range defaultArena {
		c.arena[k] = true
	}
	for k, v := range defaultCarrier {
		c.carrier[k] = v
	}
	for obj, ds := range analysis.Directives(pass.Files, pass.TypesInfo) {
		key := pass.Pkg.Path() + "." + obj.Name()
		if slices.Contains(ds, "arena") {
			c.arena[key] = true
		}
		if _, ok := c.carrier[key]; !ok && slices.Contains(ds, "arena-carrier") {
			c.carrier[key] = nil
		}
		if slices.Contains(ds, "arena-retain") {
			c.retain[obj] = true
		}
		if slices.Contains(ds, "arena-keep") {
			c.keep[obj] = true
		}
	}
	ro := &checker{pass: pass, arena: make(map[string]bool, len(c.arena)+len(defaultShared)), carrier: c.carrier, retain: c.retain, keep: c.keep, writes: true}
	for k := range c.arena {
		ro.arena[k] = true
	}
	for k := range defaultShared {
		ro.arena[k] = true
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
				ro.checkFunc(fd)
			}
		}
	}
	return nil
}

// checkFunc runs the taint pass over one function body. Function
// literals nested inside are visited as part of the enclosing body (they
// share its scope), except that a literal launched with go is itself a
// violation site when it captures borrowed values.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	body := fd.Body
	tainted := make(map[types.Object]bool)

	// Arena-typed values are borrowed wherever they appear (handled by
	// type in tainted); carrier values are borrowed by provenance — a
	// carrier that arrives as a parameter or receiver wraps live arena
	// memory, while one freshly built from copies does not. Seed the
	// incoming ones here; channel receives are seeded in tainted.
	seedFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if !c.isCarrier(analysis.TypeKey(c.pass.TypesInfo.TypeOf(f.Type))) {
				continue
			}
			for _, name := range f.Names {
				if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
					tainted[obj] = true
				}
			}
		}
	}
	seedFields(fd.Recv)
	seedFields(fd.Type.Params)
	// A keep sink's parameters are the delivered bytes it keeps.
	keeps := c.keep[c.pass.TypesInfo.Defs[fd.Name]]
	if keeps {
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				if obj := c.pass.TypesInfo.Defs[name]; obj != nil && refLike(obj.Type()) {
					tainted[obj] = true
				}
			}
		}
	}

	// Seed and propagate through assignments to a fixpoint. Two passes
	// over the body always suffice in practice, but loop until stable to
	// stay independent of statement order.
	for {
		changed := false
		mark := func(id *ast.Ident, from ast.Expr) {
			obj := c.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = c.pass.TypesInfo.Uses[id]
			}
			if obj == nil || tainted[obj] {
				return
			}
			if !refLike(obj.Type()) {
				return
			}
			if c.tainted(tainted, from) {
				tainted[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							mark(id, n.Rhs[i])
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, id := range n.Names {
						mark(id, n.Values[i])
					}
				}
			case *ast.RangeStmt:
				// Ranging over a borrowed slice of reference-like
				// elements hands out borrowed elements.
				if c.tainted(tainted, n.X) {
					if id, ok := n.Value.(*ast.Ident); ok {
						mark(id, n.X)
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	if c.writes {
		c.findWrites(body, tainted)
	} else {
		c.findViolations(body, tainted, keeps)
	}
}

// tainted reports whether e evaluates to borrowed arena memory under the
// current local taint set.
func (c *checker) tainted(set map[types.Object]bool, e ast.Expr) bool {
	if e == nil {
		return false
	}
	e = ast.Unparen(e)

	// Any value of an arena type is borrowed, however it was produced —
	// HeaderView.Message() returns a borrowing Message. Carrier types
	// are borrowed by provenance, not by type: a task built from copied
	// bytes is clean, one that arrived as a parameter or over a channel
	// is not (seeded in checkFunc and the receive case below).
	if t := c.pass.TypesInfo.TypeOf(e); t != nil && c.arena[analysis.TypeKey(t)] {
		return true
	}

	switch e := e.(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		return obj != nil && set[obj]
	case *ast.SelectorExpr:
		// A reference-carrying field of a borrowed value is borrowed;
		// scalar fields (Header.ClientID) are plain copies. Carrier
		// types declare which fields hold the borrow: Response.raw aliases
		// the arena, Response.rep is not tracked.
		if !refLike(c.pass.TypesInfo.TypeOf(e)) {
			return false
		}
		if xKey := analysis.TypeKey(c.pass.TypesInfo.TypeOf(e.X)); !c.arena[xKey] {
			if fields, ok := c.carrier[xKey]; ok && fields != nil {
				return fields[e.Sel.Name] && c.tainted(set, e.X)
			}
		}
		return c.tainted(set, e.X)
	case *ast.IndexExpr:
		return refLike(c.pass.TypesInfo.TypeOf(e)) && c.tainted(set, e.X)
	case *ast.SliceExpr:
		return c.tainted(set, e.X)
	case *ast.StarExpr:
		return c.tainted(set, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			// Receiving a carrier hands over the borrow it wraps.
			if c.isCarrier(analysis.TypeKey(c.pass.TypesInfo.TypeOf(e))) {
				return true
			}
		}
		return c.tainted(set, e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if c.tainted(set, el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return c.callTainted(set, e)
	}
	return false
}

// callTainted handles the expressions where borrowing survives a call.
// append is the interesting case: append always copies the appended
// elements, so appending borrowed *bytes* onto a fresh slice is exactly
// the sanctioned copy idiom and comes out clean; the result is borrowed
// only if the destination already was, or if the elements themselves are
// reference-like (appending a borrowed task into a slice stores the
// borrow, not a copy of the bytes).
func (c *checker) callTainted(set map[types.Object]bool, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
			if c.tainted(set, call.Args[0]) {
				return true
			}
			st, _ := c.pass.TypesInfo.TypeOf(call.Args[0]).Underlying().(*types.Slice)
			if st != nil && !refLike(st.Elem()) {
				return false // copies scalar elements: the sanctioned idiom
			}
			for _, a := range call.Args[1:] {
				if c.tainted(set, a) {
					return true
				}
			}
			return false
		}
	}
	// The sanctioned retention: its result is the caller's to keep, and,
	// being possibly the delivered window itself, nobody's to write to.
	if fn := analysis.Callee(c.pass.TypesInfo, call); fn != nil && c.retain[fn] {
		return c.writes && len(call.Args) > 0 && c.tainted(set, call.Args[0])
	}
	// A type conversion to a reference-like type keeps the borrow
	// ([]byte(x)); conversions to string or scalars copy. Ordinary calls
	// return fresh values unless their result type is an arena type,
	// which the type check at the top of tainted already caught.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return refLike(tv.Type) && len(call.Args) == 1 && c.tainted(set, call.Args[0])
	}
	return false
}

// findViolations walks the body reporting escapes of borrowed values;
// in a keep sink, storing them is what it is for.
func (c *checker) findViolations(body *ast.BlockStmt, set map[types.Object]bool, keeps bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if keeps || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if !c.tainted(set, n.Rhs[i]) {
					continue
				}
				if dest := c.escapingDest(set, lhs); dest != "" {
					c.pass.Reportf(n.Rhs[i].Pos(),
						"delivery-arena memory stored in %s outlives the delivery callback; copy it first (append([]byte(nil), b...))", dest)
				}
			}
		case *ast.SendStmt:
			if !c.tainted(set, n.Value) {
				return true
			}
			if ch := c.pass.TypesInfo.TypeOf(n.Chan); ch != nil {
				if chT, ok := ch.Underlying().(*types.Chan); ok && c.isCarrier(analysis.TypeKey(chT.Elem())) {
					return true
				}
			}
			c.pass.Report(n.Value.Pos(),
				"delivery-arena memory sent on a channel leaves the delivery callback; copy it first or send a declared carrier type")
		case *ast.GoStmt:
			c.checkGoCapture(n, set)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if !c.tainted(set, res) {
					continue
				}
				key := analysis.TypeKey(c.pass.TypesInfo.TypeOf(res))
				if c.arena[key] || c.isCarrier(key) {
					continue // the caller sees the borrow in the type
				}
				c.pass.Report(res.Pos(),
					"returning delivery-arena memory as a plain value hides the borrow; copy it, or return an arena type so the caller knows")
			}
		}
		return true
	})
}

// findWrites walks the body reporting writes to borrowed bytes. Only
// slices of scalar elements are the datagram's own memory: a borrowed
// slice of tasks or of part headers is the holder's private index over
// it, and storing into that is the escape pass's business.
func (c *checker) findWrites(body *ast.BlockStmt, set map[types.Object]bool) {
	const why = "delivered bytes are read-only and may be shared between ring members"
	arenaBytes := func(e ast.Expr) bool {
		st, ok := c.pass.TypesInfo.TypeOf(e).Underlying().(*types.Slice)
		return ok && !refLike(st.Elem()) && c.tainted(set, e)
	}
	element := func(lhs ast.Expr) {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && arenaBytes(ix.X) {
			c.pass.Reportf(lhs.Pos(), "write into delivery-arena memory: %s; copy first (append([]byte(nil), b...))", why)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				element(lhs)
			}
		case *ast.IncDecStmt:
			element(n.X)
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok || len(n.Args) == 0 {
				return true
			}
			b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin)
			if !ok || !arenaBytes(n.Args[0]) {
				return true
			}
			switch {
			case b.Name() == "copy":
				c.pass.Reportf(n.Args[0].Pos(), "copy onto delivery-arena memory: %s; copy into a buffer of your own", why)
			case b.Name() == "append" && !c.clipped(n.Args[0]):
				c.pass.Reportf(n.Args[0].Pos(), "append to delivery-arena memory may write into the bytes behind it: %s; clip the capacity (b[:len(b):len(b)]) or copy first", why)
			}
		}
		return true
	})
}

// clipped reports whether e visibly has no spare capacity to append
// into: a three-index slice whose max is its high bound, or slices.Clip.
func (c *checker) clipped(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return e.Slice3 && e.High != nil && types.ExprString(e.Max) == types.ExprString(e.High)
	case *ast.CallExpr:
		return analysis.FuncKey(analysis.Callee(c.pass.TypesInfo, e)) == "slices.Clip"
	}
	return false
}

// escapingDest classifies an assignment destination that outlives the
// callback; "" means the store is a local and fine. Fields of local
// carrier values are allowed: building a task in a local before pushing
// it is the normal shape.
func (c *checker) escapingDest(set map[types.Object]bool, lhs ast.Expr) string {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return ""
		}
		obj := c.pass.TypesInfo.Defs[lhs]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[lhs]
		}
		if v, ok := obj.(*types.Var); ok && v.Parent() != nil && v.Parent() != v.Pkg().Scope() {
			return "" // local variable
		}
		return "a package variable"
	case *ast.SelectorExpr:
		// Storing into a field of a carrier type is the carrier doing
		// its job — taskQueue.push appending a task is the sanctioned
		// handoff; the queue's consumer is covered on its own.
		if c.isCarrier(analysis.TypeKey(c.pass.TypesInfo.TypeOf(lhs.X))) {
			return ""
		}
		return "a struct field"
	case *ast.IndexExpr:
		// So is storing into an element of a carrier's own slice: a
		// ring queue's slot is the queue's, as its field is.
		if sel, ok := ast.Unparen(lhs.X).(*ast.SelectorExpr); ok && c.isCarrier(analysis.TypeKey(c.pass.TypesInfo.TypeOf(sel.X))) {
			return ""
		}
		return "a map or slice element"
	case *ast.StarExpr:
		return "a dereferenced pointer"
	}
	return ""
}

// checkGoCapture flags borrowed locals referenced inside a go'd closure.
func (c *checker) checkGoCapture(g *ast.GoStmt, set map[types.Object]bool) {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		// go f(borrowed) — the argument is evaluated now but retained by
		// the new goroutine past the callback's return.
		for _, a := range g.Call.Args {
			if c.tainted(set, a) {
				c.pass.Report(a.Pos(),
					"delivery-arena memory passed to a spawned goroutine outlives the delivery callback; copy it first")
			}
		}
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.TypesInfo.Uses[id]
		if obj != nil && set[obj] {
			c.pass.Reportf(id.Pos(),
				"goroutine captures delivery-arena memory (%s) beyond the delivery callback; copy it before the go statement", id.Name)
			return true
		}
		return true
	})
}

func (c *checker) isCarrier(key string) bool {
	_, ok := c.carrier[key]
	return ok
}

// refLike reports whether a value of type t can carry a reference to the
// arena: slices, pointers, maps, channels, interfaces, functions, and
// aggregates containing any of those. Strings are immutable copies by
// construction; scalars obviously carry nothing.
func refLike(t types.Type) bool {
	return refLike1(t, 0)
}

func refLike1(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Array:
		return refLike1(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLike1(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}
