package callgraph

import (
	"go/ast"
	"go/types"
	"strings"

	"eternalgw/internal/analysis"
)

// ChanFacts records, for every channel storage location assigned in the
// package, whether all of its make sites carry a constant capacity
// greater than zero. A send on such a channel cannot block its single
// producer; lockorder uses that to admit buffered handoffs on a totem
// node's protocol goroutine, and gospawn to prove a result-channel send
// terminates.
type ChanFacts struct {
	info     *types.Info
	buffered map[chanKey]bool
	unknown  map[chanKey]bool // make with unknown/zero cap seen
}

// chanKey identifies where a channel lives: a variable object, or a
// named struct field.
type chanKey struct {
	obj   types.Object // variable, when field == ""
	owner string       // TypeKey of the struct, for fields
	field string
}

// Chans scans the package's make sites and returns the channel facts.
func (g *Graph) Chans() *ChanFacts {
	c := &ChanFacts{
		info:     g.Info,
		buffered: make(map[chanKey]bool),
		unknown:  make(map[chanKey]bool),
	}
	note := func(key chanKey, buffered bool) {
		if buffered && !c.unknown[key] {
			c.buffered[key] = true
		} else {
			c.unknown[key] = true
			delete(c.buffered, key)
		}
	}
	for _, f := range g.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					if ok, buffered := c.makeChan(rhs); ok {
						if key, ok := c.keyFor(n.Lhs[i]); ok {
							note(key, buffered)
						}
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if ok, buffered := c.makeChan(kv.Value); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if owner := analysis.TypeKey(c.info.TypeOf(n)); owner != "" {
								note(chanKey{owner: owner, field: id.Name}, buffered)
							}
						}
					}
				}
			}
			return true
		})
	}
	return c
}

// ProvablyBuffered reports whether every make site seen for ch's storage
// location had a constant positive capacity.
func (c *ChanFacts) ProvablyBuffered(ch ast.Expr) bool {
	key, ok := c.keyFor(ch)
	if !ok {
		return false
	}
	return c.buffered[key] && !c.unknown[key]
}

// makeChan reports whether e is make(chan ...) and whether its capacity
// is a constant greater than zero.
func (c *ChanFacts) makeChan(e ast.Expr) (isMake, buffered bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false, false
	}
	if b, ok := c.info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false, false
	}
	if len(call.Args) == 0 {
		return false, false
	}
	if _, ok := c.info.TypeOf(call.Args[0]).Underlying().(*types.Chan); !ok {
		return false, false
	}
	if len(call.Args) < 2 {
		return true, false
	}
	tv, ok := c.info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return true, false
	}
	return true, constIntPositive(tv.Value.String())
}

func constIntPositive(s string) bool {
	s = strings.TrimSpace(s)
	return s != "" && s != "0" && !strings.HasPrefix(s, "-")
}

// keyFor resolves a channel storage location for an lvalue or channel
// expression.
func (c *ChanFacts) keyFor(e ast.Expr) (chanKey, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := c.info.Defs[e]
		if obj == nil {
			obj = c.info.Uses[e]
		}
		if obj == nil {
			return chanKey{}, false
		}
		return chanKey{obj: obj}, true
	case *ast.SelectorExpr:
		owner := analysis.TypeKey(c.info.TypeOf(e.X))
		if owner == "" {
			return chanKey{}, false
		}
		return chanKey{owner: owner, field: e.Sel.Name}, true
	}
	return chanKey{}, false
}
