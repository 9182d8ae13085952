package eternalgw_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"eternalgw/internal/analysis"
)

// notShipped lists the exported declarations that may stand without a
// caller outside tests, each with the reason it stays. Anything bench/
// calls needs no entry: the benchmark is a shipping caller (and frozen,
// so what it calls is pinned; the test logs that list). Keys are the
// package path inside the module, then the declaration, with a method
// as Type.Method.
var notShipped = map[string]string{
	// Seams another package's tests use to fault or observe a shipping component.
	"internal/domain.Domain.CrashNode":            "seam: tests crash a processor of a running domain",
	"internal/domain.Domain.RestartNode":          "seam: tests bring a crashed processor back",
	"internal/replication.Mechanisms.SetObserver": "seam: tests watch what a processor's mechanisms deliver",
	"internal/experiments.RegisterApp.Ops":        "seam: the paper's claims read the servant's operation count",
	"internal/experiments.RegisterApp.Value":      "seam: the paper's claims read the servant's state",
	"internal/experiments.WorkArg":                "seam: the paper's claims build a work request",
	"internal/faultinject.Plan.Ops":               "seam: soaks report how far a fault plan has come",
	"internal/logrec.Log.EntryCount":              "seam: recovery tests read how much a group's log holds",
	"internal/orb.ServantFunc":                    "seam: tests stand up a servant from a function",
	"internal/slab.Slab.Chunk":                    "seam: totem's tests check that what a core carves lies in its slab's chunk",

	// Tested features of the reproduction that cmd/ does not deploy.
	"internal/replication.Mechanisms.DeleteGroup": "tested feature: a group is deleted by an ordered message",
	"internal/replication.Handle.Invoke":          "tested feature: invocation through the replication API's own handle",
	"internal/orb.WithAdvertiser":                 "tested feature: a server's IOR names the address an advertiser gives",
	"internal/orb.Server.IOR":                     "tested feature: a server's IOR names the address an advertiser gives",
	"internal/domain.NewBridgeApp":                "tested feature: the §3.4 gateway between two domains",
	"internal/domain.BridgeApp.Close":             "tested feature: the §3.4 gateway between two domains",
	"internal/naming.Resolver.Bind":               "tested feature: the naming service's operations",
	"internal/naming.Resolver.Unbind":             "tested feature: the naming service's operations",
	"internal/naming.Resolver.List":               "tested feature: the naming service's operations",
	"internal/orb.Conn.Locate":                    "tested feature: the GIOP LocateRequest",
	"internal/orb.Conn.SetGIOPMinor":              "tested feature: a client speaking GIOP 1.0 or 1.1",
	"internal/giop.EncodeCancelRequest":           "tested feature: the GIOP CancelRequest",
	"internal/ftmgmt.Manager.RemoveHost":          "tested feature: FT-CORBA's host removal",
	"internal/ftmgmt.Manager.Properties":          "tested feature: FT-CORBA's property query",
	"internal/thinclient.Client.RefreshProfiles":  "tested feature: the thin client re-reads its IOR",
	"internal/thinclient.Client.UniqueID":         "tested feature: the client's FT_REQUEST identifier",

	// The CDR codec's primitive types and encapsulations (CORBA 2.3 §15.3):
	// one codec, tested whole, whichever of them the shipping servants use.
	"internal/cdr.Reader.ReadShort":          "codec: CDR short",
	"internal/cdr.Writer.WriteShort":         "codec: CDR short",
	"internal/cdr.Reader.ReadLong":           "codec: CDR long",
	"internal/cdr.Writer.WriteLong":          "codec: CDR long",
	"internal/cdr.Reader.ReadFloat":          "codec: CDR float",
	"internal/cdr.Writer.WriteFloat":         "codec: CDR float",
	"internal/cdr.Reader.ReadDouble":         "codec: CDR double",
	"internal/cdr.Writer.WriteDouble":        "codec: CDR double",
	"internal/cdr.Reader.ReadEncapsulation":  "codec: CDR encapsulation",
	"internal/cdr.Writer.WriteEncapsulation": "codec: CDR encapsulation",
	"internal/cdr.Reader.Order":              "codec: an encapsulation's own byte order",
	"internal/cdr.Writer.Order":              "codec: an encapsulation's own byte order",
	"internal/cdr.Reader.Pos":                "codec: where a reader stands in its stream",

	// Values of GIOP's wire enumerations that the code receives or refuses
	// but never sends.
	"internal/giop.LocateForward":       "wire value: LocateStatus OBJECT_FORWARD",
	"internal/giop.TargetProfileAddr":   "wire value: GIOP 1.2 TargetAddress ProfileAddr, refused",
	"internal/giop.TargetReferenceAddr": "wire value: GIOP 1.2 TargetAddress ReferenceAddr, refused",
}

// TestShippingDeclarationsHaveShippingCallers fails when an exported
// function, method, type, var or const of a package `make loc` counts is
// referred to by no non-test file of the module and no file of bench/,
// and notShipped does not name it (DESIGN.md §6, "Entry points"), or
// when notShipped names a declaration that is gone or has such a caller.
// References are resolved by type, so a method is called only where its
// own object is: Plan.Done is not satisfied by wg.Done. A method that
// satisfies an interface of the program or of a package it imports is a
// caller's business and passes.
func TestShippingDeclarationsHaveShippingCallers(t *testing.T) {
	benchPaths, _ := filepath.Glob("bench/*.go") // the pattern is well formed
	benchPaths = slices.DeleteFunc(benchPaths, func(p string) bool { return strings.HasSuffix(p, "_test.go") })
	patterns := []string{"./..."}
	for _, path := range benchPaths {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range f.Imports {
			if p, _ := strconv.Unquote(spec.Path.Value); !strings.HasPrefix(p, "eternalgw/") {
				patterns = append(patterns, p) // export data for what only bench/ imports
			}
		}
	}
	l, pkgs, err := analysis.LoadModule(".", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := l.CheckFiles("eternalgw/bench", benchPaths)
	if err != nil {
		t.Fatal(err)
	}

	// The declarations under the rule, each with the source ranges that
	// are its own: a use there is no caller.
	type decl struct {
		key           string
		own           [][2]token.Pos
		module, bench bool // referred to by the module; by bench/
	}
	decls := map[types.Object]*decl{}
	var named []*types.Named
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(pkg.PkgPath, "eternalgw/")
		if strings.HasPrefix(rel, "internal/analysis") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				decls[obj] = &decl{key: rel + "." + name}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				named = append(named, n)
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); m.Exported() {
						decls[m] = &decl{key: rel + "." + name + "." + m.Name()}
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				span := [2]token.Pos{d.Pos(), d.End()}
				switch d := d.(type) {
				case *ast.FuncDecl:
					own := []types.Object{pkg.Info.Defs[d.Name]}
					if d.Recv != nil {
						// A method is its receiver type's own code.
						recv := pkg.Info.TypeOf(d.Recv.List[0].Type)
						if p, ok := recv.(*types.Pointer); ok {
							recv = p.Elem()
						}
						own = append(own, recv.(*types.Named).Obj())
					}
					for _, obj := range own {
						if dl := decls[obj]; dl != nil {
							dl.own = append(dl.own, span)
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						span := [2]token.Pos{spec.Pos(), spec.End()}
						var names []*ast.Ident
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{spec.Name}
						case *ast.ValueSpec:
							names = spec.Names
						}
						for _, id := range names {
							if dl := decls[pkg.Info.Defs[id]]; dl != nil {
								dl.own = append(dl.own, span)
							}
						}
					}
				}
			}
		}
	}

	// Every interface the program can pass a value to: those its files
	// spell, and those its imports declare.
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var collect func(p *types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
		for _, imp := range p.Imports() {
			collect(imp)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	callers := append(pkgs[:len(pkgs):len(pkgs)], bench)
	for _, pkg := range callers {
		collect(pkg.Types)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					ifaces = append(ifaces, pkg.Info.TypeOf(it).Underlying().(*types.Interface))
				}
				return true
			})
		}
	}
	for _, n := range named {
		for i := 0; i < n.NumMethods(); i++ {
			m := n.Method(i)
			for _, it := range ifaces {
				if sel, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); sel != nil &&
					(types.Implements(n, it) || types.Implements(types.NewPointer(n), it)) {
					delete(decls, m)
					break
				}
			}
		}
	}

	for _, pkg := range callers {
		for id, obj := range pkg.Info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			dl := decls[obj]
			if dl == nil || within(id.Pos(), dl.own) {
				continue
			}
			if pkg == bench {
				dl.bench = true
			} else {
				dl.module = true
			}
		}
	}

	byKey := map[string]*decl{}
	var keys []string
	for _, dl := range decls {
		byKey[dl.key] = dl
		keys = append(keys, dl.key)
	}
	slices.Sort(keys)
	var pinned []string
	for _, key := range keys {
		dl := byKey[key]
		reason, listed := notShipped[key]
		switch {
		case listed && (dl.module || dl.bench):
			t.Errorf("notShipped names %s (%q), which has a shipping caller: drop the entry", key, reason)
		case dl.bench && !dl.module:
			pinned = append(pinned, key)
		case !dl.module && !listed:
			t.Errorf("%s has no caller outside tests: delete it, or give notShipped its reason", key)
		}
	}
	for key := range notShipped {
		if byKey[key] == nil {
			t.Errorf("notShipped names %s, which is not an exported declaration of a counted package", key)
		}
	}
	t.Logf("declarations only bench/ calls (what its freeze pins):\n\t%s", strings.Join(pinned, "\n\t"))
}

// within reports whether pos lies in one of spans.
func within(pos token.Pos, spans [][2]token.Pos) bool {
	for _, s := range spans {
		if s[0] <= pos && pos < s[1] {
			return true
		}
	}
	return false
}
