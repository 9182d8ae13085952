// Package wiresym checks encode/decode symmetry and hostile-length
// discipline for the CDR wire codecs (totem, replication, GIOP).
//
// The message-logging literature treats a logged record's encoder and
// decoder as one artifact: if they disagree about the field order, the
// divergence shows up not as a parse error but as silently transposed
// state on replay. PR 7's decodeAck truncation was exactly this class —
// the decoder clamped a hostile count and returned a syntactically
// valid, semantically wrong message. This analyzer makes both halves of
// that bug class static:
//
// Symmetry. For every decodeX (or DecodeX) function using cdr.Reader
// operations, the analyzer extracts the sequence of wire operations
// (octet, ulong, string, octetseq, …) along each execution path —
// branches fork the path, loops contribute a rep(...) marker, error
// returns discard the path — and requires that some successful decoder
// path equals some path of the matching encoder (encodeX by name, or
// any encoder in the package for split forms like encodeRegular's
// packed branch feeding decodePacked). An encoder may write one leading
// octet the decoder does not read: the kind byte consumed by the
// dispatcher. Helpers that carry the writer/reader (writeServiceContexts
// / readServiceContexts) become paired sub-markers by stripped name; a
// function whose operations cannot be extracted faithfully (dynamic
// codec calls, encapsulation closures) is skipped rather than guessed
// at.
//
// Hostile lengths. A count read from the wire (ReadULong/ReadULongLong)
// that sizes a make() must be guarded against a hostile value before
// the allocation, and the guard must reject or clamp — not skip. A
// guard is an if statement mentioning the count and Remaining(); one
// that returns (the decodeAck shape) or reassigns the count (the
// readServiceContexts clamp) is accepted. A guard whose body contains
// the allocation itself silently skips the fields on a bad count and
// decodes a plausible but wrong message — reported. A make with no
// guard at all is an attacker-sized allocation — reported. Counts that
// only bound append loops allocate in step with real input and need no
// guard.
package wiresym

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"eternalgw/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wiresym",
	Doc:  "checks encoder/decoder wire-operation symmetry and hostile-length guards in CDR codecs",
	Run:  run,
}

const cdrPath = "eternalgw/internal/cdr"

// ops maps cdr method keys to wire-operation names shared by both sides.
var ops = map[string]string{
	cdrPath + ".Writer.WriteOctet":     "octet",
	cdrPath + ".Writer.WriteBool":      "bool",
	cdrPath + ".Writer.WriteUShort":    "ushort",
	cdrPath + ".Writer.WriteShort":     "ushort",
	cdrPath + ".Writer.WriteULong":     "ulong",
	cdrPath + ".Writer.WriteLong":      "ulong",
	cdrPath + ".Writer.WriteULongLong": "ulonglong",
	cdrPath + ".Writer.WriteLongLong":  "ulonglong",
	cdrPath + ".Writer.WriteFloat":     "float",
	cdrPath + ".Writer.WriteDouble":    "double",
	cdrPath + ".Writer.WriteString":    "string",
	cdrPath + ".Writer.WriteOctets":    "octets",
	cdrPath + ".Writer.WriteOctetSeq":  "octetseq",
	cdrPath + ".Writer.Align":          "align",

	cdrPath + ".Reader.ReadOctet":       "octet",
	cdrPath + ".Reader.ReadBool":        "bool",
	cdrPath + ".Reader.ReadUShort":      "ushort",
	cdrPath + ".Reader.ReadShort":       "ushort",
	cdrPath + ".Reader.ReadULong":       "ulong",
	cdrPath + ".Reader.ReadLong":        "ulong",
	cdrPath + ".Reader.ReadULongLong":   "ulonglong",
	cdrPath + ".Reader.ReadLongLong":    "ulonglong",
	cdrPath + ".Reader.ReadFloat":       "float",
	cdrPath + ".Reader.ReadDouble":      "double",
	cdrPath + ".Reader.ReadString":      "string",
	cdrPath + ".Reader.ReadStringBytes": "string",
	cdrPath + ".Reader.ReadOctets":      "octets",
	cdrPath + ".Reader.ReadOctetSeq":    "octetseq",
	cdrPath + ".Reader.Align":           "align",
}

// opaque are cdr calls whose contents this analyzer cannot linearize.
var opaque = map[string]bool{
	cdrPath + ".Writer.WriteEncapsulation": true,
	cdrPath + ".Reader.ReadEncapsulation":  true,
}

const maxTraces = 32

func run(pass *analysis.Pass) error {
	encoders := make(map[string]*codecFunc) // by stripped lowercase suffix
	decoders := make(map[string]*codecFunc)
	var encOrder, decOrder []string

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			role, suffix := codecName(fd.Name.Name)
			if role == "" {
				// Codec helpers that carry the reader still allocate
				// from wire counts; hold them to the guard discipline.
				if usesReader(pass, fd.Body) {
					checkBounds(pass, &codecFunc{name: fd.Name.Name, body: fd.Body})
				}
				continue
			}
			cf := extract(pass, fd)
			if cf == nil {
				continue // no wire operations at all
			}
			cf.suffix = suffix
			if role == "encode" {
				if _, dup := encoders[suffix]; !dup {
					encoders[suffix] = cf
					encOrder = append(encOrder, suffix)
				}
			} else {
				if _, dup := decoders[suffix]; !dup {
					decoders[suffix] = cf
					decOrder = append(decOrder, suffix)
				}
			}
		}
	}

	for _, suffix := range decOrder {
		dec := decoders[suffix]
		checkBounds(pass, dec)
		if dec.bad || len(dec.traces) == 0 {
			continue
		}
		// Every encoder is a match candidate — split forms like
		// encodeRegular's packed branch feed decodePacked — but a
		// mismatch is only reportable against a name-paired encoder; an
		// unpaired decoder may parse a format produced elsewhere.
		enc, paired := encoders[suffix]
		candidates := make([]*codecFunc, 0, len(encOrder))
		if paired {
			candidates = append(candidates, enc)
		}
		for _, s := range encOrder {
			if !paired || s != suffix {
				candidates = append(candidates, encoders[s])
			}
		}
		if !symmetric(dec, candidates) && paired {
			pass.Reportf(dec.pos,
				"%s reads (%s) but %s writes a different wire sequence; encoder and decoder must touch the same fields in the same order",
				dec.name, strings.Join(longest(dec.traces), " "), enc.name)
		}
	}
	return nil
}

// usesReader reports whether the body performs any cdr.Reader data op.
func usesReader(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			key := analysis.FuncKey(analysis.Callee(pass.TypesInfo, call))
			if _, ok := ops[key]; ok && strings.Contains(key, ".Reader.") {
				found = true
			}
		}
		return !found
	})
	return found
}

// longest picks the most detailed trace for the report.
func longest(traces [][]string) []string {
	var best []string
	for _, t := range traces {
		if len(t) > len(best) {
			best = t
		}
	}
	return best
}

// codecName splits a codec function name into role and stripped suffix.
func codecName(name string) (role, suffix string) {
	lower := strings.ToLower(name)
	switch {
	case strings.HasPrefix(lower, "encode"):
		return "encode", lower[len("encode"):]
	case strings.HasPrefix(lower, "decode"):
		return "decode", lower[len("decode"):]
	}
	return "", ""
}

// subName strips the directional prefix off a codec helper, pairing
// writeServiceContexts with readServiceContexts.
func subName(name string) string {
	lower := strings.ToLower(name)
	for _, p := range []string{"encode", "decode", "write", "read"} {
		if strings.HasPrefix(lower, p) && len(lower) > len(p) {
			return lower[len(p):]
		}
	}
	return lower
}

// codecFunc is one encoder or decoder with its extracted traces.
type codecFunc struct {
	name   string
	suffix string
	pos    token.Pos
	body   *ast.BlockStmt
	traces [][]string // successful execution paths, op sequences
	bad    bool       // extraction hit something it cannot linearize
}

// symmetric reports whether some decoder trace matches some encoder
// trace, allowing the encoder one unread leading kind octet.
func symmetric(dec *codecFunc, encs []*codecFunc) bool {
	for _, enc := range encs {
		if enc.bad {
			return true // cannot compare faithfully: trust it
		}
		for _, e := range enc.traces {
			for _, d := range dec.traces {
				if len(d) == 0 {
					continue // dispatcher path
				}
				if seqEqual(d, e) {
					return true
				}
				if len(e) > 0 && e[0] == "octet" && seqEqual(d, e[1:]) {
					return true
				}
			}
		}
	}
	return false
}

func seqEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- trace extraction ---

type extractor struct {
	pass *analysis.Pass
	cf   *codecFunc
}

// extract linearizes a codec body into per-path op sequences. Returns
// nil when the function performs no wire operations (pure dispatchers,
// size hints).
func extract(pass *analysis.Pass, fd *ast.FuncDecl) *codecFunc {
	cf := &codecFunc{name: fd.Name.Name, pos: fd.Pos(), body: fd.Body}
	x := &extractor{pass: pass, cf: cf}
	traces := x.stmts(fd.Body.List, []trace{{}})
	any := false
	for _, t := range traces {
		if t.bad {
			continue
		}
		if len(t.ops) > 0 {
			any = true
		}
		cf.traces = append(cf.traces, t.ops)
	}
	if !any && !cf.bad {
		return nil
	}
	return cf
}

type trace struct {
	ops  []string
	done bool // hit a successful return
	bad  bool // hit an error return: not a wire-visible path
}

func (x *extractor) stmts(list []ast.Stmt, ts []trace) []trace {
	for _, s := range list {
		ts = x.stmt(s, ts)
		if len(ts) > maxTraces {
			ts = ts[:maxTraces]
		}
	}
	return ts
}

func (x *extractor) stmt(s ast.Stmt, ts []trace) []trace {
	switch s := s.(type) {
	case nil:
		return ts
	case *ast.BlockStmt:
		return x.stmts(s.List, ts)
	case *ast.LabeledStmt:
		return x.stmt(s.Stmt, ts)
	case *ast.IfStmt:
		ts = x.scan(s.Init, ts)
		ts = x.scan(s.Cond, ts)
		taken := x.stmts(s.Body.List, cloneTraces(ts))
		var other []trace
		if s.Else != nil {
			other = x.stmt(s.Else, cloneTraces(ts))
		} else {
			other = ts
		}
		return append(taken, other...)
	case *ast.ForStmt:
		ts = x.scan(s.Init, ts)
		if s.Cond != nil {
			ts = x.scan(s.Cond, ts)
		}
		return x.loop(s.Body, ts)
	case *ast.RangeStmt:
		ts = x.scan(s.X, ts)
		return x.loop(s.Body, ts)
	case *ast.SwitchStmt:
		ts = x.scan(s.Init, ts)
		if s.Tag != nil {
			ts = x.scan(s.Tag, ts)
		}
		return x.cases(s.Body, ts)
	case *ast.TypeSwitchStmt:
		ts = x.scan(s.Init, ts)
		return x.cases(s.Body, ts)
	case *ast.ReturnStmt:
		ts = x.scan(s, ts)
		errReturn := returnsError(x.pass.TypesInfo, s)
		out := cloneTraces(ts)
		for i := range out {
			if !out[i].done {
				out[i].done = true
				out[i].bad = out[i].bad || errReturn
			}
		}
		return out
	case *ast.DeferStmt, *ast.GoStmt:
		return ts
	case *ast.SelectStmt:
		x.cf.bad = true
		return ts
	default:
		return x.scan(s, ts)
	}
}

// cases forks one branch per case clause plus the no-match fallthrough.
func (x *extractor) cases(body *ast.BlockStmt, ts []trace) []trace {
	out := cloneTraces(ts) // no case taken
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok {
			out = append(out, x.stmts(cc.Body, cloneTraces(ts))...)
		}
	}
	return out
}

// loop appends a rep(...) marker holding the body's linearized ops.
func (x *extractor) loop(body *ast.BlockStmt, ts []trace) []trace {
	inner := x.stmts(body.List, []trace{{}})
	// A loop body that itself branches is folded to its longest path:
	// repetition counts are dynamic anyway, the marker only fixes the
	// per-element shape.
	var best []string
	for _, t := range inner {
		if t.bad {
			continue
		}
		if len(t.ops) > len(best) {
			best = t.ops
		}
	}
	if len(best) == 0 {
		return ts
	}
	marker := "rep(" + strings.Join(best, " ") + ")"
	for i := range ts {
		if !ts[i].done {
			ts[i].ops = append(append([]string(nil), ts[i].ops...), marker)
		}
	}
	return ts
}

// scan appends the wire ops found in a statement or expression, in
// source order, to every live trace.
func (x *extractor) scan(n ast.Node, ts []trace) []trace {
	if n == nil {
		return ts
	}
	var found []string
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			x.cf.bad = true
			return false
		case *ast.CallExpr:
			key := analysis.FuncKey(analysis.Callee(x.pass.TypesInfo, n))
			if op, ok := ops[key]; ok {
				found = append(found, op)
				return true
			}
			if opaque[key] {
				x.cf.bad = true
				return true
			}
			if sub, ok := x.subCall(n); ok {
				found = append(found, sub)
			}
			return true
		}
		return true
	})
	if len(found) == 0 {
		return ts
	}
	for i := range ts {
		if !ts[i].done {
			ts[i].ops = append(append([]string(nil), ts[i].ops...), found...)
		}
	}
	return ts
}

// subCall classifies a call that carries the writer or reader onward: a
// same-package helper becomes a paired sub-marker, anything else makes
// the function incomparable.
func (x *extractor) subCall(call *ast.CallExpr) (string, bool) {
	carries := false
	for _, a := range call.Args {
		if t := x.pass.TypesInfo.TypeOf(a); t != nil {
			if key := analysis.TypeKey(t); key == cdrPath+".Writer" || key == cdrPath+".Reader" {
				carries = true
			}
		}
	}
	if !carries {
		return "", false
	}
	callee := analysis.Callee(x.pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg() != x.pass.Pkg {
		x.cf.bad = true
		return "", false
	}
	return "sub:" + subName(callee.Name()), true
}

// returnsError reports whether the return hands back a freshly built
// error (fmt.Errorf, errors.New): a failed decode, not a wire path.
func returnsError(info *types.Info, ret *ast.ReturnStmt) bool {
	for _, res := range ret.Results {
		if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
			switch analysis.FuncKey(analysis.Callee(info, call)) {
			case "fmt.Errorf", "errors.New":
				return true
			}
		}
	}
	return false
}

func cloneTraces(ts []trace) []trace {
	out := make([]trace, len(ts))
	for i, t := range ts {
		out[i] = trace{ops: append([]string(nil), t.ops...), done: t.done, bad: t.bad}
	}
	return out
}

// --- hostile-length guards ---

// checkBounds enforces the count-guard discipline on one decoder.
func checkBounds(pass *analysis.Pass, dec *codecFunc) {
	info := pass.TypesInfo

	// Count variables: assigned from ReadULong/ReadULongLong, directly
	// or through conversions and one-level copies.
	counts := make(map[types.Object]bool)
	ast.Inspect(dec.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if isCountSource(info, rhs, counts) {
				if obj := info.Defs[id]; obj != nil {
					counts[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					counts[obj] = true
				}
			}
		}
		return true
	})
	if len(counts) == 0 {
		return
	}

	// Guards: if statements mentioning a count and Remaining().
	type guard struct {
		stmt     *ast.IfStmt
		rejects  bool // body returns
		clamps   map[types.Object]bool
		mentions map[types.Object]bool
	}
	var guards []*guard
	ast.Inspect(dec.body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		head := []ast.Node{}
		if ifs.Init != nil {
			head = append(head, ifs.Init)
		}
		head = append(head, ifs.Cond)
		mentions := make(map[types.Object]bool)
		remaining := false
		for _, h := range head {
			ast.Inspect(h, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := info.Uses[n]; obj != nil && counts[obj] {
						mentions[obj] = true
					}
				case *ast.CallExpr:
					if analysis.FuncKey(analysis.Callee(info, n)) == cdrPath+".Reader.Remaining" {
						remaining = true
					}
				}
				return true
			})
		}
		if !remaining || len(mentions) == 0 {
			return true
		}
		gd := &guard{stmt: ifs, mentions: mentions, clamps: make(map[types.Object]bool)}
		ast.Inspect(ifs.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				gd.rejects = true
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil && counts[obj] {
							gd.clamps[obj] = true
						}
					}
				}
			}
			return true
		})
		guards = append(guards, gd)
		return true
	})

	// Every make() sized by a count must sit after a rejecting or
	// clamping guard — never inside the guard, never unguarded.
	ast.Inspect(dec.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
			return true
		}
		var sized types.Object
		for _, a := range call.Args[1:] {
			if obj := countIdent(info, a, counts); obj != nil {
				sized = obj
			}
		}
		if sized == nil {
			return true
		}
		inside, before := false, false
		for _, gd := range guards {
			if !gd.mentions[sized] {
				continue
			}
			if gd.stmt.Body.Pos() <= call.Pos() && call.Pos() < gd.stmt.Body.End() {
				inside = true
				continue
			}
			if gd.stmt.End() <= call.Pos() && (gd.rejects || gd.clamps[sized]) {
				before = true
			}
		}
		switch {
		case before:
		case inside:
			pass.Reportf(call.Pos(),
				"%s silently skips fields when the wire count fails its bounds check; reject the message with an error instead of decoding a truncated one", dec.name)
		default:
			pass.Reportf(call.Pos(),
				"%s sizes an allocation from an unguarded wire count; bound it against Remaining() before allocating", dec.name)
		}
		return true
	})
}

// isCountSource reports whether rhs reads a wire count or copies one.
func isCountSource(info *types.Info, rhs ast.Expr, counts map[types.Object]bool) bool {
	rhs = unwrapConversions(info, rhs)
	switch e := rhs.(type) {
	case *ast.CallExpr:
		switch analysis.FuncKey(analysis.Callee(info, e)) {
		case cdrPath + ".Reader.ReadULong", cdrPath + ".Reader.ReadULongLong":
			return true
		}
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil && counts[obj] {
			return true
		}
	}
	return false
}

// countIdent resolves an expression to a count variable, looking
// through conversions.
func countIdent(info *types.Info, e ast.Expr, counts map[types.Object]bool) types.Object {
	if id, ok := unwrapConversions(info, e).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil && counts[obj] {
			return obj
		}
	}
	return nil
}

// unwrapConversions strips int(x)-style conversions.
func unwrapConversions(info *types.Info, e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		conv := false
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if _, ok := info.Uses[fun].(*types.TypeName); ok {
				conv = true
			}
		case *ast.SelectorExpr:
			if _, ok := info.Uses[fun.Sel].(*types.TypeName); ok {
				conv = true
			}
		}
		if !conv {
			return e
		}
		e = call.Args[0]
	}
}
