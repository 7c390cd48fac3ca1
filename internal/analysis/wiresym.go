package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WireSym proves encode/decode symmetry for wire frame types: for each
// message struct handled by both an encoder (a type switch over the
// message interface, one case per frame type) and a decoder (a value
// switch over the frame-type discriminator, one case constructing each
// frame type), the two sides must touch the same top-level fields in
// the same order. A field appended on one side but skipped — or
// reordered — on the other silently shifts every later byte, the drift
// class that otherwise only surfaces as a resync-checksum failure at
// runtime (the ClusterAssign Region/MaxSpeed shape).
//
// Sequences are extracted syntactically, in source order, relative to
// the message variable of each switch case: selector accesses record
// their top-level field (m.Bounds.MinX → Bounds), consecutive
// duplicates collapse (a length prefix followed by the element loop is
// one access), and same-package helper calls that take or produce the
// whole message (appendUpdateBatch(b, m), m, err := decodeUpdateBatch(d),
// m.Objects, m.Queries = decodeReports(d)) are followed or recorded in
// argument/assignment order. Types whose extraction is empty on either
// side are skipped — symmetry is only asserted where both sides are
// visible.
var WireSym = &Analyzer{
	Name: "wiresym",
	Doc: "flag encode/decode field-order drift in wire frame types: both " +
		"sides of a frame's codec must read and write the same top-level " +
		"fields in the same order",
	Run: runWireSym,
}

func runWireSym(pass *Pass) error {
	enc := map[*types.TypeName]*wireSeq{}
	dec := map[*types.TypeName]*wireSeq{}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch sw := n.(type) {
			case *ast.TypeSwitchStmt:
				collectEncodeSwitch(pass, sw, enc)
				return false
			case *ast.SwitchStmt:
				collectDecodeSwitch(pass, sw, dec)
				return false
			}
			return true
		})
	}
	// Only coherent codec pairs are compared: an encoder or decoder
	// recognized in isolation asserts nothing.
	for tn, d := range dec {
		e := enc[tn]
		if e == nil || len(e.fields) == 0 || len(d.fields) == 0 {
			continue
		}
		if !equalStrings(e.fields, d.fields) {
			pass.Reportf(d.pos, "wire codec asymmetry for %s: encode writes [%s] but decode reads [%s] — the field sequences must match exactly or every later byte shifts",
				tn.Name(), strings.Join(e.fields, " "), strings.Join(d.fields, " "))
		}
	}
	return nil
}

type wireSeq struct {
	pos    token.Pos
	fields []string
}

func (s *wireSeq) add(field string) {
	if n := len(s.fields); n > 0 && s.fields[n-1] == field {
		return
	}
	s.fields = append(s.fields, field)
}

func equalStrings(a, b []string) bool {
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

// namedStruct resolves t to the TypeName of a named struct type, or
// nil.
func namedStruct(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named.Obj()
}

// --- encode side -----------------------------------------------------------

// collectEncodeSwitch treats a type switch as an encoder when at least
// two of its cases name struct types; each single-type case yields the
// field sequence the case body reads off the switched message.
func collectEncodeSwitch(pass *Pass, sw *ast.TypeSwitchStmt, out map[*types.TypeName]*wireSeq) {
	info := pass.TypesInfo
	structCases := 0
	for _, c := range sw.Body.List {
		cc := c.(*ast.CaseClause)
		if len(cc.List) == 1 && namedStruct(info.TypeOf(cc.List[0])) != nil {
			structCases++
		}
	}
	if structCases < 2 {
		return
	}
	for _, c := range sw.Body.List {
		cc := c.(*ast.CaseClause)
		if len(cc.List) != 1 {
			continue
		}
		tn := namedStruct(info.TypeOf(cc.List[0]))
		if tn == nil {
			continue
		}
		// The per-clause implicit binding of `switch m := m.(type)`.
		obj := info.Implicits[cc]
		if obj == nil {
			continue
		}
		seq := &wireSeq{pos: cc.Pos()}
		for _, st := range cc.Body {
			encodeWalk(pass, st, obj, seq, 0)
		}
		if _, dup := out[tn]; !dup {
			out[tn] = seq
		}
	}
}

// encodeWalk collects, in source order, the top-level fields of obj
// referenced under n, following same-package helpers that receive the
// whole message (possibly through a conversion).
func encodeWalk(pass *Pass, n ast.Node, obj types.Object, seq *wireSeq, depth int) {
	info := pass.TypesInfo
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.CallExpr:
			if depth < maxCallDepth {
				if fn, param := wholeValueCallee(pass, e, obj); fn != nil {
					if body := declBody(pass, fn); body != nil {
						encodeWalk(pass, body, param, seq, depth+1)
						return false
					}
				}
			}
			return true
		case *ast.SelectorExpr:
			if name, ok := topField(info, e, func(id *ast.Ident) bool {
				return info.Uses[id] == obj || info.Defs[id] == obj
			}); ok {
				seq.add(name)
				return false
			}
		}
		return true
	})
}

// wholeValueCallee recognizes a call passing obj itself (or a
// conversion of it, e.g. UpdateBatch(m)) to a same-package function,
// returning the callee and the parameter object the argument binds to.
func wholeValueCallee(pass *Pass, call *ast.CallExpr, obj types.Object) (*types.Func, types.Object) {
	info := pass.TypesInfo
	fn := funcOf(info, call)
	if fn == nil || fn.Pkg() != pass.Pkg {
		return nil, nil
	}
	for i, arg := range call.Args {
		if !exprIsValue(info, arg, obj) {
			continue
		}
		if param := paramObject(pass, fn, i); param != nil {
			return fn, param
		}
	}
	return nil, nil
}

// exprIsValue reports whether e is obj, possibly wrapped in parens or a
// type conversion.
func exprIsValue(info *types.Info, e ast.Expr, obj types.Object) bool {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		return info.Uses[id] == obj
	}
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return exprIsValue(info, call.Args[0], obj)
		}
	}
	return false
}

// paramObject resolves the i'th parameter of fn's declaration in this
// package to its types.Object.
func paramObject(pass *Pass, fn *types.Func, i int) types.Object {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || pass.TypesInfo.Defs[fd.Name] != fn {
				continue
			}
			idx := 0
			for _, field := range fd.Type.Params.List {
				if len(field.Names) == 0 {
					idx++ // unnamed parameter cannot be referenced anyway
					continue
				}
				for _, name := range field.Names {
					if idx == i {
						return pass.TypesInfo.Defs[name]
					}
					idx++
				}
			}
		}
	}
	return nil
}

// topField returns the field the selector chain ultimately hangs off
// the message variable: for m.Bounds.MinX it returns "Bounds".
func topField(info *types.Info, sel *ast.SelectorExpr, isMsgVar func(*ast.Ident) bool) (string, bool) {
	inner := sel
	for {
		x := ast.Unparen(inner.X)
		switch e := x.(type) {
		case *ast.SelectorExpr:
			inner = e
		case *ast.IndexExpr:
			if s, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
				inner = s
			} else {
				return "", false
			}
		case *ast.Ident:
			if isMsgVar(e) {
				return inner.Sel.Name, true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// --- decode side -----------------------------------------------------------

// collectDecodeSwitch treats a value switch as a decoder when its tag
// is a basic-typed discriminator and at least two of its cases
// construct distinct named struct types; each such case yields the
// field sequence assigned into the constructed message.
func collectDecodeSwitch(pass *Pass, sw *ast.SwitchStmt, out map[*types.TypeName]*wireSeq) {
	if sw.Tag == nil {
		return
	}
	if t := pass.TypesInfo.TypeOf(sw.Tag); t != nil {
		if _, ok := t.Underlying().(*types.Basic); !ok {
			return
		}
	}
	type caseSeq struct {
		tn  *types.TypeName
		seq *wireSeq
	}
	var cases []caseSeq
	seen := map[*types.TypeName]bool{}
	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok || cc.List == nil {
			continue
		}
		tn, seq := decodeClauseSeq(pass, cc)
		if tn == nil || seen[tn] {
			continue
		}
		seen[tn] = true
		cases = append(cases, caseSeq{tn, seq})
	}
	if len(cases) < 2 {
		return
	}
	for _, c := range cases {
		if _, dup := out[c.tn]; !dup {
			out[c.tn] = c.seq
		}
	}
}

// decodeClauseSeq extracts the constructed message type and its field
// sequence from one decoder case body.
func decodeClauseSeq(pass *Pass, cc *ast.CaseClause) (*types.TypeName, *wireSeq) {
	info := pass.TypesInfo
	body := &ast.BlockStmt{List: cc.Body}

	// The constructed type is the type of the first returned operand
	// that is a named struct.
	var tn *types.TypeName
	ast.Inspect(body, func(n ast.Node) bool {
		if tn != nil {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) > 0 {
			tn = namedStruct(info.TypeOf(ret.Results[0]))
		}
		return true
	})
	if tn == nil {
		return nil, nil
	}
	seq := &wireSeq{pos: cc.Pos()}
	collectDecodeBody(pass, body, tn, seq, 0)
	return tn, seq
}

// collectDecodeBody records, in source order, the fields of msgType
// populated within node: direct field assignments (in LHS order, which
// covers tuple assigns like m.Objects, m.Queries = decodeReports(d)),
// composite-literal keys, and — through same-package helpers returning
// the message struct — the helper's own assignments.
func collectDecodeBody(pass *Pass, node ast.Node, msgType *types.TypeName, seq *wireSeq, depth int) {
	info := pass.TypesInfo
	isMsgVar := func(id *ast.Ident) bool {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		return obj != nil && namedStruct(obj.Type()) == msgType
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			// A plain-identifier LHS of named struct type means the RHS
			// produces a whole message value (m, err := decodeUpdateBatch(d),
			// including the conversion shape where m is the pre-conversion
			// type) — only then is a helper call followed. Helper results
			// landing in a single field stay summarized by the field name,
			// exactly as the encode side summarizes appendX(b, m.Field).
			lhsWhole := false
			for _, lhs := range x.Lhs {
				switch l := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					if name, ok := topField(info, l, isMsgVar); ok {
						seq.add(name)
					}
				case *ast.Ident:
					obj := info.Defs[l]
					if obj == nil {
						obj = info.Uses[l]
					}
					if obj != nil && namedStruct(obj.Type()) != nil {
						lhsWhole = true
					}
				}
			}
			for _, rhs := range x.Rhs {
				rhs = ast.Unparen(rhs)
				if lit, ok := rhs.(*ast.CompositeLit); ok && namedStruct(info.TypeOf(lit)) == msgType {
					addLiteralFields(info, lit, msgType, seq)
				} else if lhsWhole {
					decodeRHS(pass, rhs, seq, depth)
				}
			}
			return false
		case *ast.CompositeLit:
			if namedStruct(info.TypeOf(x)) == msgType {
				addLiteralFields(info, x, msgType, seq)
				return false
			}
		}
		return true
	})
}

// decodeRHS follows one whole-message producer: a conversion unwraps,
// and a same-package helper whose first named-struct result carries the
// message is recursed into under its own result type.
func decodeRHS(pass *Pass, e ast.Expr, seq *wireSeq, depth int) {
	if depth >= maxCallDepth {
		return
	}
	info := pass.TypesInfo
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	// Unwrap a conversion around a helper call (RecoveryDiff(m) is not a
	// call site; the conversion shows up on return paths).
	if tv, isConv := info.Types[call.Fun]; isConv && tv.IsType() && len(call.Args) == 1 {
		if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
			call = inner
		} else {
			return
		}
	}
	fn := funcOf(info, call)
	if fn == nil || fn.Pkg() != pass.Pkg {
		return
	}
	helperType := firstNamedStructResult(fn)
	if helperType == nil {
		return
	}
	if body := declBody(pass, fn); body != nil {
		collectDecodeBody(pass, body, helperType, seq, depth+1)
	}
}

// firstNamedStructResult returns the TypeName of fn's first
// named-struct result, or nil — the helper-decoder shape
// (decodeUpdateBatch returns (UpdateBatch, error)).
func firstNamedStructResult(fn *types.Func) *types.TypeName {
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		if tn := namedStruct(sig.Results().At(i).Type()); tn != nil {
			return tn
		}
	}
	return nil
}

// addLiteralFields records the fields of a composite literal of the
// message type, in source order; unkeyed literals map positionally to
// the struct's declared fields.
func addLiteralFields(info *types.Info, lit *ast.CompositeLit, tn *types.TypeName, seq *wireSeq) {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				seq.add(id.Name)
			}
			continue
		}
		if i < st.NumFields() {
			seq.add(st.Field(i).Name())
		}
	}
}
