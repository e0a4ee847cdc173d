package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// maporder enforces the determinism invariant on map
// iteration: a `range` over a map whose iteration order can reach
// ordered output is a nondeterminism bug unless something sorts between
// the map and the observer.
//
// The repository hand-rolls this discipline everywhere determinism is
// load-bearing — plan fingerprints, POSP enumeration, the analyzer
// registry, the server's JSON responses all collect map keys, sort
// them, and only then iterate. The paper's reproducibility story (and
// the differential plan-identity tests) rests on that idiom never
// regressing: Go randomizes map iteration order per run precisely so
// code that forgets cannot work by accident, but only when a test
// happens to compare two runs. maporder makes the check static.
//
// A range over a map is reported when its body lets the iteration
// order escape into something ordered:
//
//   - appending to a slice declared outside the loop, with no
//     sort.*/slices.Sort* call on that slice later in the function —
//     the collect-then-sort idiom is the fix, and it is recognized;
//   - emitting directly: fmt print calls, strings.Builder and
//     bytes.Buffer writes, io.Writer.Write, JSON encoding;
//   - concatenating onto a string declared outside the loop;
//   - sending on a channel.
//
// Order-insensitive uses stay quiet: writing into another map, numeric
// accumulation (sums, counters, min/max), delete, and per-iteration
// temporaries that die inside the loop body.
//
// A deliberate exception — output whose order genuinely does not
// matter — is annotated at the range statement:
//
//	//bouquet:allow maporder: <reason>
func maporder(pass *Pass) error {
	a := &orderCheck{pass: pass}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					a.checkFunc(n.Body)
				}
			case *ast.FuncLit:
				a.checkFunc(n.Body)
			}
			return true
		})
	}
	return nil
}

// orderCheck carries one package's pass through maporder's helpers.
type orderCheck struct {
	pass *Pass
}

// checkFunc examines one function body (nested literals excluded — they
// are their own functions) for map ranges that leak iteration order.
func (a *orderCheck) checkFunc(body *ast.BlockStmt) {
	sorts := a.collectSorts(body)
	forEachOwned(body, func(n ast.Node) {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !a.isMapRange(rs) {
			return
		}
		if sink := a.orderSink(rs, sorts); sink != "" {
			a.pass.Reportf(rs.Pos(), "map iteration order reaches ordered output (%s); iterate sorted keys, sort the result before it is observed, or annotate it with //bouquet:allow maporder: <reason>", sink)
		}
	})
}

// forEachOwned visits body's nodes, skipping nested function literal
// bodies.
func forEachOwned(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func (a *orderCheck) isMapRange(rs *ast.RangeStmt) bool {
	tv, ok := a.pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// sortCall records one sort.*/slices.Sort* call: the position and the
// variable it orders.
type sortCall struct {
	pos    token.Pos
	target *types.Var
}

// collectSorts finds every sorting call in the function, so an append
// inside a map range can be excused by the sort that follows it.
func (a *orderCheck) collectSorts(body *ast.BlockStmt) []sortCall {
	var out []sortCall
	forEachOwned(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return
		}
		pkg, ok := a.pass.TypesInfo.Uses[pkgID].(*types.PkgName)
		if !ok {
			return
		}
		var sorting bool
		switch pkg.Imported().Path() {
		case "sort":
			sorting = strings.HasPrefix(sel.Sel.Name, "Sort") || sel.Sel.Name == "Slice" ||
				sel.Sel.Name == "SliceStable" || sel.Sel.Name == "Strings" ||
				sel.Sel.Name == "Ints" || sel.Sel.Name == "Float64s" || sel.Sel.Name == "Stable"
		case "slices":
			sorting = strings.HasPrefix(sel.Sel.Name, "Sort")
		}
		if !sorting {
			return
		}
		if v := a.baseVar(call.Args[0]); v != nil {
			out = append(out, sortCall{pos: call.Pos(), target: v})
		}
	})
	return out
}

// baseVar resolves an expression to the variable at its base (s,
// s[i:j], &s all resolve to s).
func (a *orderCheck) baseVar(e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v, ok := a.pass.TypesInfo.Uses[x].(*types.Var); ok {
				return v
			}
			if v, ok := a.pass.TypesInfo.Defs[x].(*types.Var); ok {
				return v
			}
			return nil
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// orderSink scans one map range's body and names the first construct
// that observes iteration order, "" when the body is order-insensitive.
func (a *orderCheck) orderSink(rs *ast.RangeStmt, sorts []sortCall) string {
	sortedLater := func(v *types.Var) bool {
		for _, s := range sorts {
			if s.target == v && s.pos > rs.Pos() {
				return true
			}
		}
		return false
	}
	sink := ""
	found := func(s string) {
		if sink == "" {
			sink = s
		}
	}
	forEachOwned(rs.Body, func(n ast.Node) {
		if sink != "" {
			return
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			a.checkAssign(rs, n, sortedLater, found)
		case *ast.SendStmt:
			found("sends on a channel in iteration order")
		case *ast.CallExpr:
			if s := a.emissionCall(n); s != "" {
				found(s)
			}
		}
	})
	return sink
}

// checkAssign classifies assignments inside the range body: appends to
// outer slices and string concatenation leak order; map writes and
// numeric accumulation do not.
func (a *orderCheck) checkAssign(rs *ast.RangeStmt, as *ast.AssignStmt, sortedLater func(*types.Var) bool, found func(string)) {
	declaredInside := func(v *types.Var) bool {
		return v != nil && v.Pos() >= rs.Body.Pos() && v.Pos() < rs.Body.End()
	}
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, lhs := range as.Lhs {
			// Writing into another map keeps the result unordered.
			if _, isIndex := ast.Unparen(lhs).(*ast.IndexExpr); isIndex {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
				continue
			}
			v := a.baseVar(lhs)
			if v == nil || declaredInside(v) || sortedLater(v) {
				continue
			}
			found("appends to " + v.Name() + " with no later sort")
		}
	case token.ADD_ASSIGN:
		// s += x on a string accumulates in iteration order; numeric +=
		// is commutative and stays quiet.
		if len(as.Lhs) != 1 {
			return
		}
		v := a.baseVar(as.Lhs[0])
		if v == nil || declaredInside(v) {
			return
		}
		if b, ok := v.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			found("concatenates onto " + v.Name() + " in iteration order")
		}
	}
}

// emissionCall names calls that serialize their arguments in call
// order: fmt printing, Builder/Buffer/io writes, JSON encoding.
func (a *orderCheck) emissionCall(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	// Package-level calls: fmt.Print*, json.Marshal.
	if pkgID, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if pkg, ok := a.pass.TypesInfo.Uses[pkgID].(*types.PkgName); ok {
			switch pkg.Imported().Path() {
			case "fmt":
				if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Sprint") || strings.HasPrefix(name, "Append") {
					return "emits via fmt." + name
				}
			case "encoding/json":
				if strings.HasPrefix(name, "Marshal") {
					return "serializes via json." + name
				}
			}
			return ""
		}
	}
	// Method calls on writers and encoders.
	obj, ok := a.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	switch rtName(rt) {
	case "strings.Builder", "bytes.Buffer":
		if strings.HasPrefix(name, "Write") {
			return "writes to a " + rtName(rt) + " in iteration order"
		}
	case "encoding/json.Encoder":
		if name == "Encode" {
			return "serializes via json.Encoder.Encode"
		}
	}
	// Interface writes: anything satisfying io.Writer's Write.
	if name == "Write" && types.IsInterface(recv.Type().Underlying()) {
		return "writes to an io.Writer in iteration order"
	}
	return ""
}

// rtName renders a named receiver type as "pkgpath.Name".
func rtName(t types.Type) string {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}
