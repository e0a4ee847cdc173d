package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// panicdoc makes library panics part of the documented contract.
//
// The repository uses panics for caller-contract violations (malformed
// catalogs, out-of-range grid coordinates, impossible operator trees).
// That is a legitimate Go idiom only when the exported surface says so:
// an undocumented panic is an outage, a documented one is an assertion.
// For every exported function or method, the analyzer computes the panics
// reachable through its body and through transitively called *unexported*
// same-package functions (an exported callee documents its own panics and
// so ends the attribution), and requires the word "panic" in the doc
// comment of any function that can reach one.
func panicdoc(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil // a binary's panics surface as its own crash reports
	}

	facts := map[*types.Func]*funcFacts{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			facts[fn] = gather(pass, fd)
		}
	}

	for fn, ff := range facts {
		if !exportedSurface(fn) {
			continue
		}
		at, n := reachablePanic(pass, fn, facts)
		if n == 0 {
			continue
		}
		if docMentionsPanic(ff.decl) {
			continue
		}
		pass.Reportf(ff.decl.Name.Pos(), "exported %s can reach %d panic(s) (e.g. %s) but its doc comment does not mention panicking",
			fn.Name(), n, pass.Fset.Position(at))
	}
	return nil
}

// funcFacts is what one function declaration contributes to reachability.
type funcFacts struct {
	decl    *ast.FuncDecl
	panics  []token.Pos   // direct panic(...) statements in the body
	callees []*types.Func // static same-package calls
}

// gather records a declaration's direct panics and same-package callees.
func gather(pass *Pass, fd *ast.FuncDecl) *funcFacts {
	ff := &funcFacts{decl: fd}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return true
		}
		switch obj := pass.TypesInfo.Uses[id].(type) {
		case *types.Builtin:
			if obj.Name() == "panic" {
				ff.panics = append(ff.panics, call.Pos())
			}
		case *types.Func:
			if obj.Pkg() == pass.Pkg {
				ff.callees = append(ff.callees, obj)
			}
		}
		return true
	})
	return ff
}

// reachablePanic walks from fn through unexported same-package callees,
// returning an example panic position and the count of reachable panic
// statements. Exported callees are not entered: their contract is their
// own doc comment.
func reachablePanic(pass *Pass, fn *types.Func, facts map[*types.Func]*funcFacts) (token.Pos, int) {
	var example token.Pos
	count := 0
	seen := map[*types.Func]bool{}
	var visit func(f *types.Func, root bool)
	visit = func(f *types.Func, root bool) {
		if seen[f] {
			return
		}
		seen[f] = true
		if !root && f.Exported() {
			return
		}
		ff, ok := facts[f]
		if !ok {
			return
		}
		for _, p := range ff.panics {
			if count == 0 {
				example = p
			}
			count++
		}
		for _, callee := range ff.callees {
			visit(callee, false)
		}
	}
	visit(fn, true)
	return example, count
}

// exportedSurface reports whether fn is reachable from outside the
// package: an exported function, or an exported method on an exported
// type.
func exportedSurface(fn *types.Func) bool {
	if !fn.Exported() {
		return false
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Exported()
}

// docMentionsPanic reports whether the declaration's doc comment talks
// about panicking.
func docMentionsPanic(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	return strings.Contains(strings.ToLower(fd.Doc.Text()), "panic")
}
