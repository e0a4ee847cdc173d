package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// errflow reports discarded errors in library packages.
//
// The bouquet runtime's contract violations travel as error values —
// exec.Engine.Run, the persist codec, the compile pipeline all return
// them — and a silently dropped error turns a diagnosable contract
// breach into a wrong answer (the exec.Run iterator-build error dropped
// at a call site is exactly the bug class this analyzer exists for).
// errflow flags, in non-main packages:
//
//   - assignments that discard an error result into the blank
//     identifier (`v, _ := f()` where the second result is an error),
//   - expression statements that ignore a call's error result
//     entirely (`f()` where f returns an error).
//
// Two sink families are exempt because their errors are noise, not
// signal: the fmt print family (formatted output is best-effort — the
// repo's printless analyzer already polices where it may go), and
// methods on strings.Builder and bytes.Buffer, which are documented to
// never return a non-nil error. Deferred calls are likewise exempt:
// `defer f.Close()` is an accepted idiom whose error has nowhere
// useful to go. Remaining intentional discards carry a
// //bouquet:allow errflow directive naming the reason, which keeps
// every swallowed error a reviewed decision rather than an accident.
func errflow(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		// Commands report errors at the top level however they like;
		// the invariant protects library call chains.
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkAssign(pass, n)
			case *ast.ExprStmt:
				checkExprStmt(pass, n)
			case *ast.DeferStmt:
				return false // defer f.Close() is accepted
			case *ast.GoStmt:
				return false // goroutine results are unobservable anyway
			}
			return true
		})
	}
	return nil
}

// checkAssign flags blanks that swallow an error result.
func checkAssign(pass *Pass, as *ast.AssignStmt) {
	// Tuple form: v, _ := f().
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || errNoise(pass, call) {
			return
		}
		tuple, ok := pass.TypesInfo.Types[call].Type.(*types.Tuple)
		if !ok {
			return
		}
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && i < tuple.Len() && isErrorType(tuple.At(i).Type()) {
				pass.Reportf(lhs.Pos(), "error result of %s discarded; handle it or annotate with //bouquet:allow errflow", callName(call))
			}
		}
		return
	}
	// Parallel form: _, x = f(), g().
	if len(as.Rhs) == len(as.Lhs) {
		for i, lhs := range as.Lhs {
			if !isBlank(lhs) {
				continue
			}
			if t := pass.TypesInfo.Types[as.Rhs[i]].Type; t != nil && isErrorType(t) {
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok && !errNoise(pass, call) {
					pass.Reportf(lhs.Pos(), "error result of %s discarded; handle it or annotate with //bouquet:allow errflow", callName(call))
				}
			}
		}
	}
}

// checkExprStmt flags calls whose error results vanish entirely.
func checkExprStmt(pass *Pass, es *ast.ExprStmt) {
	call, ok := es.X.(*ast.CallExpr)
	if !ok || errNoise(pass, call) {
		return
	}
	t := pass.TypesInfo.Types[call].Type
	if t == nil {
		return
	}
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				pass.Reportf(call.Pos(), "call to %s ignores its error result; handle it or annotate with //bouquet:allow errflow", callName(call))
				return
			}
		}
	default:
		if isErrorType(t) {
			pass.Reportf(call.Pos(), "call to %s ignores its error result; handle it or annotate with //bouquet:allow errflow", callName(call))
		}
	}
}

// errNoise reports whether call's error is noise by contract: the fmt
// print family, and methods on the never-failing strings.Builder and
// bytes.Buffer.
func errNoise(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// fmt.Print/Printf/Println/Fprint/Fprintf/Fprintln/...
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			if pkg.Imported().Path() == "fmt" && strings.Contains(sel.Sel.Name, "rint") {
				return true
			}
			return false
		}
	}
	// Builder/Buffer methods.
	recv := pass.TypesInfo.Types[sel.X].Type
	if recv == nil {
		return false
	}
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (path == "strings" && name == "Builder") || (path == "bytes" && name == "Buffer")
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// isErrorType reports whether t is the built-in error interface (or a
// named type whose underlying interface is exactly it).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// callName renders the callee for diagnostics.
func callName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return "call"
}
