// Package atomicmix reports memory locations accessed both atomically
// and plainly — the mixed-access races the race detector only catches
// when a test happens to interleave the two sides.
//
// The parallel runtime leans on sync/atomic for its hot coordination
// state: the morsel cursor and stop flag in exec, the trace ring's
// write cursor, the server's telemetry counters. The
// whole-program guarantee those sites rely on is exclusivity: once a
// location is published through atomic operations, every access must go
// through them. One plain load or store elsewhere reintroduces the data
// race the atomic was bought to remove, and does so silently — the code
// still passes every test that doesn't interleave the two functions.
// Three rules, in increasing structural awareness:
//
//   - address-mixed: a variable or field whose address is passed to a
//     sync/atomic function in one function but which is read or written
//     plainly in another — the plain sites are flagged;
//   - typed-atomic copy: a value of type sync/atomic.Bool, Int32, Int64,
//     Uint32, Uint64, Uintptr, Pointer or Value appearing in a copy
//     position (assignment source, call argument, return value,
//     composite-literal element, channel send) — the copy is a distinct
//     location that shares no atomicity with the original;
//   - sibling-mixed: inside a struct carrying at least one typed-atomic
//     field, a method that performs atomic operations on the receiver
//     and in the same breath plainly writes a non-atomic sibling field
//     that other methods also touch — the lock-free method is mutating
//     shared state outside its atomic, which needs a lock, an atomic, or
//     a documented single-writer argument.
//
// Composite-literal initialization is exempt (construction happens
// before publication), and mutex-typed siblings are ignored (a mutex is
// coordination state, not data).
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer implements the atomicmix invariant.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc:  "report locations accessed both through sync/atomic and plainly across the package",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	files := pass.NonTestFiles()
	if len(files) == 0 {
		return nil
	}
	g := pass.CallGraph()
	a := &analyzer{pass: pass, graph: g}
	a.collectAtomicTargets()
	a.checkAddressMixed()
	a.checkCopies(files)
	a.checkSiblingMixed(files)
	return nil
}

type analyzer struct {
	pass  *analysis.Pass
	graph *callgraph.Graph

	// atomicIn records, per address-taken atomic target, the set of graph
	// nodes that operate on it atomically.
	atomicIn map[*types.Var]map[*callgraph.Node]bool
	// atomicArgs marks the &x expressions consumed by sync/atomic calls,
	// so the plain-access walk can skip them.
	atomicArgs map[ast.Expr]bool
}

// collectAtomicTargets finds every sync/atomic call taking &x and records
// x's object and the function performing the operation.
func (a *analyzer) collectAtomicTargets() {
	a.atomicIn = map[*types.Var]map[*callgraph.Node]bool{}
	a.atomicArgs = map[ast.Expr]bool{}
	for _, n := range a.graph.Nodes() {
		node := n
		node.Inspect(func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || !a.isAtomicFuncCall(call) || len(call.Args) == 0 {
				return true
			}
			unary, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || unary.Op != token.AND {
				return true
			}
			v := a.rootObject(unary.X)
			if v == nil {
				return true
			}
			a.atomicArgs[call.Args[0]] = true
			set := a.atomicIn[v]
			if set == nil {
				set = map[*callgraph.Node]bool{}
				a.atomicIn[v] = set
			}
			set[node] = true
			return true
		})
	}
}

// checkAddressMixed flags plain accesses of address-taken atomic targets
// occurring in a different function than some atomic operation on them.
func (a *analyzer) checkAddressMixed() {
	if len(a.atomicIn) == 0 {
		return
	}
	for _, n := range a.graph.Nodes() {
		node := n
		// Exempt the sanctioned access forms: idents inside the &x operand
		// of an atomic call, and composite-literal field keys (those are
		// construction before publication, not access).
		exempt := map[*ast.Ident]bool{}
		node.Inspect(func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CompositeLit:
				for _, elt := range m.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							exempt[id] = true
						}
					}
				}
			case ast.Expr:
				if a.atomicArgs[m] {
					ast.Inspect(m, func(x ast.Node) bool {
						if id, ok := x.(*ast.Ident); ok {
							exempt[id] = true
						}
						return true
					})
				}
			}
			return true
		})
		node.Inspect(func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok || exempt[id] {
				return true
			}
			v, ok := a.pass.TypesInfo.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			atomicNodes := a.atomicIn[v]
			if atomicNodes == nil {
				return true
			}
			if len(atomicNodes) == 1 && atomicNodes[node] {
				return true // only this function touches it atomically
			}
			a.pass.Reportf(id.Pos(), "%s is accessed with sync/atomic elsewhere in this package; this plain access races with those operations", v.Name())
			return true
		})
	}
}

// checkCopies flags typed-atomic values in copy positions.
func (a *analyzer) checkCopies(files []*ast.File) {
	for _, f := range files {
		ast.Inspect(f, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.AssignStmt:
				for i, rhs := range m.Rhs {
					// Assigning to _ discards the value; no second
					// location comes into existence.
					if len(m.Lhs) == len(m.Rhs) {
						if id, ok := m.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
							continue
						}
					}
					a.checkCopyExpr(rhs, "assignment copies")
				}
			case *ast.CallExpr:
				if tv, ok := a.pass.TypesInfo.Types[m.Fun]; ok && tv.IsType() {
					return true // conversion, not a call
				}
				for _, arg := range m.Args {
					a.checkCopyExpr(arg, "argument passes a copy of")
				}
			case *ast.ReturnStmt:
				for _, res := range m.Results {
					a.checkCopyExpr(res, "return copies")
				}
			case *ast.SendStmt:
				a.checkCopyExpr(m.Value, "channel send copies")
			case *ast.CompositeLit:
				for _, elt := range m.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						elt = kv.Value
					}
					a.checkCopyExpr(elt, "composite literal copies")
				}
			}
			return true
		})
	}
}

func (a *analyzer) checkCopyExpr(e ast.Expr, what string) {
	e = ast.Unparen(e)
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return // only lvalue-shaped expressions denote the original location
	}
	tv, ok := a.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || !isAtomicType(tv.Type) {
		return
	}
	a.pass.Reportf(e.Pos(), "%s a sync/atomic value, detaching it from the original's atomicity; use a pointer", what)
}

// checkSiblingMixed applies the struct-level rule: methods mixing atomic
// operations on the receiver with plain writes to shared siblings.
func (a *analyzer) checkSiblingMixed(files []*ast.File) {
	// structInfo aggregates one named struct type's methods and accesses.
	type write struct {
		field *types.Var
		pos   token.Pos
	}
	type methodFacts struct {
		node        *callgraph.Node
		atomicOnRcv bool
		locksMutex  bool
		plainWrites []write
	}
	byType := map[*types.TypeName][]*methodFacts{}
	fieldAccess := map[*types.Var]map[*callgraph.Node]bool{}

	for _, n := range a.graph.Nodes() {
		if n.Func == nil {
			continue
		}
		tn := receiverStruct(n.Func)
		if tn == nil || !structHasAtomicField(tn) {
			continue
		}
		recv := receiverVar(n.Func)
		mf := &methodFacts{node: n}
		node := n
		node.Inspect(func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				// recv.g.Load() / recv.g.Store(v): atomic method on an
				// atomic field of the receiver.
				if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok {
					if f := a.fieldOfRecv(sel.X, recv); f != nil {
						if isAtomicType(f.Type()) {
							mf.atomicOnRcv = true
						}
						// A method that takes a receiver mutex is not
						// lock-free; its plain writes are presumed guarded.
						if isMutexType(f.Type()) && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
							mf.locksMutex = true
						}
					}
				}
				// atomic.AddInt64(&recv.g, 1)-style.
				if a.isAtomicFuncCall(m) && len(m.Args) > 0 {
					if u, ok := ast.Unparen(m.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
						if f := a.fieldOfRecvPath(u.X, recv); f != nil {
							mf.atomicOnRcv = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range m.Lhs {
					if f := a.fieldOfRecvPath(lhs, recv); f != nil && !isAtomicType(f.Type()) && !isMutexType(f.Type()) {
						mf.plainWrites = append(mf.plainWrites, write{field: f, pos: lhs.Pos()})
					}
				}
			case *ast.IncDecStmt:
				if f := a.fieldOfRecvPath(m.X, recv); f != nil && !isAtomicType(f.Type()) && !isMutexType(f.Type()) {
					mf.plainWrites = append(mf.plainWrites, write{field: f, pos: m.X.Pos()})
				}
			case *ast.SelectorExpr:
				// Any touch of a field of the receiver, for the
				// accessed-in-another-method condition.
				if v, ok := a.pass.TypesInfo.Uses[m.Sel].(*types.Var); ok && v.IsField() {
					set := fieldAccess[v]
					if set == nil {
						set = map[*callgraph.Node]bool{}
						fieldAccess[v] = set
					}
					set[node] = true
				}
			}
			return true
		})
		byType[tn] = append(byType[tn], mf)
	}

	for _, methods := range byType {
		for _, mf := range methods {
			if !mf.atomicOnRcv || mf.locksMutex {
				continue
			}
			for _, w := range mf.plainWrites {
				others := fieldAccess[w.field]
				shared := false
				for n := range others {
					if n != mf.node && n.Parent != mf.node {
						shared = true
						break
					}
				}
				if shared {
					a.pass.Reportf(w.pos, "plain write to field %s in a method that also uses sync/atomic on the receiver; %s is accessed by other methods, so this write races unless externally synchronized", w.field.Name(), w.field.Name())
				}
			}
		}
	}
}

// fieldOfRecv returns the receiver field f when e is exactly recv.f.
func (a *analyzer) fieldOfRecv(e ast.Expr, recv *types.Var) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || recv == nil || a.pass.TypesInfo.Uses[id] != recv {
		return nil
	}
	v, _ := a.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if v == nil || !v.IsField() {
		return nil
	}
	return v
}

// fieldOfRecvPath resolves e to the receiver field at the root of an
// lvalue path: recv.f, recv.f[i], recv.f[i].g — the write lands in
// memory reachable through field f.
func (a *analyzer) fieldOfRecvPath(e ast.Expr, recv *types.Var) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if f := a.fieldOfRecv(x, recv); f != nil {
				return f
			}
			e = x.X
		default:
			return nil
		}
	}
}

// isAtomicFuncCall reports whether call invokes a package-level function
// of sync/atomic (AddInt64, LoadUint64, CompareAndSwapPointer, ...).
func (a *analyzer) isAtomicFuncCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := a.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// rootObject resolves the variable or field object at the root of an
// addressable expression: x, s.f, s.f[i] all resolve to their deepest
// named component.
func (a *analyzer) rootObject(e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := a.pass.TypesInfo.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := a.pass.TypesInfo.Uses[e.Sel].(*types.Var)
		return v
	case *ast.IndexExpr:
		return a.rootObject(e.X)
	case *ast.StarExpr:
		return a.rootObject(e.X)
	}
	return nil
}

// receiverStruct returns the named type of a method's receiver when its
// underlying type is a struct declared in this package.
func receiverStruct(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
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

// receiverVar returns the receiver variable of a method, nil for
// anonymous receivers.
func receiverVar(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Recv()
}

// structHasAtomicField reports whether the named struct declares at
// least one field of a sync/atomic type.
func structHasAtomicField(tn *types.TypeName) bool {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isAtomicType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isAtomicType reports whether t is one of sync/atomic's typed values.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return false
	}
	switch obj.Name() {
	case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value":
		return true
	}
	return false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (writes to
// a mutex field never happen; the exemption covers embedded cases).
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}
