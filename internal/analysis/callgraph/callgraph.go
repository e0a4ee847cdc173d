// Package callgraph builds a class-hierarchy-analysis (CHA) call graph
// over one type-checked package, using only the standard library. It is
// the interprocedural substrate for atomicmix: the call graph answers
// "who can this call reach", so an invariant that spans function
// boundaries — a variable accessed atomically in one function and
// plainly in another — becomes checkable.
//
// # Resolution
//
// Every function declaration and every function literal in the package
// becomes a Node. Call sites resolve as follows:
//
//   - static calls (package functions, methods with a concrete receiver,
//     immediately-invoked literals) edge to their unique callee;
//   - interface method calls resolve CHA-style to every package-local
//     concrete type whose method set implements the interface method —
//     soundly over-approximating dynamic dispatch within the package;
//   - calls through function values (parameters, fields, locals) and
//     calls into other packages have no body here; they are recorded on
//     the caller as Unresolved / External edges so conservative
//     analyzers can still reason about them.
//
// Function literals are separate nodes (a literal launched by `go` or
// stored in a callback runs on its own schedule, so it must not inherit
// its parent's flow facts), linked to their lexical parent via Parent.
//
// # Determinism
//
// Nodes returns nodes sorted by source position and edges are appended
// in syntactic order, so analyzers that iterate the graph produce
// byte-identical diagnostics across runs.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Node is one function body: a declaration or a function literal.
type Node struct {
	// Func is the declared function object; nil for literals.
	Func *types.Func
	// Decl is the syntax of a declared function; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the syntax of a function literal; nil for declarations.
	Lit *ast.FuncLit
	// Parent is the lexically enclosing node of a literal; nil for
	// declarations.
	Parent *Node
	// Body is the function body (nil for bodyless declarations).
	Body *ast.BlockStmt
	// Calls are the resolved call edges in syntactic order.
	Calls []Edge
	// Unresolved lists call sites with no static callee in this package:
	// calls through function values and calls whose interface method has
	// no local implementation. They may do anything, including block.
	Unresolved []*ast.CallExpr
	// External lists call sites whose callee is a function or method of
	// another package (body not visible here).
	External []ExternalEdge
	// GoLaunches lists `go` statements whose launched body is this
	// node's literal or a call this node makes.
	GoLaunches []*ast.GoStmt
}

// Name renders a stable human-readable identifier for diagnostics:
// "pkg.Func", "(pkg.T).Method", or "parent·funcN" for literals.
func (n *Node) Name() string {
	if n.Func != nil {
		return n.Func.FullName()
	}
	if n.Parent != nil {
		return n.Parent.Name() + "·lit"
	}
	return "·lit"
}

// Pos locates the node's syntax.
func (n *Node) Pos() token.Pos {
	switch {
	case n.Decl != nil:
		return n.Decl.Pos()
	case n.Lit != nil:
		return n.Lit.Pos()
	}
	return token.NoPos
}

// An Edge is one resolved call: the syntactic site and its callee node.
type Edge struct {
	// Site is the call expression (nil for edges synthesized from `go`
	// statements launching a named function).
	Site *ast.CallExpr
	// Callee is the resolved target.
	Callee *Node
	// Dynamic marks CHA-resolved interface dispatch (one of possibly
	// several targets) as opposed to a unique static callee.
	Dynamic bool
}

// An ExternalEdge is one call whose callee lives outside the package.
type ExternalEdge struct {
	Site *ast.CallExpr
	// Callee is the out-of-package function object.
	Callee *types.Func
}

// A Graph is the call graph of one package.
type Graph struct {
	nodes   []*Node
	byFunc  map[*types.Func]*Node
	byLit   map[*ast.FuncLit]*Node
	methods map[string][]*Node // interface method name -> implementing methods
}

// Nodes returns every node sorted by source position.
func (g *Graph) Nodes() []*Node { return g.nodes }

// NodeOf returns the node of a declared function object, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byFunc[fn] }

// LitNode returns the node of a function literal, or nil.
func (g *Graph) LitNode(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// New builds the package's call graph from its parsed files and
// type-checker results.
func New(files []*ast.File, info *types.Info, pkg *types.Package) *Graph {
	g := &Graph{
		byFunc:  map[*types.Func]*Node{},
		byLit:   map[*ast.FuncLit]*Node{},
		methods: map[string][]*Node{},
	}

	// Pass 1: create nodes for declarations and literals, and index
	// methods by name for CHA dispatch resolution.
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			n := &Node{Func: fn, Decl: fd, Body: fd.Body}
			g.nodes = append(g.nodes, n)
			g.byFunc[fn] = n
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				g.methods[fn.Name()] = append(g.methods[fn.Name()], n)
			}
			g.addLits(n, fd.Body, info)
		}
	}
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i].Pos() < g.nodes[j].Pos() })

	// Pass 2: resolve call sites per node (literal bodies excluded from
	// their parents — each literal node owns its sites).
	for _, n := range g.nodes {
		g.resolveCalls(n, info, pkg)
	}
	return g
}

// addLits creates child nodes for every function literal under body,
// attributing each to its nearest enclosing function node.
func (g *Graph) addLits(parent *Node, body *ast.BlockStmt, info *types.Info) {
	if body == nil {
		return
	}
	var walk func(n ast.Node, parent *Node) bool
	walk = func(n ast.Node, parent *Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		child := &Node{Lit: lit, Parent: parent, Body: lit.Body}
		g.nodes = append(g.nodes, child)
		g.byLit[lit] = child
		// Recurse with the literal as the new parent.
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if m == lit.Body {
				return true
			}
			return walk(m, child)
		})
		return false // children handled above
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		return walk(n, parent)
	})
}

// ownStmts visits the statements lexically owned by n — its body minus
// any nested literal bodies (those belong to child nodes).
func ownNodes(n *Node, visit func(ast.Node) bool) {
	if n.Body == nil {
		return
	}
	ast.Inspect(n.Body, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok && lit != n.Lit {
			// The literal expression itself is visible (e.g. as a call
			// operand) but its body belongs to the child node.
			return false
		}
		if m == nil {
			return true
		}
		return visit(m)
	})
}

// Inspect walks the nodes lexically owned by n (its body minus nested
// literal bodies). Analyzers use it to attribute syntax to exactly one
// graph node.
func (n *Node) Inspect(visit func(ast.Node) bool) { ownNodes(n, visit) }

// resolveCalls classifies every call site owned by n. The call operand
// of a `go` statement is not a synchronous call of n — the launched body
// runs on its own goroutine — so it is recorded in GoLaunches and
// excluded from Calls/External/Unresolved.
func (g *Graph) resolveCalls(n *Node, info *types.Info, pkg *types.Package) {
	launched := map[*ast.CallExpr]bool{}
	ownNodes(n, func(m ast.Node) bool {
		if gs, ok := m.(*ast.GoStmt); ok {
			n.GoLaunches = append(n.GoLaunches, gs)
			launched[gs.Call] = true
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if launched[call] {
			return true
		}
		// Conversions are not calls.
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.FuncLit:
			// Immediately-invoked literal: unique static edge.
			if child := g.byLit[fun]; child != nil {
				n.Calls = append(n.Calls, Edge{Site: call, Callee: child})
			}
			return true
		case *ast.Ident:
			g.resolveIdent(n, call, fun, info, pkg)
			return true
		case *ast.SelectorExpr:
			g.resolveSelector(n, call, fun, info, pkg)
			return true
		}
		// Calling the result of another call, an index expression, etc.:
		// a function value with no static identity.
		n.Unresolved = append(n.Unresolved, call)
		return true
	})
}

func (g *Graph) resolveIdent(n *Node, call *ast.CallExpr, id *ast.Ident, info *types.Info, pkg *types.Package) {
	obj := info.Uses[id]
	switch obj := obj.(type) {
	case *types.Func:
		g.addFuncEdge(n, call, obj, pkg)
	case *types.Builtin, nil:
		// Builtins (len, append, panic, ...) never block and hold no
		// bodies; not graph edges.
	case *types.Var:
		// Call through a function-typed variable or parameter.
		n.Unresolved = append(n.Unresolved, call)
	default:
		n.Unresolved = append(n.Unresolved, call)
	}
}

func (g *Graph) resolveSelector(n *Node, call *ast.CallExpr, sel *ast.SelectorExpr, info *types.Info, pkg *types.Package) {
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		// Interface dispatch: the method object belongs to an interface
		// type; resolve CHA-style to package-local implementations.
		if recv := recvType(fn); recv != nil && types.IsInterface(recv) {
			g.addInterfaceEdges(n, call, fn, pkg)
			return
		}
		g.addFuncEdge(n, call, fn, pkg)
		return
	}
	if _, ok := info.Uses[sel.Sel].(*types.Var); ok {
		// Function-typed field.
		n.Unresolved = append(n.Unresolved, call)
		return
	}
	n.Unresolved = append(n.Unresolved, call)
}

// addFuncEdge records a call to a concrete function object: an internal
// edge when its body is in this package, an external edge otherwise.
func (g *Graph) addFuncEdge(n *Node, call *ast.CallExpr, fn *types.Func, pkg *types.Package) {
	if target := g.byFunc[fn]; target != nil {
		n.Calls = append(n.Calls, Edge{Site: call, Callee: target})
		return
	}
	if fn.Pkg() == nil || fn.Pkg() != pkg {
		n.External = append(n.External, ExternalEdge{Site: call, Callee: fn})
		return
	}
	// Same package but no node (bodyless declaration).
	n.Unresolved = append(n.Unresolved, call)
}

// addInterfaceEdges resolves an interface method call to every
// package-local method with the same name whose receiver type implements
// the interface.
func (g *Graph) addInterfaceEdges(n *Node, call *ast.CallExpr, ifaceMethod *types.Func, pkg *types.Package) {
	iface := recvType(ifaceMethod)
	candidates := g.methods[ifaceMethod.Name()]
	found := false
	for _, cand := range candidates {
		recv := cand.Func.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		if types.Implements(recv.Type(), iface.Underlying().(*types.Interface)) ||
			types.Implements(types.NewPointer(recv.Type()), iface.Underlying().(*types.Interface)) {
			n.Calls = append(n.Calls, Edge{Site: call, Callee: cand, Dynamic: true})
			found = true
		}
	}
	if !found {
		// No local implementation: the dynamic target lives elsewhere.
		n.External = append(n.External, ExternalEdge{Site: call, Callee: ifaceMethod})
	}
}

// recvType returns the receiver's type for a method object, nil for
// plain functions.
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// StaticCallee returns the unique resolved in-package callee of a call
// site owned by caller, or nil (unresolved, external, or dynamic).
func (g *Graph) StaticCallee(caller *Node, call *ast.CallExpr) *Node {
	for _, e := range caller.Calls {
		if e.Site == call && !e.Dynamic {
			return e.Callee
		}
	}
	return nil
}

// Launched returns the node whose body runs on the goroutine started by
// gs: the literal's node for `go func(){...}()`, the callee's node for
// `go f(...)` when f is declared in this package, nil otherwise (method
// values, external functions, function values).
func (g *Graph) Launched(gs *ast.GoStmt, info *types.Info) *Node {
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return g.byLit[fun]
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return g.byFunc[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return g.byFunc[fn]
		}
	}
	return nil
}

// Callees returns every resolved in-package target of a call site owned
// by caller (one for static calls, possibly several for CHA-resolved
// dispatch), in edge order.
func (g *Graph) Callees(caller *Node, call *ast.CallExpr) []*Node {
	var out []*Node
	for _, e := range caller.Calls {
		if e.Site == call {
			out = append(out, e.Callee)
		}
	}
	return out
}
