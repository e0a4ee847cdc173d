// Package callgraph indexes the function bodies of one type-checked
// package for atomicmix: every function declaration and every function
// literal becomes a Node, and Node.Inspect attributes each piece of syntax
// to exactly one of them, so an invariant that spans function boundaries —
// a variable accessed atomically in one function and plainly in another —
// becomes checkable.
//
// Function literals are separate nodes (a literal launched by `go` or
// stored in a callback runs on its own schedule, so it must not inherit
// its parent's facts), linked to their lexical parent via Parent. Call
// sites are not resolved: no analyzer reads call edges.
//
// # Determinism
//
// Nodes returns nodes sorted by source position, so analyzers that
// iterate the graph produce byte-identical diagnostics across runs.
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

// A Graph is the function nodes of one package.
type Graph struct {
	nodes []*Node
}

// Nodes returns every node sorted by source position.
func (g *Graph) Nodes() []*Node { return g.nodes }

// New builds the package's graph from its parsed files and type-checker
// results.
func New(files []*ast.File, info *types.Info) *Graph {
	g := &Graph{}
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
			g.addLits(n, fd.Body)
		}
	}
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i].Pos() < g.nodes[j].Pos() })
	return g
}

// addLits creates child nodes for every function literal under body,
// attributing each to its nearest enclosing function node.
func (g *Graph) addLits(parent *Node, body *ast.BlockStmt) {
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

// Inspect walks the nodes lexically owned by n: its body minus nested
// literal bodies, which belong to child nodes. Analyzers use it to
// attribute syntax to exactly one graph node.
func (n *Node) Inspect(visit func(ast.Node) bool) {
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
