package callgraph

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// build parses and type-checks src as one package and returns its graph.
func build(t *testing.T, src string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("a", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return New([]*ast.File{f}, info)
}

// nodeByName finds a declared function node.
func nodeByName(t *testing.T, g *Graph, suffix string) *Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Func != nil && strings.HasSuffix(n.Name(), suffix) {
			return n
		}
	}
	t.Fatalf("no node named %q; have %v", suffix, names(g))
	return nil
}

func names(g *Graph) []string {
	var out []string
	for _, n := range g.Nodes() {
		out = append(out, n.Name())
	}
	return out
}

// TestLiteralNodesAndGoLaunches: every function literal — the one a go
// statement launches and the one nested in it — is a node of its own,
// linked to its lexical parent, and Inspect attributes each call to
// exactly the node whose body holds it.
func TestLiteralNodesAndGoLaunches(t *testing.T) {
	g := build(t, `package a

func launch() {
	go func() {
		inner()
		func() { inner() }()
	}()
	inner()
}

func inner() {}
`)
	launch := nodeByName(t, g, "a.launch")
	var lits []*Node
	for _, n := range g.Nodes() {
		if n.Lit != nil {
			lits = append(lits, n)
		}
	}
	if len(lits) != 2 {
		t.Fatalf("%d literal nodes, want 2: %v", len(lits), names(g))
	}
	outer, nested := lits[0], lits[1]
	if outer.Parent != launch || nested.Parent != outer {
		t.Fatalf("parents: outer %v, nested %v; want launch and the outer literal", outer.Parent, nested.Parent)
	}
	calls := func(n *Node) int {
		c := 0
		n.Inspect(func(m ast.Node) bool {
			if _, ok := m.(*ast.CallExpr); ok {
				c++
			}
			return true
		})
		return c
	}
	// launch owns inner() and the go statement's call of the outer
	// literal; the outer literal owns inner() and the nested literal's
	// call; the nested literal owns its inner().
	for _, c := range []struct {
		n    *Node
		want int
	}{{launch, 2}, {outer, 2}, {nested, 1}} {
		if got := calls(c.n); got != c.want {
			t.Errorf("%s owns %d calls, want %d", c.n.Name(), got, c.want)
		}
	}
}

func TestDeterministicOrder(t *testing.T) {
	src := `package a

func c() { a(); b() }
func a() {}
func b() { a() }
`
	g1, g2 := build(t, src), build(t, src)
	n1, n2 := names(g1), names(g2)
	if strings.Join(n1, ",") != strings.Join(n2, ",") {
		t.Fatalf("node order differs: %v vs %v", n1, n2)
	}
	if !sort.SliceIsSorted(g1.Nodes(), func(i, j int) bool {
		return g1.Nodes()[i].Pos() < g1.Nodes()[j].Pos()
	}) {
		t.Fatalf("nodes not sorted by position: %v", n1)
	}
}
