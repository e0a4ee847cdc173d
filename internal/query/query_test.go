package query

import (
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// testCatalog builds a small schema: a(100) ← b(1000) ← c(10000), plus d
// referencing b, giving chain/star/branch material.
func testCatalog() *catalog.Catalog {
	c := catalog.NewCatalog()
	add := func(name string, card int64, cols ...catalog.Column) {
		c.AddRelation(&catalog.Relation{Name: name, Card: card, TupleWidth: 64, Columns: cols})
	}
	add("a", 100,
		catalog.Column{Name: "a_id", Type: catalog.TypeKey, DistinctCount: 100},
		catalog.Column{Name: "a_v", Type: catalog.TypeInt, DistinctCount: 50})
	add("b", 1000,
		catalog.Column{Name: "b_id", Type: catalog.TypeKey, DistinctCount: 1000},
		catalog.Column{Name: "b_a", Type: catalog.TypeForeignKey, Refs: "a", DistinctCount: 100},
		catalog.Column{Name: "b_v", Type: catalog.TypeInt, DistinctCount: 50})
	add("c", 10000,
		catalog.Column{Name: "c_id", Type: catalog.TypeKey, DistinctCount: 10000},
		catalog.Column{Name: "c_b", Type: catalog.TypeForeignKey, Refs: "b", DistinctCount: 1000},
		catalog.Column{Name: "c_v", Type: catalog.TypeInt, DistinctCount: 50})
	add("d", 500,
		catalog.Column{Name: "d_id", Type: catalog.TypeKey, DistinctCount: 500},
		catalog.Column{Name: "d_b", Type: catalog.TypeForeignKey, Refs: "b", DistinctCount: 1000})
	c.IndexAllColumns()
	return c
}

func chainQuery(t *testing.T) *Query {
	t.Helper()
	cat := testCatalog()
	return NewBuilder("chain", cat).
		Relation("a").Relation("b").Relation("c").
		SelectionPred("a", "a_v", 0.1, true).
		JoinPred("a", "a_id", "b", "b_a", PKFKSel(cat, "a"), true).
		JoinPred("b", "b_id", "c", "c_b", PKFKSel(cat, "b"), false).
		MustBuild()
}

func TestBuilderHappyPath(t *testing.T) {
	q := chainQuery(t)
	if got := len(q.Relations()); got != 3 {
		t.Fatalf("relations = %d, want 3", got)
	}
	if got := q.NumPredicates(); got != 3 {
		t.Fatalf("predicates = %d, want 3", got)
	}
	if got := q.Dims(); got != 2 {
		t.Fatalf("dims = %d, want 2", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	cat := testCatalog()
	cases := []struct {
		name string
		b    *Builder
		want string
	}{
		{"unknown relation", NewBuilder("q", cat).Relation("ghost"), "unknown relation"},
		{"duplicate relation", NewBuilder("q", cat).Relation("a").Relation("a"), "duplicate relation"},
		{"pred on absent relation", NewBuilder("q", cat).Relation("a").
			SelectionPred("b", "b_v", 0.1, false), "not in FROM list"},
		{"unknown column", NewBuilder("q", cat).Relation("a").
			SelectionPred("a", "ghost", 0.1, false), "unknown column"},
		{"bad selectivity", NewBuilder("q", cat).Relation("a").
			SelectionPred("a", "a_v", 1.5, false), "out of (0,1]"},
		{"self join", NewBuilder("q", cat).Relation("a").Relation("b").
			JoinPred("a", "a_id", "a", "a_v", 0.1, false), "self-join"},
		{"no relations", NewBuilder("q", cat), "no relations"},
		{"disconnected", NewBuilder("q", cat).Relation("a").Relation("c"), "not connected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.b.Build()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build() error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestBuilderErrorSticks(t *testing.T) {
	cat := testCatalog()
	b := NewBuilder("q", cat).Relation("ghost").Relation("a")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("first error should stick, got %v", err)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild should panic on invalid query")
		}
	}()
	NewBuilder("q", testCatalog()).Relation("ghost").MustBuild()
}

func TestErrorDimsOrder(t *testing.T) {
	q := chainQuery(t)
	dims := q.ErrorDims()
	if len(dims) != 2 || dims[0] != 0 || dims[1] != 1 {
		t.Fatalf("ErrorDims = %v, want [0 1] (declaration order)", dims)
	}
	if q.DimOf(0) != 0 || q.DimOf(1) != 1 {
		t.Fatal("DimOf mismatch for error predicates")
	}
	if q.DimOf(2) != -1 {
		t.Fatal("DimOf should be -1 for error-free predicates")
	}
}

func TestJoinGraphShapes(t *testing.T) {
	cat := testCatalog()
	chain := chainQuery(t)
	if got := chain.JoinGraphShape(); got != "chain(3)" {
		t.Errorf("chain shape = %s", got)
	}

	star := NewBuilder("star", cat).
		Relation("b").Relation("a").Relation("c").Relation("d").
		JoinPred("b", "b_a", "a", "a_id", 0.01, false).
		JoinPred("b", "b_id", "c", "c_b", 0.001, false).
		JoinPred("b", "b_id", "d", "d_b", 0.001, false).
		MustBuild()
	if got := star.JoinGraphShape(); got != "star(4)" {
		t.Errorf("star shape = %s", got)
	}

	// Branch: an interior node of degree ≥ 3 that is not the hub of all.
	cat2 := catalog.TPCHLike(0.01)
	branch := NewBuilder("branch", cat2).
		Relation("part").Relation("lineitem").Relation("orders").
		Relation("supplier").Relation("customer").
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", PKFKSel(cat2, "part"), false).
		JoinPred("lineitem", "l_suppkey", "supplier", "s_suppkey", PKFKSel(cat2, "supplier"), false).
		JoinPred("lineitem", "l_orderkey", "orders", "o_orderkey", PKFKSel(cat2, "orders"), false).
		JoinPred("orders", "o_custkey", "customer", "c_custkey", PKFKSel(cat2, "customer"), false).
		MustBuild()
	if got := branch.JoinGraphShape(); got != "branch(5)" {
		t.Errorf("branch shape = %s", got)
	}

	single := NewBuilder("single", cat).Relation("a").
		SelectionPred("a", "a_v", 0.1, true).MustBuild()
	if got := single.JoinGraphShape(); got != "single" {
		t.Errorf("single shape = %s", got)
	}
}

func TestCycleShape(t *testing.T) {
	cat := testCatalog()
	cycle := NewBuilder("cycle", cat).
		Relation("a").Relation("b").Relation("c").
		JoinPred("a", "a_id", "b", "b_a", 0.01, false).
		JoinPred("b", "b_id", "c", "c_b", 0.001, false).
		JoinPred("a", "a_v", "c", "c_v", 0.02, false).
		MustBuild()
	if got := cycle.JoinGraphShape(); got != "cycle(3)" {
		t.Errorf("cycle shape = %s", got)
	}
}

func TestPKFKSel(t *testing.T) {
	cat := testCatalog()
	if got := PKFKSel(cat, "a"); got != 1.0/100 {
		t.Fatalf("PKFKSel(a) = %g, want 0.01", got)
	}
}

func TestMaxLegalSel(t *testing.T) {
	q := chainQuery(t)
	cat := q.Catalog
	// Selection: always 1.
	if got := MaxLegalSel(cat, q.Predicate(0)); got != 1.0 {
		t.Fatalf("selection MaxLegalSel = %g", got)
	}
	// Join a(100) ⋈ b(1000): bounded by the smaller side.
	if got := MaxLegalSel(cat, q.Predicate(1)); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("join MaxLegalSel = %g, want 0.01", got)
	}
}

func TestQueryString(t *testing.T) {
	q := chainQuery(t)
	s := q.String()
	for _, want := range []string{"select *", "a, b, c", "a.a_v < c?", "a.a_id = b.b_a?", "b.b_id = c.c_b"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestPredicateString(t *testing.T) {
	q := chainQuery(t)
	if got := q.Predicate(2).String(); strings.Contains(got, "?") {
		t.Errorf("error-free predicate rendered with '?': %s", got)
	}
	if got := q.Predicate(1).String(); !strings.Contains(got, "?") {
		t.Errorf("error-prone predicate missing '?': %s", got)
	}
}

func TestPredicatesAreCopies(t *testing.T) {
	q := chainQuery(t)
	ps := q.Predicates()
	ps[0].DefaultSel = 0.99
	if q.Predicate(0).DefaultSel == 0.99 {
		t.Fatal("Predicates() must return a copy")
	}
	rels := q.Relations()
	rels[0] = "mutated"
	if q.Relations()[0] == "mutated" {
		t.Fatal("Relations() must return a copy")
	}
}

func TestPredicateKindString(t *testing.T) {
	if Selection.String() != "selection" || Join.String() != "join" || AntiJoin.String() != "antijoin" {
		t.Error("kind strings wrong")
	}
	if !strings.Contains(PredicateKind(9).String(), "9") {
		t.Error("unknown kind should include its value")
	}
}

func TestNegatedPredicateString(t *testing.T) {
	cat := testCatalog()
	q := NewBuilder("neg", cat).
		Relation("a").
		NegatedSelectionPred("a", "a_v", 0.3, true).
		MustBuild()
	if s := q.Predicate(0).String(); !strings.Contains(s, ">=") || !strings.Contains(s, "?") {
		t.Errorf("negated predicate renders as %q", s)
	}
}

func TestGroupByBuilder(t *testing.T) {
	cat := testCatalog()
	q := NewBuilder("g", cat).
		Relation("a").
		SelectionPred("a", "a_v", 0.1, true).
		GroupByCol("a", "a_id").
		MustBuild()
	col, ok := q.GroupBy()
	if !ok || col.Relation != "a" || col.Column != "a_id" {
		t.Fatalf("GroupBy = %v %v", col, ok)
	}
	// Error path: unknown column.
	if _, err := NewBuilder("g2", cat).
		Relation("a").
		SelectionPred("a", "a_v", 0.1, true).
		GroupByCol("a", "ghost").
		Build(); err == nil {
		t.Fatal("unknown group column accepted")
	}
	// No group-by: ok reports false.
	plainQ := NewBuilder("g3", cat).Relation("a").SelectionPred("a", "a_v", 0.1, true).MustBuild()
	if _, ok := plainQ.GroupBy(); ok {
		t.Fatal("GroupBy true without GROUP BY")
	}
}

func TestAggregateBuilder(t *testing.T) {
	cat := testCatalog()
	q := NewBuilder("agg", cat).
		Relation("a").
		SelectionPred("a", "a_v", 0.1, true).
		Aggregate().
		MustBuild()
	if !q.Aggregate() {
		t.Fatal("aggregate flag lost")
	}
}

func TestAntiJoinShapeCounting(t *testing.T) {
	// Anti-join edges participate in the join-graph shape.
	cat := testCatalog()
	q := NewBuilder("shape", cat).
		Relation("b").Relation("a").Relation("c").
		JoinPred("b", "b_id", "c", "c_b", 0.001, false).
		AntiJoinPred("b", "b_a", "a", "a_id", 0.5, true).
		MustBuild()
	if got := q.JoinGraphShape(); got != "chain(3)" {
		t.Errorf("shape with anti edge = %s", got)
	}
}
