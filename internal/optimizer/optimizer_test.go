package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
)

func chainQuery(t testing.TB, dims int) *query.Query {
	t.Helper()
	cat := catalog.TPCHLike(0.01)
	b := query.NewBuilder("optq", cat).
		Relation("part").Relation("lineitem").Relation("orders")
	b.SelectionPred("part", "p_retailprice", 0.1, dims >= 1)
	b.JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), dims >= 2)
	b.JoinPred("lineitem", "l_orderkey", "orders", "o_orderkey", query.PKFKSel(cat, "orders"), dims >= 3)
	return b.MustBuild()
}

func newOpt(t testing.TB, q *query.Query) *Optimizer {
	t.Helper()
	return New(cost.NewCoster(q, cost.Postgres()))
}

// distinctPreds counts the predicate IDs applied anywhere in the plan.
func distinctPreds(n *plan.Node) int {
	set := make(map[int]bool)
	n.Walk(func(m *plan.Node) {
		for _, p := range m.Preds {
			set[p] = true
		}
	})
	return len(set)
}

func TestOptimizeReturnsValidPlan(t *testing.T) {
	q := chainQuery(t, 3)
	opt := newOpt(t, q)
	res := opt.Optimize(cost.DefaultSels(q))
	if res.Plan == nil || !(res.Cost > 0) {
		t.Fatalf("bad result %+v", res)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// The plan must apply every predicate exactly once and cover every
	// relation.
	if n := distinctPreds(res.Plan); n != q.NumPredicates() {
		t.Fatalf("plan applies %d of %d predicates", n, q.NumPredicates())
	}
	rels := res.Plan.Relations()
	for _, r := range q.Relations() {
		if !rels[r] {
			t.Fatalf("plan misses relation %s", r)
		}
	}
}

func TestOptimizeCostMatchesAbstractCost(t *testing.T) {
	q := chainQuery(t, 3)
	opt := newOpt(t, q)
	sels := cost.Selectivities{0.05, 2e-4, 1e-5}
	res := opt.Optimize(sels)
	if got := opt.AbstractCost(res.Plan, sels); math.Abs((got - res.Cost).F()) > 1e-9*res.Cost.F() {
		t.Fatalf("AbstractCost %g != Optimize cost %g", got, res.Cost)
	}
}

// bruteForcePlans enumerates every left-deep and bushy plan over the
// 3-relation chain with every operator combination, as an independent
// optimality oracle.
func bruteForcePlans(q *query.Query) []*plan.Node {
	accessPart := []*plan.Node{
		plan.NewSeqScan("part", []int{0}),
		plan.NewIndexScan("part", "p_retailprice", []int{0}),
	}
	scanL := plan.NewSeqScan("lineitem", nil)
	scanO := plan.NewSeqScan("orders", nil)

	joins2 := func(l, r *plan.Node, pred int, innerRel, innerCol string, innerPreds []int) []*plan.Node {
		out := []*plan.Node{
			plan.NewHashJoin(l, r, []int{pred}),
			plan.NewHashJoin(r, l, []int{pred}),
			plan.NewMergeJoin(l, r, []int{pred}),
		}
		if innerRel != "" {
			out = append(out, plan.NewIndexNLJoin(l, innerRel, innerCol, append([]int{pred}, innerPreds...)))
		}
		return out
	}

	var all []*plan.Node
	// Shape 1: (part ⋈ lineitem) ⋈ orders.
	for _, ap := range accessPart {
		var pl []*plan.Node
		pl = append(pl, joins2(ap, scanL, 1, "lineitem", "l_partkey", nil)...)
		pl = append(pl, joins2(scanL, ap, 1, "", "", nil)...)
		// part as NL inner folds its selection into the join.
		pl = append(pl, plan.NewIndexNLJoin(scanL, "part", "p_partkey", []int{0, 1}))
		for _, sub := range pl {
			if len(sub.Relations()) != 2 || distinctPreds(sub) != 2 {
				continue // skipped fold variants that dropped pred 0
			}
			all = append(all, joins2(sub, scanO, 2, "orders", "o_orderkey", nil)...)
			all = append(all, joins2(scanO, sub, 2, "", "", nil)...)
		}
	}
	// Shape 2: part ⋈ (lineitem ⋈ orders).
	for _, lo := range joins2(scanL, scanO, 2, "orders", "o_orderkey", nil) {
		for _, ap := range accessPart {
			all = append(all, joins2(lo, ap, 1, "", "", nil)...)
			all = append(all, joins2(ap, lo, 1, "", "", nil)...)
		}
		all = append(all, plan.NewIndexNLJoin(lo, "part", "p_partkey", []int{0, 1}))
	}

	var valid []*plan.Node
	for _, p := range all {
		if p.Validate() == nil && distinctPreds(p) == 3 {
			valid = append(valid, p)
		}
	}
	return valid
}

// TestOptimalityAgainstBruteForce cross-checks the DP against exhaustive
// enumeration at random selectivity points: no enumerated plan may be
// cheaper than the optimizer's choice.
func TestOptimalityAgainstBruteForce(t *testing.T) {
	q := chainQuery(t, 3)
	opt := newOpt(t, q)
	coster := opt.Coster()
	plans := bruteForcePlans(q)
	if len(plans) < 20 {
		t.Fatalf("brute force enumerated only %d plans", len(plans))
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		sels := cost.Selectivities{
			cost.Sel(math.Pow(10, -4*rng.Float64())),        // selection in [1e-4, 1]
			cost.Sel(math.Pow(10, -3*rng.Float64()) * 5e-4), // joins under max legal
			cost.Sel(math.Pow(10, -3*rng.Float64()) * 6.6e-5),
		}
		res := opt.Optimize(sels)
		for _, p := range plans {
			if c := coster.Cost(p, sels); c < res.Cost*(1-1e-9) {
				t.Fatalf("trial %d: enumerated plan %s costs %g < optimizer's %g (%s)",
					trial, p, c, res.Cost, res.Plan)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	q := chainQuery(t, 3)
	sels := cost.Selectivities{0.1, 1e-4, 1e-5}
	a := newOpt(t, q).Optimize(sels)
	b := newOpt(t, q).Optimize(sels)
	if a.Plan.Fingerprint() != b.Plan.Fingerprint() || a.Cost != b.Cost {
		t.Fatal("optimization is not deterministic")
	}
}

func TestPlanChangesWithSelectivity(t *testing.T) {
	// The POSP property: different points get different optimal plans.
	q := chainQuery(t, 3)
	opt := newOpt(t, q)
	lo := opt.Optimize(cost.Selectivities{1e-4, 5e-7, 7e-8})
	hi := opt.Optimize(cost.Selectivities{1.0, 5e-4, 6.6e-5})
	if lo.Plan.Fingerprint() == hi.Plan.Fingerprint() {
		t.Fatal("optimal plan identical at opposite space corners — POSP degenerate")
	}
	if !(hi.Cost > lo.Cost) {
		t.Fatal("corner costs must increase with selectivity (PCM)")
	}
}

func TestCallsCounter(t *testing.T) {
	q := chainQuery(t, 1)
	opt := newOpt(t, q)
	sels := cost.DefaultSels(q)
	for i := 0; i < 5; i++ {
		opt.Optimize(sels)
	}
	if got := opt.Calls(); got != 5 {
		t.Fatalf("Calls = %d, want 5", got)
	}
	opt.ResetCalls()
	if opt.Calls() != 0 {
		t.Fatal("ResetCalls failed")
	}
}

func TestShortSelsPanics(t *testing.T) {
	q := chainQuery(t, 1)
	opt := newOpt(t, q)
	defer func() {
		if recover() == nil {
			t.Fatal("short selectivity slice should panic")
		}
	}()
	opt.Optimize(cost.Selectivities{0.1})
}

func TestSingleRelationQuery(t *testing.T) {
	cat := catalog.TPCHLike(0.01)
	q := query.NewBuilder("single", cat).
		Relation("part").
		SelectionPred("part", "p_retailprice", 0.1, true).
		MustBuild()
	opt := newOpt(t, q)
	// Low selectivity: index scan; high: seq scan.
	lo := opt.Optimize(cost.Selectivities{1e-4})
	if lo.Plan.Op != plan.OpIndexScan {
		t.Errorf("low selectivity plan = %s, want index scan", lo.Plan)
	}
	hi := opt.Optimize(cost.Selectivities{0.9})
	if hi.Plan.Op != plan.OpSeqScan {
		t.Errorf("high selectivity plan = %s, want seq scan", hi.Plan)
	}
}

func TestStarQueryUsesAllJoins(t *testing.T) {
	cat := catalog.TPCDSLike(0.01)
	q := query.NewBuilder("star", cat).
		Relation("store_sales").Relation("date_dim").Relation("item").Relation("store").
		JoinPred("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk", query.PKFKSel(cat, "date_dim"), true).
		JoinPred("store_sales", "ss_item_sk", "item", "i_item_sk", query.PKFKSel(cat, "item"), true).
		JoinPred("store_sales", "ss_store_sk", "store", "s_store_sk", query.PKFKSel(cat, "store"), true).
		MustBuild()
	opt := newOpt(t, q)
	res := opt.Optimize(cost.DefaultSels(q))
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := distinctPreds(res.Plan); got != 3 {
		t.Fatalf("star plan applies %d preds", got)
	}
}

func TestCyclicQueryAppliesAllPredicates(t *testing.T) {
	// A cycle: the extra closing predicate must be applied exactly once.
	cat := catalog.TPCHLike(0.01)
	q := query.NewBuilder("cyc", cat).
		Relation("part").Relation("lineitem").Relation("orders").
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), false).
		JoinPred("lineitem", "l_orderkey", "orders", "o_orderkey", query.PKFKSel(cat, "orders"), false).
		JoinPred("part", "p_size", "orders", "o_orderdate", 1e-3, true).
		MustBuild()
	opt := newOpt(t, q)
	res := opt.Optimize(cost.DefaultSels(q))
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := distinctPreds(res.Plan); got != 3 {
		t.Fatalf("cyclic plan applies %d preds, want 3", got)
	}
}

func TestOptimizerConcurrentUse(t *testing.T) {
	q := chainQuery(t, 3)
	opt := newOpt(t, q)
	ref := opt.Optimize(cost.DefaultSels(q))
	done := make(chan string, 8)
	for w := 0; w < 8; w++ {
		go func() {
			r := opt.Optimize(cost.DefaultSels(q))
			done <- r.Plan.Fingerprint()
		}()
	}
	for w := 0; w < 8; w++ {
		if fp := <-done; fp != ref.Plan.Fingerprint() {
			t.Fatal("concurrent optimizations diverged")
		}
	}
}

func TestAggregateQueryPlans(t *testing.T) {
	cat := catalog.TPCHLike(0.01)
	q := query.NewBuilder("aggq", cat).
		Relation("part").Relation("lineitem").
		SelectionPred("part", "p_retailprice", 0.1, true).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), false).
		Aggregate().
		MustBuild()
	opt := newOpt(t, q)
	res := opt.Optimize(cost.DefaultSels(q))
	if res.Plan.Op != plan.OpAggregate {
		t.Fatalf("aggregate query rooted at %v", res.Plan.Op)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// Cost exceeds the child's (the aggregate adds work).
	child := opt.AbstractCost(res.Plan.Left, cost.DefaultSels(q))
	if !(res.Cost > child) {
		t.Fatalf("aggregate cost %g not above child %g", res.Cost, child)
	}
}

func BenchmarkOptimizeChain3(b *testing.B) {
	q := chainQuery(b, 3)
	opt := newOpt(b, q)
	sels := cost.DefaultSels(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Optimize(sels)
	}
}

// branch8Query is an eight-relation TPC-H join tree with four error-prone
// joins: the DP's largest skeleton among the optimizer's fixtures.
func branch8Query(t testing.TB) *query.Query {
	t.Helper()
	cat := catalog.TPCHLike(1.0)
	return query.NewBuilder("bench8", cat).
		Relation("part").Relation("partsupp").Relation("lineitem").
		Relation("supplier").Relation("orders").Relation("customer").
		Relation("nation").Relation("region").
		JoinPred("part", "p_partkey", "partsupp", "ps_partkey", query.PKFKSel(cat, "part"), false).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), true).
		JoinPred("lineitem", "l_suppkey", "supplier", "s_suppkey", query.PKFKSel(cat, "supplier"), true).
		JoinPred("lineitem", "l_orderkey", "orders", "o_orderkey", query.PKFKSel(cat, "orders"), true).
		JoinPred("orders", "o_custkey", "customer", "c_custkey", query.PKFKSel(cat, "customer"), true).
		JoinPred("customer", "c_nationkey", "nation", "n_nationkey", query.PKFKSel(cat, "nation"), false).
		JoinPred("nation", "n_regionkey", "region", "r_regionkey", query.PKFKSel(cat, "region"), false).
		MustBuild()
}

func BenchmarkOptimizeBranch8(b *testing.B) {
	q := branch8Query(b)
	opt := newOpt(b, q)
	sels := cost.DefaultSels(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Optimize(sels)
	}
}

func BenchmarkAbstractCost(b *testing.B) {
	q := chainQuery(b, 3)
	opt := newOpt(b, q)
	sels := cost.DefaultSels(q)
	p := opt.Optimize(sels).Plan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.AbstractCost(p, sels)
	}
}

func TestGroupByQueryPlans(t *testing.T) {
	cat := catalog.TPCHLike(0.01)
	q := query.NewBuilder("gq", cat).
		Relation("part").Relation("lineitem").
		SelectionPred("part", "p_retailprice", 0.1, true).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), false).
		GroupByCol("part", "p_brand").
		MustBuild()
	opt := newOpt(t, q)
	res := opt.Optimize(cost.DefaultSels(q))
	if res.Plan.Op != plan.OpGroupAggregate {
		t.Fatalf("group-by query rooted at %v", res.Plan.Op)
	}
	if res.Plan.Relation != "part" || res.Plan.IndexColumn != "p_brand" {
		t.Fatalf("grouping column lost: %s", res.Plan)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
}
