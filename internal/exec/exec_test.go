package exec

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/plan"
	"repro/internal/query"
)

// fixture builds a 3-relation database (part 500, lineitem 5000,
// orders 1000) with planted selectivities, plus an engine and a family of
// plans exercising every operator.
type fixture struct {
	q        *query.Query
	db       *data.Database
	eng      *Engine
	coster   *cost.Coster
	bindings map[int]int64
	plans    map[string]*plan.Node
}

func newFixture(t testing.TB) *fixture { return newFixtureScaled(t, 1) }

// newFixtureScaled multiplies every cardinality by scale: at 8 the
// lineitem scan spans 40 morsels, enough for epochs wide enough to fork.
func newFixtureScaled(t testing.TB, scale int64) *fixture {
	t.Helper()
	cat := catalog.NewCatalog()
	cat.AddRelation(&catalog.Relation{
		Name: "part", Card: 500 * scale, TupleWidth: 32,
		Columns: []catalog.Column{
			{Name: "p_id", Type: catalog.TypeKey, DistinctCount: 500 * scale},
			{Name: "p_price", Type: catalog.TypeInt, DistinctCount: 100},
		},
	})
	cat.AddRelation(&catalog.Relation{
		Name: "lineitem", Card: 5000 * scale, TupleWidth: 40,
		Columns: []catalog.Column{
			{Name: "l_part", Type: catalog.TypeForeignKey, Refs: "part", DistinctCount: 500 * scale},
			{Name: "l_order", Type: catalog.TypeForeignKey, Refs: "orders", DistinctCount: 1000 * scale},
			{Name: "l_qty", Type: catalog.TypeInt, DistinctCount: 50},
		},
	})
	cat.AddRelation(&catalog.Relation{
		Name: "orders", Card: 1000 * scale, TupleWidth: 24,
		Columns: []catalog.Column{
			{Name: "o_id", Type: catalog.TypeKey, DistinctCount: 1000 * scale},
			{Name: "o_total", Type: catalog.TypeInt, DistinctCount: 200},
		},
	})
	cat.IndexAllColumns()

	db := data.Generate(cat, nil, map[string]data.Spec{
		"lineitem": {MatchFrac: map[string]float64{"l_part": 0.6, "l_order": 0.8}},
	}, 77)

	q := query.NewBuilder("execq", cat).
		Relation("part").Relation("lineitem").Relation("orders").
		SelectionPred("part", "p_price", 0.3, true).
		JoinPred("part", "p_id", "lineitem", "l_part", query.PKFKSel(cat, "part"), true).
		JoinPred("lineitem", "l_order", "orders", "o_id", query.PKFKSel(cat, "orders"), true).
		MustBuild()

	bound, _ := db.SelectionBound("part", "p_price", 0.3)
	bindings := map[int]int64{0: bound}
	eng, err := NewEngine(q, db, cost.Postgres(), bindings)
	if err != nil {
		t.Fatal(err)
	}

	idxP := plan.NewIndexScan("part", "p_price", []int{0})
	seqP := plan.NewSeqScan("part", []int{0})
	seqL := plan.NewSeqScan("lineitem", nil)
	seqO := plan.NewSeqScan("orders", nil)

	plans := map[string]*plan.Node{
		"hj": plan.NewHashJoin(plan.NewHashJoin(seqL, seqP, []int{1}), seqO, []int{2}),
		"mj": plan.NewMergeJoin(plan.NewMergeJoin(seqL, seqP, []int{1}), seqO, []int{2}),
		"nl": plan.NewIndexNLJoin(plan.NewIndexNLJoin(idxP, "lineitem", "l_part", []int{1}), "orders", "o_id", []int{2}),
		"nlFold": plan.NewIndexNLJoin(
			plan.NewIndexNLJoin(seqO, "lineitem", "l_order", []int{2}), "part", "p_id", []int{0, 1}),
	}
	for name, p := range plans {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return &fixture{q: q, db: db, eng: eng, coster: cost.NewCoster(q, cost.Postgres()), bindings: bindings, plans: plans}
}

// bruteForceCount computes the true result cardinality directly from the
// data: |{(p,l,o) : p_price < bound ∧ p_id = l_part ∧ l_order = o_id}|.
func (fx *fixture) bruteForceCount() int64 {
	part := fx.db.Table("part")
	li := fx.db.Table("lineitem")
	bound := fx.bindings[0]
	// Join selectivity: l_part references dense keys, so each valid
	// l_part matches exactly one part row; same for l_order.
	var count int64
	for i := 0; i < li.NumRows(); i++ {
		p := li.Value(i, "l_part")
		o := li.Value(i, "l_order")
		if p < 0 || o < 0 {
			continue
		}
		if part.Value(int(p), "p_price") < bound {
			count++
		}
	}
	return count
}

func TestAllOperatorsProduceSameResult(t *testing.T) {
	fx := newFixture(t)
	want := fx.bruteForceCount()
	if want == 0 {
		t.Fatal("degenerate fixture: empty result")
	}
	for name, p := range fx.plans {
		res := fx.eng.MustRun(p, Options{})
		if !res.Completed {
			t.Fatalf("%s: unbudgeted run did not complete", name)
		}
		if res.RowsOut != want {
			t.Errorf("%s: rows = %d, want %d", name, res.RowsOut, want)
		}
	}
}

func TestChargedCostTracksModel(t *testing.T) {
	// The engine's charge-as-you-go accounting must land near the
	// analytic cost model (same formulas, realized rather than expected
	// cardinalities).
	fx := newFixture(t)
	selPL := fx.db.JoinSelectivity("part", "p_id", "lineitem", "l_part")
	selLO := fx.db.JoinSelectivity("lineitem", "l_order", "orders", "o_id")
	_, selP := fx.db.SelectionBound("part", "p_price", 0.3)
	sels := cost.Selectivities{cost.Sel(selP), cost.Sel(selPL), cost.Sel(selLO)}
	for name, p := range fx.plans {
		res := fx.eng.MustRun(p, Options{})
		want := fx.coster.Cost(p, sels)
		if res.CostUsed < want*0.5 || res.CostUsed > want*2.0 {
			t.Errorf("%s: charged %g, model %g (off by >2x)", name, res.CostUsed, want)
		}
	}
}

func TestBudgetAbort(t *testing.T) {
	fx := newFixture(t)
	for name, p := range fx.plans {
		full := fx.eng.MustRun(p, Options{})
		budget := full.CostUsed / 4
		partial := fx.eng.MustRun(p, Options{Budget: budget})
		if partial.Completed {
			t.Errorf("%s: completed under a quarter budget", name)
			continue
		}
		// Overshoot is at most one charge quantum (a page + tuple).
		if partial.CostUsed > budget+10 {
			t.Errorf("%s: charged %g overshoots budget %g", name, partial.CostUsed, budget)
		}
		if partial.RowsOut >= full.RowsOut {
			t.Errorf("%s: partial produced all rows", name)
		}
	}
}

func TestBudgetMonotone(t *testing.T) {
	// More budget ⇒ at least as many output rows.
	fx := newFixture(t)
	p := fx.plans["hj"]
	full := fx.eng.MustRun(p, Options{})
	prev := int64(-1)
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.8, 1.5} {
		res := fx.eng.MustRun(p, Options{Budget: full.CostUsed.Scale(cost.Ratio(frac))})
		if res.RowsOut < prev {
			t.Fatalf("rows decreased with larger budget: %d after %d", res.RowsOut, prev)
		}
		prev = res.RowsOut
	}
}

func TestCompletionExactlyAtSufficientBudget(t *testing.T) {
	fx := newFixture(t)
	p := fx.plans["nl"]
	full := fx.eng.MustRun(p, Options{})
	res := fx.eng.MustRun(p, Options{Budget: full.CostUsed * 1.001})
	if !res.Completed {
		t.Fatal("run with full-cost budget should complete")
	}
	if res.RowsOut != full.RowsOut {
		t.Fatal("row counts differ between budgeted-complete and unbudgeted runs")
	}
}

func TestInstrumentationCounts(t *testing.T) {
	fx := newFixture(t)
	p := fx.plans["hj"]
	res := fx.eng.MustRun(p, Options{})
	// The p_price selection pass count at the part scan equals the
	// brute-force count.
	part := fx.db.Table("part")
	var wantPass int64
	for i := 0; i < part.NumRows(); i++ {
		if part.Value(i, "p_price") < fx.bindings[0] {
			wantPass++
		}
	}
	var scanStats *NodeStats
	for node, st := range res.Stats {
		if node.Op == plan.OpSeqScan && node.Relation == "part" {
			scanStats = st
		}
	}
	if scanStats == nil {
		t.Fatal("no stats for part scan")
	}
	if scanStats.PassBy[0] != wantPass {
		t.Fatalf("PassBy[0] = %d, want %d", scanStats.PassBy[0], wantPass)
	}
	if !scanStats.Done || !scanStats.InputsDone {
		t.Fatal("completed scan not marked Done")
	}
	if scanStats.Out != wantPass {
		t.Fatalf("scan Out = %d, want %d", scanStats.Out, wantPass)
	}
}

func TestJoinMatchCounts(t *testing.T) {
	// Matches at the top join node = final result count (no residual
	// filters above), for every physical operator.
	fx := newFixture(t)
	want := fx.bruteForceCount()
	for _, name := range []string{"hj", "mj", "nl"} {
		p := fx.plans[name]
		res := fx.eng.MustRun(p, Options{})
		if got := res.Stats[p].Matches; got != want {
			t.Errorf("%s: root Matches = %d, want %d", name, got, want)
		}
	}
}

func TestSpillModeRunsOnlySubtree(t *testing.T) {
	fx := newFixture(t)
	p := fx.plans["hj"] // HJ( HJ(lineitem, part{0}) {1}, orders ) {2}
	res := fx.eng.MustRun(p, Options{Spill: true, SpillPred: 1})
	if !res.Completed {
		t.Fatal("unbudgeted spill should complete")
	}
	// The driven node is the inner hash join; the root (and the orders
	// scan) must have no stats — they never ran.
	if _, ran := res.Stats[p]; ran {
		t.Fatal("spill mode executed the root")
	}
	inner := p.Left
	st := res.Stats[inner]
	if st == nil || st.Out == 0 {
		t.Fatal("spilled subtree produced no stats")
	}
	// Spilled subtree output = part⋈lineitem with the selection.
	part, li := fx.db.Table("part"), fx.db.Table("lineitem")
	var want int64
	for i := 0; i < li.NumRows(); i++ {
		pid := li.Value(i, "l_part")
		if pid >= 0 && part.Value(int(pid), "p_price") < fx.bindings[0] {
			want++
		}
	}
	if st.Out != want {
		t.Fatalf("spilled output = %d, want %d", st.Out, want)
	}
	if res.RowsOut != want {
		t.Fatalf("RowsOut = %d, want driven node output %d", res.RowsOut, want)
	}
}

func TestSpillCheaperThanFull(t *testing.T) {
	fx := newFixture(t)
	p := fx.plans["hj"]
	full := fx.eng.MustRun(p, Options{})
	spill := fx.eng.MustRun(p, Options{Spill: true, SpillPred: 1})
	if spill.CostUsed >= full.CostUsed {
		t.Fatalf("spilled run (%g) not cheaper than full (%g)", spill.CostUsed, full.CostUsed)
	}
}

func TestSpillLearningSelectivityLowerBound(t *testing.T) {
	// Budgeted spilled executions yield Matches counts whose implied
	// selectivity never exceeds the true one (first-quadrant invariant).
	fx := newFixture(t)
	p := fx.plans["nlFold"] // NL(NL(orders, lineitem){2}, part){0,1}
	trueSel := fx.db.JoinSelectivity("lineitem", "l_order", "orders", "o_id")
	full := fx.eng.MustRun(p, Options{Spill: true, SpillPred: 2})
	for _, frac := range []float64{0.1, 0.4, 0.9, 1.2} {
		res := fx.eng.MustRun(p, Options{Budget: full.CostUsed.Scale(cost.Ratio(frac)), Spill: true, SpillPred: 2})
		node := p.Left
		st := res.Stats[node]
		if st == nil {
			t.Fatal("no stats for spilled node")
		}
		implied := float64(st.Matches) / (5000.0 * 1000.0)
		if implied > trueSel*(1+1e-9) {
			t.Fatalf("frac %g: implied sel %g exceeds true %g", frac, implied, trueSel)
		}
		if res.Completed && math.Abs(implied-trueSel) > 1e-12 {
			t.Fatalf("completed spill learned %g, true %g", implied, trueSel)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	fx := newFixture(t)
	if _, err := NewEngine(fx.q, fx.db, cost.Postgres(), nil); err == nil {
		t.Fatal("engine without selection bindings should fail")
	}
}

func TestSpillUnknownPredPanics(t *testing.T) {
	fx := newFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("spill on unapplied predicate should panic")
		}
	}()
	fx.eng.MustRun(fx.plans["hj"], Options{Spill: true, SpillPred: 99})
}

// TestRunUnknownOperatorReturnsError pins the build-error contract:
// before the iterator-build error was propagated out of Run, a plan
// carrying an unrecognized operator left the iterator nil and Run
// panicked on open. It must surface as an ordinary error instead.
func TestRunUnknownOperatorReturnsError(t *testing.T) {
	fx := newFixture(t)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Run panicked on an unknown operator: %v", r)
		}
	}()
	bogus := &plan.Node{Op: plan.Op(9999)}
	if _, err := fx.eng.Run(bogus, Options{}); err == nil {
		t.Fatal("Run on a plan with an unknown operator should return an error")
	} else if !strings.Contains(err.Error(), "unknown operator") {
		t.Fatalf("unexpected error: %v", err)
	}

	// The same error must propagate from deep inside the tree, not just
	// from the root dispatch.
	nested := plan.NewAggregate(bogus)
	if _, err := fx.eng.Run(nested, Options{}); err == nil {
		t.Fatal("Run should propagate a build error from a nested child")
	} else if !strings.Contains(err.Error(), "unknown operator") {
		t.Fatalf("unexpected error from nested plan: %v", err)
	}
}

func TestRunDeterministic(t *testing.T) {
	fx := newFixture(t)
	p := fx.plans["mj"]
	a := fx.eng.MustRun(p, Options{Budget: 500})
	b := fx.eng.MustRun(p, Options{Budget: 500})
	if a.RowsOut != b.RowsOut || a.CostUsed != b.CostUsed || a.Completed != b.Completed {
		t.Fatal("budgeted runs are not deterministic")
	}
}

func TestAggregateOperator(t *testing.T) {
	fx := newFixture(t)
	base := fx.plans["hj"]
	agg := plan.NewAggregate(base)
	res := fx.eng.MustRun(agg, Options{})
	if !res.Completed || res.RowsOut != 1 {
		t.Fatalf("aggregate: completed=%v rows=%d", res.Completed, res.RowsOut)
	}
	// The aggregate consumed exactly the join's output.
	if got := res.Stats[agg].InTuples; got != fx.bruteForceCount() {
		t.Fatalf("aggregate consumed %d, want %d", got, fx.bruteForceCount())
	}
	// Budgeted aggregates abort like everything else.
	full := res.CostUsed
	part := fx.eng.MustRun(agg, Options{Budget: full / 3})
	if part.Completed {
		t.Fatal("aggregate completed at a third of its cost")
	}
}

func BenchmarkHashJoinExecution(b *testing.B) {
	fx := newFixture(b)
	p := fx.plans["hj"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.MustRun(p, Options{})
	}
}

func BenchmarkIndexNLExecution(b *testing.B) {
	fx := newFixture(b)
	p := fx.plans["nl"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.MustRun(p, Options{})
	}
}

// BenchmarkBudgetedPartialExecution runs the hash-join plan under a
// quarter of its cost: the budget runs out mid-probe, which is what every
// aborted bouquet step pays for a plan it then discards.
func BenchmarkBudgetedPartialExecution(b *testing.B) {
	fx := newFixture(b)
	p := fx.plans["hj"]
	full := fx.eng.MustRun(p, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.MustRun(p, Options{Budget: full.CostUsed / 4})
	}
}

func BenchmarkSpilledExecution(b *testing.B) {
	fx := newFixture(b)
	p := fx.plans["hj"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.eng.MustRun(p, Options{Spill: true, SpillPred: 1})
	}
}

// TestJoinsWithDuplicateKeys exercises many-to-many joins: both sides carry
// duplicate join keys, so merge join must replay its group cross products
// and hash join must expand buckets. Ground truth via brute force.
func TestJoinsWithDuplicateKeys(t *testing.T) {
	cat := catalog.NewCatalog()
	cat.AddRelation(&catalog.Relation{
		Name: "l", Card: 400, TupleWidth: 16,
		Columns: []catalog.Column{
			{Name: "l_k", Type: catalog.TypeInt, DistinctCount: 20}, // heavy duplication
			{Name: "l_v", Type: catalog.TypeInt, DistinctCount: 100},
		},
	})
	cat.AddRelation(&catalog.Relation{
		Name: "r", Card: 300, TupleWidth: 16,
		Columns: []catalog.Column{
			{Name: "r_k", Type: catalog.TypeInt, DistinctCount: 20},
			{Name: "r_v", Type: catalog.TypeInt, DistinctCount: 100},
		},
	})
	cat.IndexAllColumns()
	db := data.Generate(cat, nil, nil, 91)
	q := query.NewBuilder("dup", cat).
		Relation("l").Relation("r").
		JoinPred("l", "l_k", "r", "r_k", 1.0/20, true).
		MustBuild()
	eng, err := NewEngine(q, db, cost.Postgres(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Brute-force pair count.
	var want int64
	lt, rt := db.Table("l"), db.Table("r")
	for i := 0; i < lt.NumRows(); i++ {
		for j := 0; j < rt.NumRows(); j++ {
			if lt.Value(i, "l_k") == rt.Value(j, "r_k") {
				want++
			}
		}
	}
	if want < 1000 {
		t.Fatalf("fixture degenerate: only %d pairs", want)
	}

	seqL, seqR := plan.NewSeqScan("l", nil), plan.NewSeqScan("r", nil)
	for name, p := range map[string]*plan.Node{
		"mj":     plan.NewMergeJoin(seqL, seqR, []int{0}),
		"mj-rev": plan.NewMergeJoin(seqR, seqL, []int{0}),
		"hj":     plan.NewHashJoin(seqL, seqR, []int{0}),
		"hj-rev": plan.NewHashJoin(seqR, seqL, []int{0}),
		"nl":     plan.NewIndexNLJoin(seqL, "r", "r_k", []int{0}),
		"nl-rev": plan.NewIndexNLJoin(seqR, "l", "l_k", []int{0}),
	} {
		res := eng.MustRun(p, Options{})
		if !res.Completed || res.RowsOut != want {
			t.Errorf("%s: rows = %d, want %d", name, res.RowsOut, want)
		}
	}
}

// TestMergeJoinGroupBoundaries pins down the group-replay logic with a
// hand-built table: keys [1,1,2] ⋈ [1,2,2] must produce 2 + 2 = 4 rows.
func TestMergeJoinGroupBoundaries(t *testing.T) {
	cat := catalog.NewCatalog()
	cat.AddRelation(&catalog.Relation{
		Name: "a", Card: 3, TupleWidth: 8,
		Columns: []catalog.Column{{Name: "a_k", Type: catalog.TypeInt, DistinctCount: 3}},
	})
	cat.AddRelation(&catalog.Relation{
		Name: "b", Card: 3, TupleWidth: 8,
		Columns: []catalog.Column{{Name: "b_k", Type: catalog.TypeInt, DistinctCount: 3}},
	})
	cat.IndexAllColumns()
	// Deterministic contents via domain-1 trick then manual check: use a
	// generated db but assert against its own brute force.
	db := data.Generate(cat, nil, map[string]data.Spec{
		"a": {Domain: map[string]int64{"a_k": 2}},
		"b": {Domain: map[string]int64{"b_k": 2}},
	}, 5)
	q := query.NewBuilder("g", cat).
		Relation("a").Relation("b").
		JoinPred("a", "a_k", "b", "b_k", 0.5, true).
		MustBuild()
	eng, err := NewEngine(q, db, cost.Postgres(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, av := range db.Table("a").Column("a_k") {
		for _, bv := range db.Table("b").Column("b_k") {
			if av == bv {
				want++
			}
		}
	}
	p := plan.NewMergeJoin(plan.NewSeqScan("a", nil), plan.NewSeqScan("b", nil), []int{0})
	if res := eng.MustRun(p, Options{}); res.RowsOut != want {
		t.Fatalf("merge join rows = %d, want %d", res.RowsOut, want)
	}
}

func TestGroupAggregate(t *testing.T) {
	fx := newFixture(t)
	// Group the join result by the order key and cross-check per-group
	// counts against brute force.
	base := fx.plans["hj"]
	g := plan.NewGroupAggregate(base, "orders", "o_id")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	res := fx.eng.MustRun(g, Options{})
	if !res.Completed {
		t.Fatal("group aggregate failed")
	}
	// Brute force per-group counts.
	part, li := fx.db.Table("part"), fx.db.Table("lineitem")
	want := map[int64]int64{}
	for i := 0; i < li.NumRows(); i++ {
		p, o := li.Value(i, "l_part"), li.Value(i, "l_order")
		if p >= 0 && o >= 0 && part.Value(int(p), "p_price") < fx.bindings[0] {
			want[o]++
		}
	}
	if res.RowsOut != int64(len(want)) {
		t.Fatalf("groups = %d, want %d", res.RowsOut, len(want))
	}
	// Stats consumed every join row.
	if got := res.Stats[g].InTuples; got != fx.bruteForceCount() {
		t.Fatalf("aggregate consumed %d, want %d", got, fx.bruteForceCount())
	}
	// Budget abort applies.
	part1 := fx.eng.MustRun(g, Options{Budget: res.CostUsed / 3})
	if part1.Completed {
		t.Fatal("group aggregate completed at a third of its cost")
	}
}

func TestAntiJoinOperatorLocal(t *testing.T) {
	// Exec-local anti-join coverage (the richer behavioural tests live
	// in internal/core): orders surviving a NOT EXISTS against a block
	// list, with budget abort.
	cat := catalog.NewCatalog()
	cat.AddRelation(&catalog.Relation{
		Name: "o", Card: 800, TupleWidth: 16,
		Columns: []catalog.Column{
			{Name: "o_id", Type: catalog.TypeKey, DistinctCount: 800},
			{Name: "o_c", Type: catalog.TypeInt, DistinctCount: 100},
		},
	})
	cat.AddRelation(&catalog.Relation{
		Name: "blk", Card: 60, TupleWidth: 8,
		Columns: []catalog.Column{{Name: "b_c", Type: catalog.TypeInt, DistinctCount: 100}},
	})
	cat.IndexAllColumns()
	db := data.Generate(cat, nil, nil, 3)
	q := query.NewBuilder("antiexec", cat).
		Relation("o").Relation("blk").
		AntiJoinPred("o", "o_c", "blk", "b_c", 0.5, true).
		MustBuild()
	eng, err := NewEngine(q, db, cost.Postgres(), nil)
	if err != nil {
		t.Fatal(err)
	}
	blocked := map[int32]bool{}
	for _, v := range db.Table("blk").Column("b_c") {
		blocked[v] = true
	}
	var want int64
	for _, v := range db.Table("o").Column("o_c") {
		if !blocked[v] {
			want++
		}
	}
	p := plan.NewAntiJoin(plan.NewSeqScan("o", nil), "blk", "b_c", 0)
	res := eng.MustRun(p, Options{})
	if !res.Completed || res.RowsOut != want {
		t.Fatalf("anti rows = %d, want %d", res.RowsOut, want)
	}
	partial := eng.MustRun(p, Options{Budget: res.CostUsed / 2})
	if partial.Completed || partial.RowsOut >= want {
		t.Fatalf("budgeted anti join: completed=%v rows=%d", partial.Completed, partial.RowsOut)
	}
	// Spill mode on the anti predicate drives the anti node itself.
	spill := eng.MustRun(p, Options{Spill: true, SpillPred: 0})
	if !spill.Completed || spill.RowsOut != want {
		t.Fatalf("spilled anti rows = %d, want %d", spill.RowsOut, want)
	}
}

// TestVolcanoHashJoinMatchOrder: the Volcano hash join walks its joinTable
// chains in build order, so with duplicate build keys Collect sees each
// probe row's matches in the order the build scan produced them. A
// budget that runs out partway along a chain stops the join on the match
// whose output charge crosses it, with the counters computed here from
// the data and the rates.
func TestVolcanoHashJoinMatchOrder(t *testing.T) {
	cat := catalog.NewCatalog()
	for _, rel := range []struct {
		name string
		card int64
	}{{"l", 6}, {"r", 12}} {
		cat.AddRelation(&catalog.Relation{
			Name: rel.name, Card: rel.card, TupleWidth: 16,
			Columns: []catalog.Column{
				{Name: rel.name + "_k", Type: catalog.TypeInt, DistinctCount: 3},
				{Name: rel.name + "_v", Type: catalog.TypeInt, DistinctCount: 1000},
			},
		})
	}
	db := data.Generate(cat, nil, nil, 13)
	q := query.NewBuilder("order", cat).
		Relation("l").Relation("r").
		JoinPred("l", "l_k", "r", "r_k", 1.0/3, true).
		MustBuild()
	eng, err := NewEngine(q, db, cost.Postgres(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.NewHashJoin(plan.NewSeqScan("l", nil), plan.NewSeqScan("r", nil), []int{0})

	// Every probe row's matches, in build order.
	lt, rt := db.Table("l"), db.Table("r")
	var want [][]int64
	chain := make([]int, lt.NumRows())
	for i := range chain {
		for j := 0; j < rt.NumRows(); j++ {
			if lt.Value(i, "l_k") == rt.Value(j, "r_k") {
				want = append(want, []int64{lt.Value(i, "l_k"), lt.Value(i, "l_v"), rt.Value(j, "r_k"), rt.Value(j, "r_v")})
				chain[i]++
			}
		}
	}
	var got [][]int64
	collect := func(r []int64) { got = append(got, r) }
	if res := eng.MustRun(p, Options{Collect: collect}); !res.Completed || !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("collected %v, want %v", got, want)
	}

	// The charges up to the first probe row with three matches, then its
	// first match and half of its second's output charge.
	probe := slices.IndexFunc(chain, func(c int) bool { return c >= 3 })
	if probe < 0 {
		t.Fatalf("degenerate fixture: no chain of three in %v", chain)
	}
	rl, rr, rj := eng.coster.Rates(p.Left), eng.coster.Rates(p.Right), eng.coster.Rates(p)
	scan := func(r cost.Rates, i int) float64 {
		if i%r.PageRows == 0 {
			return r.Row + r.Page
		}
		return r.Row
	}
	budget, matches := 0.0, int64(0)
	for j := 0; j < rt.NumRows(); j++ {
		budget += scan(rr, j) + rj.Build
	}
	for i := 0; i < probe; i++ {
		budget += scan(rl, i) + rj.Probe + float64(chain[i])*rj.Out
		matches += int64(chain[i])
	}
	budget += scan(rl, probe) + rj.Probe + 1.5*rj.Out
	got = nil
	res := eng.MustRun(p, Options{Budget: cost.Cost(budget), Collect: collect})
	st := res.Stats[p]
	if res.Completed || st.Matches != matches+2 || st.Out != matches+1 || st.InTuples != int64(probe+1) {
		t.Fatalf("budget %g: completed %v, matches %d, out %d, in %d; want an abort at matches %d, out %d, in %d",
			budget, res.Completed, st.Matches, st.Out, st.InTuples, matches+2, matches+1, probe+1)
	}
	if !slices.EqualFunc(got, want[:matches+1], slices.Equal) {
		t.Fatalf("aborted run collected %v, want %v", got, want[:matches+1])
	}
}
