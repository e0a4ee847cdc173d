package posp

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
)

func fixture(t testing.TB, res int) (*optimizer.Optimizer, *ess.Space) {
	t.Helper()
	cat := catalog.TPCHLike(0.01)
	q := query.NewBuilder("pospq", cat).
		Relation("part").Relation("lineitem").Relation("orders").
		SelectionPred("part", "p_retailprice", 0.1, true).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), true).
		JoinPred("lineitem", "l_orderkey", "orders", "o_orderkey", query.PKFKSel(cat, "orders"), false).
		MustBuild()
	space, err := ess.NewSpace(q, []int{res})
	if err != nil {
		t.Fatal(err)
	}
	return optimizer.New(cost.NewCoster(q, cost.Postgres())), space
}

func TestDiagramBasics(t *testing.T) {
	_, space := fixture(t, 4)
	d := NewDiagram(space)
	if d.Coverage() != 0 {
		t.Fatal("fresh diagram should be uncovered")
	}
	if d.Covered(0) || d.PlanID(0) != -1 || !math.IsNaN(d.Cost(0).F()) {
		t.Fatal("uncovered location state wrong")
	}

	p1 := plan.NewSeqScan("part", []int{0})
	p2 := plan.NewIndexScan("part", "p_retailprice", []int{0})
	id1 := d.Set(0, p1, 10)
	id1b := d.Set(1, p1, 11)
	id2 := d.Set(2, p2, 12)
	if id1 != id1b {
		t.Fatal("same plan must get the same diagram ID")
	}
	if id1 == id2 {
		t.Fatal("distinct plans must get distinct IDs")
	}
	if d.NumPlans() != 2 {
		t.Fatalf("NumPlans = %d", d.NumPlans())
	}
	cmin, cmax := d.CostBounds()
	if cmin != 10 || cmax != 12 {
		t.Fatalf("bounds = %g, %g", cmin, cmax)
	}
}

func TestCostBoundsPanicsOnEmpty(t *testing.T) {
	_, space := fixture(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("empty diagram CostBounds should panic")
		}
	}()
	NewDiagram(space).CostBounds()
}

func TestGenerateFullCoverage(t *testing.T) {
	opt, space := fixture(t, 6)
	d := Generate(opt, space, 0)
	if d.Coverage() != 1.0 {
		t.Fatalf("coverage = %v", d.Coverage())
	}
	if d.NumPlans() < 2 {
		t.Fatalf("POSP has %d plans; expected plan switches across the space", d.NumPlans())
	}
	// Every location's cost matches an independent re-optimization.
	for flat := 0; flat < space.NumPoints(); flat++ {
		res := opt.Optimize(space.Sels(space.PointAt(flat)))
		if math.Abs((res.Cost - d.Cost(flat)).F()) > 1e-9*res.Cost.F() {
			t.Fatalf("location %d: diagram cost %g != optimizer %g", flat, d.Cost(flat), res.Cost)
		}
	}
}

func TestGenerateDeterministicAcrossWorkerCounts(t *testing.T) {
	opt, space := fixture(t, 6)
	a := Generate(opt, space, 1)
	b := Generate(opt, space, 4)
	if a.NumPlans() != b.NumPlans() {
		t.Fatalf("plan counts differ: %d vs %d", a.NumPlans(), b.NumPlans())
	}
	for flat := 0; flat < space.NumPoints(); flat++ {
		if a.PlanID(flat) != b.PlanID(flat) {
			t.Fatalf("plan IDs differ at %d", flat)
		}
		if a.Cost(flat) != b.Cost(flat) {
			t.Fatalf("costs differ at %d", flat)
		}
	}
	for i := range a.Plans() {
		if a.Plan(i).Fingerprint() != b.Plan(i).Fingerprint() {
			t.Fatalf("plan %d fingerprints differ", i)
		}
	}
}

// sparseDiagram optimizes only the listed locations into a fresh diagram.
func sparseDiagram(opt *optimizer.Optimizer, space *ess.Space, flats []int) *Diagram {
	d := NewDiagram(space)
	for i, res := range OptimizeAll(opt, space, flats, 0) {
		d.Set(flats[i], res.Plan, res.Cost)
	}
	return d
}

// TestOptimizeAllPositional: results are parallel to the listed flats —
// out of order, sparse and with a duplicate — at every worker count, each
// the very result Generate records there, one optimizer call per entry.
func TestOptimizeAllPositional(t *testing.T) {
	opt, space := fixture(t, 6)
	dense := Generate(opt, space, 1)
	flats := []int{5, 0, 3, 5}
	for _, workers := range []int{0, 1, 3, 16} {
		calls := opt.Calls()
		results := OptimizeAll(opt, space, flats, workers)
		if got := opt.Calls() - calls; got != int64(len(flats)) {
			t.Fatalf("workers=%d: %d optimizer calls for %d entries", workers, got, len(flats))
		}
		if len(results) != len(flats) {
			t.Fatalf("workers=%d: %d results for %d entries", workers, len(results), len(flats))
		}
		for i, flat := range flats {
			if results[i].Cost != dense.Cost(flat) {
				t.Fatalf("workers=%d: result %d costs %g, location %d costs %g", workers, i, results[i].Cost, flat, dense.Cost(flat))
			}
			if got, want := results[i].Plan.Fingerprint(), dense.Plan(dense.PlanID(flat)).Fingerprint(); got != want {
				t.Fatalf("workers=%d: result %d is plan %s, location %d has %s", workers, i, got, flat, want)
			}
		}
	}
	if got := OptimizeAll(opt, space, nil, 0); len(got) != 0 {
		t.Fatalf("empty work list returned %d results", len(got))
	}

	d := sparseDiagram(opt, space, flats)
	for flat := 0; flat < space.NumPoints(); flat++ {
		if want := flat == 0 || flat == 3 || flat == 5; d.Covered(flat) != want {
			t.Fatalf("Covered(%d) = %t", flat, d.Covered(flat))
		}
	}
}

func TestCostMatrixConsistency(t *testing.T) {
	opt, space := fixture(t, 6)
	d := Generate(opt, space, 0)
	m := CostMatrix(d, opt.Coster(), 0)
	if len(m) != d.NumPlans() {
		t.Fatalf("matrix rows = %d", len(m))
	}
	for flat := 0; flat < space.NumPoints(); flat++ {
		pid := d.PlanID(flat)
		// The diagram plan's matrix cost at its own region equals the
		// diagram's optimal cost.
		if math.Abs((m[pid][flat] - d.Cost(flat)).F()) > 1e-9*d.Cost(flat).F() {
			t.Fatalf("matrix[%d][%d] = %g, diagram cost %g", pid, flat, m[pid][flat], d.Cost(flat))
		}
		// And no plan beats the optimal there.
		for q := range m {
			if m[q][flat] < d.Cost(flat)*(1-1e-9) {
				t.Fatalf("plan %d at %d cheaper than optimal", q, flat)
			}
		}
	}
}

func TestDiagramString(t *testing.T) {
	opt, space := fixture(t, 4)
	d := Generate(opt, space, 0)
	if s := d.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	opt, space := fixture(t, 8)
	d := Generate(opt, space, 0)
	snap := d.Snapshot()
	restored, err := FromSnapshot(space, snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumPlans() != d.NumPlans() {
		t.Fatalf("plan counts differ: %d vs %d", restored.NumPlans(), d.NumPlans())
	}
	for f := 0; f < space.NumPoints(); f++ {
		if restored.PlanID(f) != d.PlanID(f) || restored.Cost(f) != d.Cost(f) {
			t.Fatalf("location %d differs after round trip", f)
		}
	}
}

func TestSnapshotSparseRoundTrip(t *testing.T) {
	opt, space := fixture(t, 8)
	d := sparseDiagram(opt, space, []int{1, 4, 6})
	restored, err := FromSnapshot(space, d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < space.NumPoints(); f++ {
		if restored.Covered(f) != d.Covered(f) {
			t.Fatalf("coverage differs at %d", f)
		}
		if d.Covered(f) && restored.Cost(f) != d.Cost(f) {
			t.Fatalf("cost differs at %d", f)
		}
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	opt, space := fixture(t, 8)
	d := Generate(opt, space, 0)
	good := d.Snapshot()

	short := good
	short.PlanIDs = short.PlanIDs[:2]
	if _, err := FromSnapshot(space, short); err == nil {
		t.Error("short snapshot accepted")
	}

	badRef := good
	badRef.PlanIDs = append([]int{}, good.PlanIDs...)
	badRef.PlanIDs[0] = 99
	if _, err := FromSnapshot(space, badRef); err == nil {
		t.Error("dangling plan reference accepted")
	}

	badCost := good
	badCost.Costs = append([]float64{}, good.Costs...)
	badCost.Costs[0] = -1
	if _, err := FromSnapshot(space, badCost); err == nil {
		t.Error("negative cost accepted")
	}

	dup := good
	dup.Plans = append(append([]*plan.Node{}, good.Plans...), good.Plans[0])
	if _, err := FromSnapshot(space, dup); err == nil {
		t.Error("duplicate plan list accepted")
	}

	// A decoded artifact never repeats a pointer: its duplicate is a
	// structurally equal copy.
	raw, err := json.Marshal(good.Plans[0])
	if err != nil {
		t.Fatal(err)
	}
	twin := new(plan.Node)
	if err := json.Unmarshal(raw, twin); err != nil {
		t.Fatal(err)
	}
	decodedDup := good
	decodedDup.Plans = append(append([]*plan.Node{}, good.Plans...), twin)
	if _, err := FromSnapshot(space, decodedDup); err == nil {
		t.Error("structurally duplicate plan list accepted")
	}
}

func BenchmarkGenerate1D(b *testing.B) {
	opt, space := fixture(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(opt, space, 0)
	}
}

func BenchmarkCostMatrix(b *testing.B) {
	opt, space := fixture(b, 60)
	d := Generate(opt, space, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CostMatrix(d, opt.Coster(), 0)
	}
}

func TestRenderASCII(t *testing.T) {
	cat := catalog.TPCHLike(0.01)
	q := query.NewBuilder("r2d", cat).
		Relation("part").Relation("lineitem").
		SelectionPred("part", "p_retailprice", 0.1, true).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), true).
		MustBuild()
	space, err := ess.NewSpace(q, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	d := Generate(opt, space, 0)

	out, err := d.RenderASCII(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(out)
	if len(lines) != 8 || len(lines[0]) != 8 {
		t.Fatalf("render shape %dx%d", len(lines), len(lines[0]))
	}
	// Row 0 of the output is the highest dimension-0 coordinate.
	topLeft := d.PlanID(space.Flat([]int{7, 0}))
	if lines[0][0] != byte('A'+topLeft%26) {
		t.Fatalf("orientation wrong: top-left %c, want plan %d", lines[0][0], topLeft)
	}

	// Contour overlay marks at least one location lowercase per budget
	// that cuts through the grid.
	cmin, cmax := d.CostBounds()
	mid := (cmin + cmax) / 4
	overlay, err := d.RenderASCII(nil, []cost.Cost{mid})
	if err != nil {
		t.Fatal(err)
	}
	hasLower := false
	for _, ch := range overlay {
		if ch >= 'a' && ch <= 'z' {
			hasLower = true
		}
	}
	if !hasLower {
		t.Fatal("no contour staircase marked")
	}

	// 1-D spaces are rejected.
	s1, err := ess.NewSpace(q, []int{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = s1
	d1 := NewDiagram(space)
	_ = d1
	q1 := query.NewBuilder("r1d", cat).
		Relation("part").
		SelectionPred("part", "p_retailprice", 0.1, true).
		MustBuild()
	space1, err := ess.NewSpace(q1, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiagram(space1).RenderASCII(nil, nil); err == nil {
		t.Fatal("1-D render accepted")
	}
}

func splitLines(s string) []string {
	var out []string
	for _, l := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		out = append(out, l)
	}
	return out
}

func TestComputeStats(t *testing.T) {
	opt, space := fixture(t, 30)
	d := Generate(opt, space, 0)
	st := d.ComputeStats()
	if st.Plans != d.NumPlans() || st.Covered != space.NumPoints() {
		t.Fatalf("stats header wrong: %+v", st)
	}
	if st.LargestRegion <= 0 || st.LargestRegion > 1 {
		t.Fatalf("largest region %g", st.LargestRegion)
	}
	if st.Top5Share < st.LargestRegion || st.Top5Share > 1+1e-12 {
		t.Fatalf("top-5 share %g < largest %g", st.Top5Share, st.LargestRegion)
	}
	if st.Gini < 0 || st.Gini >= 1 {
		t.Fatalf("gini %g", st.Gini)
	}
	// Hand-checked case: two plans with regions 3 and 1.
	d2 := NewDiagram(space)
	pa := d.Plan(0)
	pb := d.Plan(1)
	d2.Set(0, pa, 1)
	d2.Set(1, pa, 2)
	d2.Set(2, pa, 3)
	d2.Set(3, pb, 4)
	st2 := d2.ComputeStats()
	if st2.LargestRegion != 0.75 || st2.Top5Share != 1.0 {
		t.Fatalf("hand case: %+v", st2)
	}
	// Gini for sizes {1,3}: 2*(1*1+2*3)/(2*4) - 3/2 = 14/8 - 1.5 = 0.25.
	if math.Abs(st2.Gini-0.25) > 1e-12 {
		t.Fatalf("gini = %g, want 0.25", st2.Gini)
	}
	// Empty diagram.
	if st3 := NewDiagram(space).ComputeStats(); st3.Covered != 0 || st3.Gini != 0 {
		t.Fatalf("empty stats: %+v", st3)
	}
}
