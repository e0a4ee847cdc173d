package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/workload"
)

// This file proves the DP-skeleton refactor is observationally identical to
// the seed optimizer: seedOptimize below is a line-for-line port of the
// pre-skeleton Optimize (per-call connectedMask / joinPredsBetween /
// Detail-based pricing), and the tests assert bit-identical costs and
// identical plan fingerprints across every workload and under randomly
// perturbed cost models.

type seedEntry struct {
	node *plan.Node
	cost cost.Cost
	rows cost.Card
	wide float64
}

func seedEntryFor(o *Optimizer, n *plan.Node, sels cost.Selectivities) seedEntry {
	nc := o.coster.Detail(n, sels)
	root := nc[len(nc)-1]
	return seedEntry{node: n, cost: root.TotalCost, rows: root.Rows, wide: root.Width}
}

func seedCheaper(a, b seedEntry) seedEntry {
	switch {
	case b.node == nil:
		return a
	case a.node == nil:
		return b
	case b.cost < a.cost:
		return b
	case b.cost > a.cost:
		return a
	case b.node.Fingerprint() < a.node.Fingerprint():
		return b
	default:
		return a
	}
}

func seedBestAccessPath(o *Optimizer, i int, sels cost.Selectivities) seedEntry {
	rel := o.rels[i]
	preds := o.selPred[i]
	best := seedEntryFor(o, plan.NewSeqScan(rel, preds), sels)
	for _, id := range preds {
		col := o.q.Predicate(id).Left.Column
		if !o.q.Catalog.HasIndex(rel, col) {
			continue
		}
		best = seedCheaper(best, seedEntryFor(o, plan.NewIndexScan(rel, col, preds), sels))
	}
	return best
}

func seedConsiderJoins(o *Optimizer, best *seedEntry, left, right seedEntry, rightMask uint64, preds []int, sels cost.Selectivities) {
	for _, id := range preds {
		p := o.q.Predicate(id)
		if p.Kind != query.AntiJoin {
			continue
		}
		if len(preds) == 1 && bits.OnesCount64(rightMask) == 1 &&
			o.rels[bits.TrailingZeros64(rightMask)] == p.Right.Relation {
			anti := seedEntryFor(o, plan.NewAntiJoin(left.node, p.Right.Relation, p.Right.Column, id), sels)
			*best = seedCheaper(*best, anti)
		}
		return
	}

	*best = seedCheaper(*best, seedEntryFor(o, plan.NewHashJoin(left.node, right.node, preds), sels))
	*best = seedCheaper(*best, seedEntryFor(o, plan.NewMergeJoin(left.node, right.node, preds), sels))

	if bits.OnesCount64(rightMask) == 1 {
		ri := bits.TrailingZeros64(rightMask)
		innerRel := o.rels[ri]
		for _, id := range preds {
			p := o.q.Predicate(id)
			var col string
			switch innerRel {
			case p.Left.Relation:
				col = p.Left.Column
			case p.Right.Relation:
				col = p.Right.Column
			default:
				continue
			}
			if !o.q.Catalog.HasIndex(innerRel, col) {
				continue
			}
			all := append(append([]int{}, preds...), o.selPred[ri]...)
			nl := seedEntryFor(o, plan.NewIndexNLJoin(left.node, innerRel, col, all), sels)
			*best = seedCheaper(*best, nl)
		}
	}
}

// seedOptimize replays the pre-skeleton per-call DP verbatim: fresh memo,
// connectivity and join-predicate discovery inside the call, Detail-based
// candidate pricing.
func seedOptimize(o *Optimizer, sels cost.Selectivities) Result {
	n := len(o.rels)
	full := uint64(1)<<uint(n) - 1
	memo := make([]seedEntry, full+1)

	for i := 0; i < n; i++ {
		memo[1<<uint(i)] = seedBestAccessPath(o, i, sels)
	}

	for m := uint64(1); m <= full; m++ {
		if bits.OnesCount64(m) < 2 || !o.connectedMask(m) {
			continue
		}
		best := seedEntry{cost: cost.Cost(math.Inf(1))}
		for sub := (m - 1) & m; sub > 0; sub = (sub - 1) & m {
			left, right := sub, m&^sub
			if memo[left].node == nil || memo[right].node == nil {
				continue
			}
			preds := o.joinPredsBetween(left, right)
			if len(preds) == 0 {
				continue
			}
			seedConsiderJoins(o, &best, memo[left], memo[right], right, preds, sels)
		}
		memo[m] = best
	}

	final := memo[full]
	if final.node == nil {
		panic(fmt.Sprintf("optimizer: no plan for query %s", o.q.Name))
	}
	if col, ok := o.q.GroupBy(); ok {
		g := seedEntryFor(o, plan.NewGroupAggregate(final.node, col.Relation, col.Column), sels)
		return Result{Plan: g.node, Cost: g.cost}
	}
	if o.q.Aggregate() {
		agg := seedEntryFor(o, plan.NewAggregate(final.node), sels)
		return Result{Plan: agg.node, Cost: agg.cost}
	}
	return Result{Plan: final.node, Cost: final.cost}
}

// diffLocations samples grid locations deterministically: all corners of
// small spaces, a strided subset of large ones.
func diffLocations(n int) []int {
	stride := 1
	if n > 64 {
		stride = n / 64
	}
	var out []int
	for f := 0; f < n; f += stride {
		out = append(out, f)
	}
	if out[len(out)-1] != n-1 {
		out = append(out, n-1)
	}
	return out
}

func assertIdentical(t *testing.T, label string, opt *Optimizer, sels cost.Selectivities) {
	t.Helper()
	want := seedOptimize(opt, sels)
	got := opt.Optimize(sels)
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost diverged: skeleton %v, seed %v (Δ=%g)",
			label, got.Cost, want.Cost, (got.Cost - want.Cost).F())
	}
	if got.Plan.Fingerprint() != want.Plan.Fingerprint() {
		t.Fatalf("%s: plan diverged:\n skeleton: %s\n seed:     %s",
			label, got.Plan.Fingerprint(), want.Plan.Fingerprint())
	}
}

// TestDifferentialAllWorkloads checks bit-identical plans and costs on all
// ten Table-2 workloads at a small grid resolution.
func TestDifferentialAllWorkloads(t *testing.T) {
	for _, w := range workload.All(4) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			opt := New(cost.NewCoster(w.Query, w.Model))
			for _, flat := range diffLocations(w.Space.NumPoints()) {
				sels := w.Space.Sels(w.Space.PointAt(flat))
				assertIdentical(t, fmt.Sprintf("%s@%d", w.Name, flat), opt, sels)
			}
		})
	}
}

// TestDifferentialRandomModels re-runs the comparison under randomly scaled
// cost-model parameters, so agreement is not an artifact of the tuned
// PostgreSQL numbers.
func TestDifferentialRandomModels(t *testing.T) {
	seeds := []int64{7, 42, 1234}
	if testing.Short() {
		seeds = seeds[:1]
	}
	base := cost.PostgresParams()
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		scale := func(v float64) float64 { return v * (0.2 + 4.8*rng.Float64()) }
		model := cost.Model{Name: fmt.Sprintf("random-%d", seed), P: cost.Params{
			SeqPageCost:       scale(base.SeqPageCost),
			RandomPageCost:    scale(base.RandomPageCost),
			CPUTupleCost:      scale(base.CPUTupleCost),
			CPUIndexTupleCost: scale(base.CPUIndexTupleCost),
			CPUOperatorCost:   scale(base.CPUOperatorCost),
			HashQualCost:      scale(base.HashQualCost),
			SortCmpCost:       scale(base.SortCmpCost),
			WorkMemBytes:      scale(base.WorkMemBytes),
			SpillPageCost:     scale(base.SpillPageCost),
		}}
		for _, w := range []*workload.Workload{workload.EQ2D(6), workload.HQ8(3), workload.DSQ26(3)} {
			opt := New(cost.NewCoster(w.Query, model))
			for _, flat := range diffLocations(w.Space.NumPoints()) {
				sels := w.Space.Sels(w.Space.PointAt(flat))
				assertIdentical(t, fmt.Sprintf("%s/model=%d@%d", w.Name, seed, flat), opt, sels)
			}
		}
	}
}

// TestNewRejectsPerturbedCoster: the DP prices candidates without plan
// nodes, so a perturbation keyed on node fingerprints would be silently
// ignored; New refuses the coster instead.
func TestNewRejectsPerturbedCoster(t *testing.T) {
	w := workload.EQ2D(6)
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a perturbed coster")
		}
	}()
	New(cost.NewCoster(w.Query, w.Model).WithPerturbation(0.3, 99))
}
