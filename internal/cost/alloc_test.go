package cost

import (
	"testing"

	"repro/internal/plan"
)

// The Price fast path is the per-candidate kernel of the optimizer's DP;
// it must stay allocation-free (Detail remains the allocating breakdown
// API for explain/debug callers).

func TestPriceAllocFree(t *testing.T) {
	fx := newFixture(t, Postgres())
	sels := DefaultSels(fx.q)
	for i, p := range fx.plans {
		if got := testing.AllocsPerRun(50, func() { fx.coster.Price(p, sels) }); got > 0 {
			t.Errorf("Price(plan %d) allocates %.0f/call, want 0", i, got)
		}
	}
}

func TestPriceStepAllocFree(t *testing.T) {
	fx := newFixture(t, Postgres())
	sels := DefaultSels(fx.q)
	root := fx.plans[0]
	left := fx.coster.Price(root.Left, sels)
	right := fx.coster.Price(root.Right, sels)
	if got := testing.AllocsPerRun(50, func() { fx.coster.PriceStep(root, left, right, sels) }); got > 0 {
		t.Errorf("PriceStep allocates %.0f/call, want 0", got)
	}
}

// TestPriceSpecAllocFree pins PriceSpec at zero allocations and holds it
// to PriceStep's answer on every operator of every fixture plan, so the
// prepared path and the node path stay one kernel.
func TestPriceSpecAllocFree(t *testing.T) {
	fx := newFixture(t, Postgres())
	sels := DefaultSels(fx.q)
	for i, p := range fx.plans {
		p.Walk(func(n *plan.Node) {
			var left, right Summary
			if n.Left != nil {
				left = fx.coster.Price(n.Left, sels)
				left.Sort = fx.coster.SortCost(left)
			}
			if n.Right != nil {
				right = fx.coster.Price(n.Right, sels)
				right.Sort = fx.coster.SortCost(right)
			}
			spec := fx.coster.Prepare(n.Op, n.Relation, n.IndexColumn, n.Preds)
			want := fx.coster.PriceStep(n, left, right, sels)
			if got := fx.coster.PriceSpec(&spec, left, right, sels); got.Cost != want.Cost || got.Rows != want.Rows || got.Width != want.Width {
				t.Errorf("plan %d, %s: PriceSpec %+v, PriceStep %+v", i, n.Op, got, want)
			}
			if got := testing.AllocsPerRun(50, func() { fx.coster.PriceSpec(&spec, left, right, sels) }); got > 0 {
				t.Errorf("plan %d, %s: PriceSpec allocates %.0f/call, want 0", i, n.Op, got)
			}
		})
	}
}

func TestPriceAgreesWithDetail(t *testing.T) {
	fx := newFixture(t, Postgres())
	sels := DefaultSels(fx.q)
	for i, p := range fx.plans {
		sum := fx.coster.Price(p, sels)
		nc := fx.coster.Detail(p, sels)
		root := nc[len(nc)-1]
		if sum.Cost != root.TotalCost || sum.Rows != root.Rows || sum.Width != root.Width {
			t.Errorf("plan %d: Price %+v disagrees with Detail root %+v", i, sum, root)
		}
	}
}

// TestPricePlanAllocFree: a prepared plan prices exactly as its tree does,
// under the plain and the perturbed coster, and allocates nothing.
func TestPricePlanAllocFree(t *testing.T) {
	fx := newFixture(t, Postgres())
	sels := DefaultSels(fx.q)
	for _, c := range []*Coster{fx.coster, fx.coster.WithPerturbation(0.3, 7)} {
		for i, p := range fx.plans {
			pp := c.PreparePlan(p)
			if got, want := c.PricePlan(pp, sels), c.Price(p, sels); got != want {
				t.Errorf("plan %d (perturbed %t): PricePlan %+v, Price %+v", i, c.Perturbed(), got, want)
			}
		}
	}
	pp := fx.coster.PreparePlan(fx.plans[0])
	if got := testing.AllocsPerRun(50, func() { fx.coster.PricePlan(pp, sels) }); got > 0 {
		t.Errorf("PricePlan allocates %.0f/call, want 0", got)
	}
}

// TestPriceIntoAllocFree: PriceInto's summaries are Detail's, node by node
// in post-order, its last is Price's bit for bit, under the plain and the
// perturbed coster; with a warm buffer it allocates nothing.
func TestPriceIntoAllocFree(t *testing.T) {
	fx := newFixture(t, Postgres())
	sels := DefaultSels(fx.q)
	var buf []Summary
	for _, c := range []*Coster{fx.coster, fx.coster.WithPerturbation(0.3, 7)} {
		for i, p := range fx.plans {
			buf = c.PriceInto(p, sels, buf)
			det := c.Detail(p, sels)
			if len(buf) != len(det) {
				t.Fatalf("plan %d: PriceInto gave %d summaries for %d nodes", i, len(buf), len(det))
			}
			for j, nc := range det {
				if got := buf[j]; got.Rows != nc.Rows || got.Width != nc.Width || got.Cost != nc.TotalCost {
					t.Errorf("plan %d node %d (%s): PriceInto %+v, Detail %+v", i, j, nc.Node.Op, got, nc)
				}
			}
			if got, want := buf[len(buf)-1], c.Price(p, sels); got != want {
				t.Errorf("plan %d (perturbed %t): PriceInto root %+v, Price %+v", i, c.Perturbed(), got, want)
			}
		}
	}
	for i, p := range fx.plans {
		if got := testing.AllocsPerRun(50, func() { buf = fx.coster.PriceInto(p, sels, buf) }); got > 0 {
			t.Errorf("PriceInto(plan %d) allocates %.0f/call with a warm buffer, want 0", i, got)
		}
	}
}
