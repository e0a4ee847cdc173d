package cost

import (
	"math"
	"testing"

	"repro/internal/plan"
)

// TestRatesPriceTheModel: where the model and the engines count the same
// events, the model's counts priced at Rates come to the model's own
// operator cost — bit for bit where price groups the terms alike, to
// rounding for the seq scan, whose CPU terms it groups differently.
func TestRatesPriceTheModel(t *testing.T) {
	for _, model := range []Model{Postgres(), Commercial()} {
		fx := newFixture(t, model)
		detail := fx.coster.Detail(plan.NewAggregate(fx.plans[0]), DefaultSels(fx.q))
		byNode := map[*plan.Node]NodeCost{}
		for _, nc := range detail {
			byNode[nc.Node] = nc
		}
		checked := map[plan.Op]bool{}
		for _, nc := range detail {
			n, r := nc.Node, fx.coster.Rates(nc.Node)
			var want float64
			switch n.Op {
			case plan.OpSeqScan:
				card := float64(fx.q.Catalog.MustRelation(n.Relation).Card)
				want = card*r.Row + math.Ceil(card/float64(r.PageRows))*r.Page
				if got := nc.SelfCost.F(); math.Abs(got-want) > 1e-12*want {
					t.Errorf("%s %v: model %v, rates %v", model.Name, n, got, want)
				}
				checked[n.Op] = true
				continue
			case plan.OpHashJoin:
				l, rt := byNode[n.Left], byNode[n.Right]
				if rt.Rows.F()*rt.Width > model.P.WorkMemBytes {
					continue // spill pages are counted differently
				}
				want = rt.Rows.F()*r.Build + l.Rows.F()*r.Probe + nc.Rows.F()*r.Out
			case plan.OpAggregate:
				want = byNode[n.Left].Rows.F()*r.Cmp + r.Out
			}
			if got := nc.SelfCost.F(); got != want {
				t.Errorf("%s %v: model %v, rates %v", model.Name, n, got, want)
			}
			checked[n.Op] = true
		}
		for _, op := range []plan.Op{plan.OpSeqScan, plan.OpHashJoin, plan.OpAggregate} {
			if !checked[op] {
				t.Errorf("%s: no %v checked", model.Name, op)
			}
		}
	}
}

// TestRatesHelpers pins the spill helpers both engines share.
func TestRatesHelpers(t *testing.T) {
	fx := newFixture(t, Postgres())
	r := fx.coster.Rates(fx.plans[0])
	if got, want := r.SpillPageRows(4), float64(fx.q.Catalog.PageSize)/32; got != want {
		t.Errorf("SpillPageRows(4) = %v, want %v", got, want)
	}
	fit := int(Postgres().P.WorkMemBytes / 32) // rows of 4 columns that just fit
	if r.OverWorkMem(fit, 4) || !r.OverWorkMem(fit+1, 4) {
		t.Errorf("OverWorkMem: %d rows fit and %d do not, want the reverse", fit, fit+1)
	}
	if cmp, spill := r.SortRow(fit, 4); cmp != math.Log2(float64(fit)+1)*Postgres().P.SortCmpCost || spill != 0 {
		t.Errorf("SortRow(%d) = %v, %v: want log2(i+1) comparisons and no spill", fit, cmp, spill)
	}
	if _, spill := r.SortRow(fit+1, 4); !(spill > 0) {
		t.Errorf("SortRow(%d) spill share %v, want > 0 past work memory", fit+1, spill)
	}
}
