package cost

import (
	"math"

	"repro/internal/plan"
)

// Rates are the prices, in model units, of the events one plan node's
// executor counts. Both engines in internal/exec charge every event at one
// of these prices and compute none of their own, so they charge in the
// model's units by construction, as §3.4's substitution argument assumes;
// price reads the same values wherever its arithmetic groups them alike.
//
// The prices agree, but four event counts still differ between the model
// and the engines:
//   - clustered index-scan fetch: the model charges a SeqPageCost per page
//     of matched rows, the engines one per row (in Fetch);
//   - sort: the model charges n·log₂n comparisons (SortCost), the engines
//     Σ log₂(i+1) (SortRow);
//   - hash spill: the model pages both inputs by their summary widths, the
//     engines size a column at 8 bytes (SpillPageRows) and add a probe-side
//     page every SpillPageRows+1 probe inputs;
//   - index NL inner filters: the model charges every filter on every
//     match, both engines stop at the first that fails.
type Rates struct {
	// Row and Page are a seq scan's prices per row and per page read, a
	// page every PageRows rows.
	Row, Page float64
	PageRows  int
	// Descent is one index descent. Fetch is what an index scan charges
	// per matched row (index entry, heap page, residual predicates, tuple),
	// Match what an index NL join charges per fetched inner row (entry and
	// page).
	Descent, Fetch, Match float64
	// Build and Probe are a hash or anti-join's prices per build row and
	// per probe; Group is a grouped aggregate's per input row.
	Build, Probe, Group float64
	// Cmp is one predicate or key comparison, Out one row emitted, and
	// SpillPage one page a hash join or a sort spills.
	Cmp, Out, SpillPage float64

	pageSize, workMem, sortCmp float64
}

// modelRates returns the rates that depend on the model alone.
func modelRates(p Params) Rates {
	return Rates{Build: p.CPUOperatorCost + p.CPUTupleCost, Probe: p.HashQualCost,
		Group: p.CPUOperatorCost + p.HashQualCost, Cmp: p.CPUOperatorCost, Out: p.CPUTupleCost,
		SpillPage: p.SpillPageCost, workMem: p.WorkMemBytes, sortCmp: p.SortCmpCost}
}

// Rates returns the prices n's executor charges; its index terms are the
// ones Prepare resolves. Panics if n names a relation outside the coster's
// query.
func (c *Coster) Rates(n *plan.Node) Rates {
	p, r := &c.model.P, c.rates
	r.pageSize = float64(c.q.Catalog.PageSize)
	switch n.Op {
	case plan.OpSeqScan:
		r.Row, r.Page = p.CPUTupleCost+float64(len(n.Preds))*p.CPUOperatorCost, p.SeqPageCost
		r.PageRows = max(1, int(c.q.Catalog.PageSize/c.relation(n.Relation).rel.TupleWidth))
	case plan.OpIndexScan, plan.OpIndexNLJoin:
		var rel relTerms
		c.terms(&rel, n.Op, n.Relation, n.IndexColumn, n.Preds)
		r.Descent, r.Match = rel.descent, rel.perMatch
		r.Fetch = rel.perMatch + float64(len(n.Preds)-1)*r.Cmp + r.Out
	}
	return r
}

// SpillPageRows is how many rows of width 8-byte columns fill one page.
func (r *Rates) SpillPageRows(width int) float64 { return r.pageSize / (8 * float64(width)) }

// OverWorkMem reports whether rows rows of width 8-byte columns outgrow
// work memory: whether a hash build or a sort of them spills.
func (r *Rates) OverWorkMem(rows, width int) bool { return float64(rows)*8*float64(width) > r.workMem }

// SortRow prices the i-th row (from 1) a sort of width-column rows takes
// in: cmp, its log₂(i+1) comparisons, and spill, once the rows outgrow
// work memory, its share of the current external-sort passes' page I/O.
func (r *Rates) SortRow(i, width int) (cmp, spill float64) {
	n, rowBytes := float64(i), 8*float64(width)
	cmp = math.Log2(n+1) * r.sortCmp
	if bytes := n * rowBytes; bytes > r.workMem {
		passes := math.Ceil(math.Log2(bytes/r.workMem)) + 1
		spill = passes * r.SpillPage / (r.pageSize / rowBytes)
	}
	return cmp, spill
}
