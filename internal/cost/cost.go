// Package cost implements the optimizer cost models: PCM-compliant
// (plan-cost-monotonic) analytic cost functions for every physical operator
// in internal/plan, parameterised so that two independent "engines" — a
// PostgreSQL-flavoured model and a commercial-flavoured model — can drive
// the same optimizer (paper §6.8 / Fig. 19).
//
// The central type is Coster, which prices a plan tree at an arbitrary
// selectivity assignment. This is the paper's "abstract plan costing"
// combined with "selectivity injection" (§4.2, §5.4): the two optimizer
// capabilities the entire bouquet construction rests on.
//
// Every cost term has a non-negative coefficient on a quantity that is
// monotonically non-decreasing in every predicate selectivity, so plan
// costs are monotone over the ESS — the PCM assumption of §2, enforced by
// property tests.
package cost

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/plan"
	"repro/internal/query"
)

// Params are the knobs of a cost model, in the spirit of PostgreSQL's
// cost GUCs.
type Params struct {
	// SeqPageCost is the cost of a sequential page read.
	SeqPageCost float64
	// RandomPageCost is the cost of a random page read.
	RandomPageCost float64
	// CPUTupleCost is the cost of emitting/processing one tuple.
	CPUTupleCost float64
	// CPUIndexTupleCost is the cost of one index-entry traversal.
	CPUIndexTupleCost float64
	// CPUOperatorCost is the cost of one predicate/operator evaluation.
	CPUOperatorCost float64
	// HashQualCost is the per-probe cost of a hash-table lookup.
	HashQualCost float64
	// SortCmpCost is the per-comparison cost of sorting.
	SortCmpCost float64
	// WorkMemBytes is the memory available to a hash or sort before it
	// spills to disk.
	WorkMemBytes float64
	// SpillPageCost is the cost of writing+reading one spilled page.
	SpillPageCost float64
}

// PostgresParams returns parameters mirroring PostgreSQL 8.4 defaults
// (seq_page_cost=1, random_page_cost=4, cpu_tuple_cost=0.01,
// cpu_index_tuple_cost=0.005, cpu_operator_cost=0.0025, work_mem=1MB).
func PostgresParams() Params {
	return Params{
		SeqPageCost:       1.0,
		RandomPageCost:    4.0,
		CPUTupleCost:      0.01,
		CPUIndexTupleCost: 0.005,
		CPUOperatorCost:   0.0025,
		HashQualCost:      0.005,
		SortCmpCost:       0.0025,
		WorkMemBytes:      1 << 20,
		SpillPageCost:     2.0,
	}
}

// CommercialParams returns an independently tuned parameter set standing in
// for the paper's commercial engine "COM": cheaper random I/O (SSD-oriented
// buffer pool assumptions), pricier CPU, larger work memory — which shifts
// every operator crossover point, exercising the claim that the bouquet
// results are not artifacts of one cost model.
func CommercialParams() Params {
	return Params{
		SeqPageCost:       1.0,
		RandomPageCost:    2.5,
		CPUTupleCost:      0.02,
		CPUIndexTupleCost: 0.004,
		CPUOperatorCost:   0.004,
		HashQualCost:      0.012,
		SortCmpCost:       0.002,
		WorkMemBytes:      8 << 20,
		SpillPageCost:     2.4,
	}
}

// Model is a named parameter set.
type Model struct {
	// Name identifies the model in reports ("postgres", "commercial").
	Name string
	// P are the cost parameters.
	P Params
}

// Postgres returns the PostgreSQL-flavoured model.
func Postgres() Model { return Model{Name: "postgres", P: PostgresParams()} }

// Commercial returns the commercial-flavoured model.
func Commercial() Model { return Model{Name: "commercial", P: CommercialParams()} }

// Selectivities assigns a selectivity to every predicate of a query,
// indexed by predicate ID.
type Selectivities []Sel

// Clone returns a copy.
func (s Selectivities) Clone() Selectivities {
	out := make(Selectivities, len(s))
	copy(out, s)
	return out
}

// DefaultSels returns the query's default selectivity assignment:
// every predicate at its DefaultSel.
func DefaultSels(q *query.Query) Selectivities {
	preds := q.Predicates()
	out := make(Selectivities, len(preds))
	for i, p := range preds {
		out[i] = Sel(p.DefaultSel)
	}
	return out
}

// Summary is the allocation-free costing result for a (sub)tree: the
// root's output cardinality and tuple width plus the tree's total cost.
// It is what the optimizer's DP memo carries per subset — everything an
// enclosing operator needs to price itself — without materializing the
// per-node breakdown Detail produces.
type Summary struct {
	// Rows is the estimated output cardinality.
	Rows Card
	// Width is the output tuple width in bytes.
	Width float64
	// Cost is the total cost of the (sub)tree.
	Cost Cost
}

// NodeCost carries the cost annotations of one plan node at one
// selectivity assignment.
type NodeCost struct {
	// Node is the annotated operator.
	Node *plan.Node
	// Rows is the estimated output cardinality.
	Rows Card
	// Width is the output tuple width in bytes.
	Width float64
	// SelfCost is the cost charged by this operator alone.
	SelfCost Cost
	// TotalCost is SelfCost plus the children's TotalCost.
	TotalCost Cost
}

// Coster prices plans for one query under one model. It is safe for
// concurrent use: all state is read-only after construction.
type Coster struct {
	q     *query.Query
	model Model

	// perturb, when non-nil, multiplies each node's SelfCost by a
	// node-specific factor; used to model bounded cost-model errors
	// (§3.4). It must return values in [1/(1+δ), 1+δ].
	perturb func(n *plan.Node) float64
}

// NewCoster returns a Coster for q under model.
func NewCoster(q *query.Query, model Model) *Coster {
	return &Coster{q: q, model: model}
}

// Query returns the query this Coster prices plans for.
func (c *Coster) Query() *query.Query { return c.q }

// Model returns the cost model in use.
func (c *Coster) Model() Model { return c.model }

// WithPerturbation returns a copy of c whose per-node costs are multiplied
// by a deterministic factor drawn from [1/(1+delta), 1+delta], keyed by the
// node's fingerprint and seed. This realises the paper's "bounded modeling
// errors" regime (§3.4): the estimated cost of any plan is within a δ error
// factor of its actual cost. Panics on a negative delta.
func (c *Coster) WithPerturbation(delta float64, seed uint64) *Coster {
	if delta < 0 {
		panic("cost: negative delta")
	}
	cp := *c
	cp.perturb = func(n *plan.Node) float64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|", seed)
		h.Write([]byte(n.Fingerprint())) //bouquet:allow errflow: hash.Hash.Write never returns an error
		// Map hash to u in [0,1), then to a log-uniform factor in
		// [1/(1+δ), 1+δ] so under- and over-estimation are symmetric.
		u := float64(h.Sum64()%1_000_003) / 1_000_003.0
		lo, hi := math.Log(1/(1+delta)), math.Log(1+delta)
		return math.Exp(lo + u*(hi-lo))
	}
	return &cp
}

// Cost returns the total cost of root at the given selectivities.
// Panics if the plan contains an operator the model does not price.
func (c *Coster) Cost(root *plan.Node, sels Selectivities) Cost {
	return c.Price(root, sels).Cost
}

// Rows returns the output cardinality of root at the given selectivities.
// Panics if the plan contains an operator the model does not price.
func (c *Coster) Rows(root *plan.Node, sels Selectivities) Card {
	return c.Price(root, sels).Rows
}

// Price is the allocation-free costing fast path: it returns the root
// summary (rows, width, total cost) of the tree at the given
// selectivities without materializing Detail's per-node slice. Use it in
// hot loops (the optimizer's DP, plan-diagram cost matrices); use Detail
// when the per-operator breakdown matters (explain output, diagnostics).
// Panics if the plan contains an operator the model does not price.
// Allocation-freedom is pinned by TestPriceAllocFree.
func (c *Coster) Price(root *plan.Node, sels Selectivities) Summary {
	var left, right Summary
	if root.Left != nil {
		left = c.Price(root.Left, sels)
	}
	if root.Right != nil {
		right = c.Price(root.Right, sels)
	}
	return c.PriceStep(root, left, right, sels)
}

// PriceStep prices the single operator n given the already-priced
// summaries of its children, returning n's summary. It is the O(1) kernel
// the optimizer's DP runs on: child summaries come from the memo, so a
// candidate join is priced without re-walking its subtree. Zero-value
// summaries stand in for absent children. Panics if n's operator is not
// priced by the model. Allocation-freedom is pinned by
// TestPriceStepAllocFree.
func (c *Coster) PriceStep(n *plan.Node, left, right Summary, sels Selectivities) Summary {
	self, rows, width := c.priceOne(n, left, right, sels)
	return Summary{Rows: rows, Width: width, Cost: self + left.Cost + right.Cost}
}

// OpSpec identifies a candidate operator for node-free pricing: the same
// fields a plan.Node carries, minus the children (whose summaries are
// passed separately) and without requiring the node to exist yet.
type OpSpec struct {
	Op          plan.Op
	Relation    string
	IndexColumn string
	Preds       []int
}

// PriceSpec prices the candidate operator described by spec from its
// children's summaries without materializing a plan.Node — the optimizer
// uses it to evaluate every losing candidate allocation-free and build
// nodes only for winners. It ignores the coster's perturbation (which
// keys on node fingerprints); callers must check Perturbed first and fall
// back to PriceStep on a real node. Panics if spec's operator is not
// priced by the model. Allocation-freedom is pinned by
// TestPriceSpecAllocFree.
func (c *Coster) PriceSpec(spec OpSpec, left, right Summary, sels Selectivities) Summary {
	self, rows, width := c.priceSpec(spec.Op, spec.Relation, spec.IndexColumn, spec.Preds, left, right, sels)
	return Summary{Rows: rows, Width: width, Cost: self + left.Cost + right.Cost}
}

// Perturbed reports whether the coster applies per-node cost perturbation
// (WithPerturbation), in which case node-free pricing via PriceSpec would
// diverge from PriceStep.
func (c *Coster) Perturbed() bool { return c.perturb != nil }

// Detail returns per-node cost annotations in post-order (children before
// parents); the last element is the root. Panics if the plan contains an
// operator the model does not price.
func (c *Coster) Detail(root *plan.Node, sels Selectivities) []NodeCost {
	var out []NodeCost
	c.detail(root, sels, &out)
	return out
}

func (c *Coster) detail(n *plan.Node, sels Selectivities, out *[]NodeCost) Summary {
	var left, right Summary
	if n.Left != nil {
		left = c.detail(n.Left, sels, out)
	}
	if n.Right != nil {
		right = c.detail(n.Right, sels, out)
	}
	self, rows, width := c.priceOne(n, left, right, sels)
	sum := Summary{Rows: rows, Width: width, Cost: self + left.Cost + right.Cost}
	*out = append(*out, NodeCost{Node: n, Rows: rows, Width: width, SelfCost: self, TotalCost: sum.Cost})
	return sum
}

// selOf returns the selectivity of predicate id under sels, falling back to
// the predicate default when sels is short (defensive; builders always pass
// full-length assignments). The bare float64 is what the operator pricing
// arithmetic below consumes.
func (c *Coster) selOf(id int, sels Selectivities) float64 {
	if id < len(sels) {
		return sels[id].F()
	}
	return c.q.Predicate(id).DefaultSel
}

// pagesFor converts a (rows, width) volume into page counts under the
// catalog page size.
func (c *Coster) pagesFor(rows, width float64) float64 {
	ps := float64(c.q.Catalog.PageSize)
	pages := rows * width / ps
	if pages < 1 {
		pages = 1
	}
	return pages
}

// priceOne prices a single operator node given its (already priced)
// children, applying the coster's perturbation (if any) on top of the
// spec-based kernel. It performs no heap allocation — the compile hot
// path's requirement.
func (c *Coster) priceOne(n *plan.Node, left, right Summary, sels Selectivities) (self Cost, outRows Card, outWidth float64) {
	self, outRows, outWidth = c.priceSpec(n.Op, n.Relation, n.IndexColumn, n.Preds, left, right, sels)
	if c.perturb != nil {
		// Perturbation is an opt-in diagnostic mode (WithPerturbation) and
		// may allocate; the steady-state coster has perturb == nil, the
		// path TestPriceAllocFree pins.
		self = self.Scale(Ratio(c.perturb(n)))
	}
	return self, outRows, outWidth
}

// priceSpec is the node-free operator pricing kernel: the operator's
// identity arrives as discrete fields rather than a *plan.Node, so the
// optimizer can price a candidate before deciding to materialize it. The
// pricing arithmetic runs on bare float64 (unwrapped once here); the
// results are wrapped back into their dimensions when returned.
func (c *Coster) priceSpec(op plan.Op, relation, indexColumn string, preds []int, left, right Summary, sels Selectivities) (self Cost, outRows Card, outWidth float64) {
	p := c.model.P
	leftRows, rightRows := left.Rows.F(), right.Rows.F()

	switch op {
	case plan.OpSeqScan:
		rel := c.q.Catalog.MustRelation(relation)
		card := float64(rel.Card)
		pages := float64(rel.Pages(c.q.Catalog.PageSize))
		rows := card
		for _, id := range preds {
			rows *= c.selOf(id, sels)
		}
		outRows = Card(rows)
		outWidth = float64(rel.TupleWidth)
		self = Cost(pages*p.SeqPageCost +
			card*p.CPUTupleCost +
			card*float64(len(preds))*p.CPUOperatorCost)

	case plan.OpIndexScan:
		rel := c.q.Catalog.MustRelation(relation)
		card := float64(rel.Card)
		// The driving predicate is the one on the indexed column;
		// remaining predicates are residual filters on fetched rows.
		drivingSel, residSel, residCount := 1.0, 1.0, 0
		for _, id := range preds {
			pr := c.q.Predicate(id)
			if pr.Left.Column == indexColumn && pr.Left.Relation == relation {
				drivingSel *= c.selOf(id, sels)
			} else {
				residSel *= c.selOf(id, sels)
				residCount++
			}
		}
		matched := card * drivingSel
		outRows = Card(matched * residSel)
		outWidth = float64(rel.TupleWidth)
		descent := math.Log2(card+1) * p.CPUIndexTupleCost
		idx := c.q.Catalog.Index(relation, indexColumn)
		var fetch float64
		if idx != nil && idx.Clustered {
			fetch = c.pagesFor(matched, float64(rel.TupleWidth)) * p.SeqPageCost
		} else {
			// One random heap page per matching row: the
			// uncapped form keeps the cost strictly monotone and
			// maximises the Cmax/Cmin gradient ("hard-nut"
			// environments, §6).
			fetch = matched * p.RandomPageCost
		}
		self = Cost(descent +
			matched*p.CPUIndexTupleCost +
			fetch +
			matched*float64(residCount)*p.CPUOperatorCost +
			matched*p.CPUTupleCost)

	case plan.OpIndexNLJoin:
		rel := c.q.Catalog.MustRelation(relation)
		innerCard := float64(rel.Card)
		// Partition preds: join predicates determine matches per
		// probe; selection predicates on the inner relation are
		// residual filters.
		joinSel, filterSel, filterCount := 1.0, 1.0, 0
		for _, id := range preds {
			pr := c.q.Predicate(id)
			if pr.Kind == query.Join {
				joinSel *= c.selOf(id, sels)
			} else {
				filterSel *= c.selOf(id, sels)
				filterCount++
			}
		}
		probes := leftRows
		matchesPerProbe := joinSel * innerCard
		matches := probes * matchesPerProbe
		outRows = Card(matches * filterSel)
		outWidth = left.Width + float64(rel.TupleWidth)
		descent := math.Log2(innerCard+1) * p.CPUIndexTupleCost
		idx := c.q.Catalog.Index(relation, indexColumn)
		perMatch := p.RandomPageCost
		if idx != nil && idx.Clustered {
			perMatch = p.SeqPageCost
		}
		self = Cost(probes*descent +
			matches*(p.CPUIndexTupleCost+perMatch) +
			matches*float64(filterCount)*p.CPUOperatorCost +
			outRows.F()*p.CPUTupleCost)

	case plan.OpHashJoin:
		joinSel := 1.0
		for _, id := range preds {
			joinSel *= c.selOf(id, sels)
		}
		outRows = Card(joinSel * leftRows * rightRows)
		outWidth = left.Width + right.Width
		build := rightRows * (p.CPUOperatorCost + p.CPUTupleCost)
		probe := leftRows * p.HashQualCost
		emit := outRows.F() * p.CPUTupleCost
		spill := 0.0
		if bytes := rightRows * right.Width; bytes > p.WorkMemBytes {
			// Multi-batch (Grace) hash join: both inputs are
			// written out and re-read once.
			spill = (c.pagesFor(leftRows, left.Width) +
				c.pagesFor(rightRows, right.Width)) * p.SpillPageCost
		}
		self = Cost(build + probe + emit + spill)

	case plan.OpMergeJoin:
		joinSel := 1.0
		for _, id := range preds {
			joinSel *= c.selOf(id, sels)
		}
		outRows = Card(joinSel * leftRows * rightRows)
		outWidth = left.Width + right.Width
		sortCost := c.sortCost(left) + c.sortCost(right)
		merge := (leftRows + rightRows) * p.CPUOperatorCost
		emit := outRows.F() * p.CPUTupleCost
		self = Cost(sortCost + merge + emit)

	case plan.OpAggregate:
		outRows = 1
		outWidth = 8
		self = Cost(leftRows*p.CPUOperatorCost + p.CPUTupleCost)

	case plan.OpGroupAggregate:
		// Hash aggregate: groups bounded by the column's distinct count
		// and the input cardinality (both bounds monotone).
		col := c.q.Catalog.MustRelation(relation).Column(indexColumn)
		groups := leftRows
		if col != nil && float64(col.DistinctCount) < groups {
			groups = float64(col.DistinctCount)
		}
		outRows = Card(groups)
		outWidth = 16
		self = Cost(leftRows*(p.CPUOperatorCost+p.HashQualCost) + groups*p.CPUTupleCost)

	case plan.OpAntiJoin:
		// NOT EXISTS: the predicate's selectivity is the outer pass
		// fraction (the §2 axis flip), so output — and hence cost —
		// is monotone increasing in the ESS value.
		rel := c.q.Catalog.MustRelation(relation)
		innerCard := float64(rel.Card)
		passFrac := c.selOf(preds[0], sels)
		outRows = Card(leftRows * passFrac)
		outWidth = left.Width
		build := innerCard * (p.CPUOperatorCost + p.CPUTupleCost)
		probe := leftRows * p.HashQualCost
		emit := outRows.F() * p.CPUTupleCost
		self = Cost(build + probe + emit)

	default:
		panic(fmt.Sprintf("cost: unknown operator %v", op))
	}
	return self, outRows, outWidth
}

// Explain renders the plan EXPLAIN-style: the indented operator tree with
// estimated rows, per-operator self cost and cumulative cost at the given
// selectivities — what the paper's abstract-plan-costing hook surfaces to a
// DBA inspecting a bouquet plan.
func (c *Coster) Explain(root *plan.Node, sels Selectivities) string {
	byNode := make(map[*plan.Node]NodeCost)
	for _, nc := range c.Detail(root, sels) {
		byNode[nc.Node] = nc
	}
	var sb strings.Builder
	var rec func(n *plan.Node, depth int)
	rec = func(n *plan.Node, depth int) {
		nc := byNode[n]
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Op.String())
		if n.Relation != "" {
			sb.WriteByte(' ')
			sb.WriteString(n.Relation)
			if n.IndexColumn != "" {
				fmt.Fprintf(&sb, "(%s)", n.IndexColumn)
			}
		}
		fmt.Fprintf(&sb, "  rows=%.0f self=%.4g total=%.4g", nc.Rows, nc.SelfCost, nc.TotalCost)
		if len(n.Preds) > 0 {
			fmt.Fprintf(&sb, " preds=%v", n.Preds)
		}
		sb.WriteByte('\n')
		if n.Left != nil {
			rec(n.Left, depth+1)
		}
		if n.Right != nil {
			rec(n.Right, depth+1)
		}
	}
	rec(root, 0)
	return sb.String()
}

// sortCost prices sorting one input of a merge join, including external
// sort spill passes when the input exceeds work memory.
func (c *Coster) sortCost(in Summary) float64 {
	p := c.model.P
	rows := in.Rows.F()
	if rows < 2 {
		return 0
	}
	cmp := rows * math.Log2(rows) * p.SortCmpCost
	bytes := rows * in.Width
	if bytes <= p.WorkMemBytes {
		return cmp
	}
	// External merge sort: one spill pass per merge level.
	pages := c.pagesFor(rows, in.Width)
	passes := math.Ceil(math.Log2(bytes/p.WorkMemBytes)) + 1
	if passes < 1 {
		passes = 1
	}
	return cmp + pages*passes*p.SpillPageCost
}
