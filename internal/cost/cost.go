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
	"slices"
	"strings"

	"repro/internal/catalog"
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
	// Sort is what sorting this input for a merge join above it costs
	// (SortCost). PriceSpec reads a merge join's inputs' Sort, so the
	// optimizer's memo fills it once per entry; node pricing (Price,
	// PriceStep, Detail) computes it itself and never reads it.
	Sort float64
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
	// rates are the node-independent prices (modelRates): price and
	// Rates read them alike.
	rates Rates
	// rels is the query's relation table (newRelTable): what pricing a
	// node needs of its relation, resolved from the catalog once, so
	// that terms does no catalog lookup per node.
	rels []relInfo

	// perturb, when non-nil, multiplies each node's SelfCost by a
	// node-specific factor; used to model bounded cost-model errors
	// (§3.4). It must return values in [1/(1+δ), 1+δ].
	perturb func(n *plan.Node) float64
}

// NewCoster returns a Coster for q under model. It resolves q's relations
// and their indexes from q.Catalog now: relations or indexes added to the
// catalog afterwards are not seen. Panics if q names a relation its
// catalog lacks.
func NewCoster(q *query.Query, model Model) *Coster {
	return &Coster{q: q, model: model, rates: modelRates(model.P), rels: newRelTable(q, &model.P)}
}

// relInfo is what pricing needs of one relation of the query, beyond the
// plan node: its statistics and the index terms that do not depend on the
// operator.
type relInfo struct {
	name string
	rel  *catalog.Relation
	// card, width and pages are the relation's cardinality, tuple width
	// and heap pages as float64.
	card, width, pages float64
	// descent is one index descent's cost, log2(card+1)·CPUIndexTupleCost.
	descent float64
	// clustered lists the columns whose index is clustered.
	clustered []string
}

// newRelTable resolves every relation of q from its catalog, in FROM-list
// order.
func newRelTable(q *query.Query, p *Params) []relInfo {
	names := q.Relations()
	rels := make([]relInfo, len(names))
	for i, name := range names {
		r := q.Catalog.MustRelation(name)
		card := float64(r.Card)
		ri := relInfo{
			name:    name,
			rel:     r,
			card:    card,
			width:   float64(r.TupleWidth),
			pages:   float64(r.Pages(q.Catalog.PageSize)),
			descent: math.Log2(card+1) * p.CPUIndexTupleCost,
		}
		for _, col := range r.Columns {
			if idx := q.Catalog.Index(name, col.Name); idx != nil && idx.Clustered {
				ri.clustered = append(ri.clustered, col.Name)
			}
		}
		rels[i] = ri
	}
	return rels
}

// relation returns the table entry of the named relation. Panics on a
// relation outside the query.
func (c *Coster) relation(name string) *relInfo {
	for i := range c.rels {
		if c.rels[i].name == name {
			return &c.rels[i]
		}
	}
	panic(fmt.Sprintf("cost: relation %s is not in query %s", name, c.q.Name))
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

// PriceInto prices root as Price does, bit for bit, and returns every
// node's summary in post-order (children before parents; the root last),
// appended to buf[:0]. A caller that keeps the returned slice and passes it
// back as buf reuses it: once it has grown to the largest plan priced,
// PriceInto allocates nothing, as pinned by TestPriceIntoAllocFree.
func (c *Coster) PriceInto(root *plan.Node, sels Selectivities, buf []Summary) []Summary {
	buf = buf[:0]
	c.priceInto(root, sels, &buf)
	return buf
}

func (c *Coster) priceInto(n *plan.Node, sels Selectivities, out *[]Summary) Summary {
	var left, right Summary
	if n.Left != nil {
		left = c.priceInto(n.Left, sels, out)
	}
	if n.Right != nil {
		right = c.priceInto(n.Right, sels, out)
	}
	sum := c.PriceStep(n, left, right, sels)
	*out = append(*out, sum)
	return sum
}

// PriceStep prices the single operator n given the already-priced
// summaries of its children, returning n's summary: it prepares n on the
// stack and runs PriceSpec's kernel, then applies the coster's
// perturbation, if any. Zero-value summaries stand in for absent
// children. Panics if n's operator is not priced by the model.
// Allocation-freedom is pinned by TestPriceStepAllocFree.
func (c *Coster) PriceStep(n *plan.Node, left, right Summary, sels Selectivities) Summary {
	self, rows, width := c.priceOne(n, left, right, sels)
	return Summary{Rows: rows, Width: width, Cost: self + left.Cost + right.Cost}
}

// Spec is a candidate operator prepared for pricing: its operator and
// predicates, and everything its price needs that no selectivity changes —
// the relation's cardinality and width, the index descent, whether the
// index is clustered, which predicates drive and which filter, the
// anti-join's build — resolved once, so pricing it does no catalog or
// predicate lookup. The optimizer prepares every candidate of its DP
// skeleton; PriceStep prepares a plan node on the fly. A Spec is read-only
// once prepared.
type Spec struct {
	op    plan.Op
	preds []int
	// rel holds the terms of an operator that reads a relation (or, for
	// a group aggregate, a column); nil for the joins and the scalar
	// aggregate, whose price needs nothing but their inputs and preds.
	rel *relTerms
}

// relTerms are a Spec's relation and its selectivity-independent terms.
type relTerms struct {
	// relation and indexColumn name what the operator reads, as its plan
	// node does.
	relation, indexColumn string
	// on and off split an index scan's predicates into the driving and
	// the residual ones, and an index NL join's into the join predicates
	// and the inner's residual filters, each in predicate order.
	on, off []int
	// card and width describe the relation; for a group aggregate card
	// is the grouping column's distinct count, the cap on its output
	// (+Inf for an unknown column).
	card, width float64
	// descent is one index descent's cost; perMatch is an index
	// operator's cost per fetched row, its index entry and heap page (an
	// index NL join's price per match); fixed is the selectivity-independent
	// part of the operator's own cost: a sequential scan's whole cost, an
	// anti-join's build.
	descent, perMatch, fixed float64
	clustered                bool
}

// Op returns the prepared operator.
func (s *Spec) Op() plan.Op { return s.op }

// Preds returns the prepared operator's predicates, as given to Prepare.
func (s *Spec) Preds() []int { return s.preds }

// Relation returns the relation the prepared operator names, as given to
// Prepare ("" for the joins and the scalar aggregate).
func (s *Spec) Relation() string {
	if s.rel == nil {
		return ""
	}
	return s.rel.relation
}

// IndexColumn returns the column the prepared operator names, as given to
// Prepare ("" for the joins and the scalar aggregate).
func (s *Spec) IndexColumn() string {
	if s.rel == nil {
		return ""
	}
	return s.rel.indexColumn
}

// Prepare resolves the selectivity-independent terms of the candidate
// operator (op, relation, indexColumn, preds) — the identity a plan.Node
// carries, minus its children. preds is referenced, not copied. Panics if
// relation is unknown to an operator that reads one.
func (c *Coster) Prepare(op plan.Op, relation, indexColumn string, preds []int) Spec {
	s := Spec{op: op, preds: preds}
	if readsRelation(op) {
		rel := &relTerms{relation: relation, indexColumn: indexColumn}
		c.terms(rel, op, relation, indexColumn, preds)
		if splitsPreds(op) {
			rel.on, rel.off = c.split(op, relation, indexColumn, preds, make([]int, 0, len(preds)), make([]int, 0, len(preds)))
		}
		s.rel = rel
	}
	return s
}

// readsRelation reports whether op's price needs relTerms: all but the
// joins and the scalar aggregate, whose price needs nothing but their
// inputs and predicates.
func readsRelation(op plan.Op) bool {
	return op != plan.OpHashJoin && op != plan.OpMergeJoin && op != plan.OpAggregate
}

// splitsPreds reports whether op's predicates split into driving and
// residual ones: the index scan's and the index NL join's.
func splitsPreds(op plan.Op) bool {
	return op == plan.OpIndexScan || op == plan.OpIndexNLJoin
}

// PriceSpec prices a prepared candidate from its children's summaries,
// without a plan.Node: the optimizer prices every candidate this way and
// builds nodes only for winners. A merge join reads its inputs' Sort. It
// ignores the coster's perturbation (which keys on node fingerprints), so
// optimizer.New refuses a perturbed coster.
// Panics if the operator is not priced by the model. Allocation-freedom is
// pinned by TestPriceSpecAllocFree.
func (c *Coster) PriceSpec(s *Spec, left, right Summary, sels Selectivities) Summary {
	self, rows, width := c.price(s, &left, &right, sels)
	return Summary{Rows: rows, Width: width, Cost: self + left.Cost + right.Cost}
}

// Perturbed reports whether the coster applies per-node cost perturbation
// (WithPerturbation), which node-free pricing via PriceSpec cannot honour.
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
// children: it prepares the node into a stack Spec, sorts a merge join's
// inputs, runs the kernel, and applies the coster's perturbation (if
// any). It performs no heap allocation — the compile hot path's
// requirement.
func (c *Coster) priceOne(n *plan.Node, left, right Summary, sels Selectivities) (self Cost, outRows Card, outWidth float64) {
	s := Spec{op: n.Op, preds: n.Preds}
	if readsRelation(n.Op) {
		var rel relTerms
		c.terms(&rel, n.Op, n.Relation, n.IndexColumn, n.Preds)
		if splitsPreds(n.Op) {
			var on, off [8]int
			rel.on, rel.off = c.split(n.Op, n.Relation, n.IndexColumn, n.Preds, on[:0], off[:0])
		}
		s.rel = &rel
	}
	return c.priceNode(&s, n, left, right, sels)
}

// priceNode prices node n, prepared as s: it sorts a merge join's inputs,
// runs the kernel, and applies the coster's perturbation, if any.
func (c *Coster) priceNode(s *Spec, n *plan.Node, left, right Summary, sels Selectivities) (self Cost, outRows Card, outWidth float64) {
	if s.op == plan.OpMergeJoin {
		left.Sort, right.Sort = c.SortCost(left), c.SortCost(right)
	}
	self, outRows, outWidth = c.price(s, &left, &right, sels)
	if c.perturb != nil {
		// Perturbation is an opt-in diagnostic mode (WithPerturbation) and
		// may allocate; the steady-state coster has perturb == nil, the
		// path TestPriceAllocFree pins.
		self = self.Scale(Ratio(c.perturb(n)))
	}
	return self, outRows, outWidth
}

// PreparedPlan is a plan tree prepared for pricing at many selectivity
// assignments — a row of a plan-cost matrix: every operator's Spec is
// resolved once, so pricing walks no plan.Node and looks nothing up.
type PreparedPlan struct {
	// steps are the operators in post-order (children first, the root
	// last), each with its children's positions.
	steps []planStep
}

type planStep struct {
	spec Spec
	// node is the operator itself, which a perturbed coster keys on.
	node *plan.Node
	// left and right are the children's steps, -1 for none.
	left, right int
}

// PreparePlan prepares root for PricePlan. Panics if the plan names a
// relation the catalog lacks or an operator the model does not price.
func (c *Coster) PreparePlan(root *plan.Node) *PreparedPlan {
	pp := &PreparedPlan{}
	c.preparePlan(pp, root)
	return pp
}

func (c *Coster) preparePlan(pp *PreparedPlan, n *plan.Node) int {
	st := planStep{node: n, left: -1, right: -1}
	if n.Left != nil {
		st.left = c.preparePlan(pp, n.Left)
	}
	if n.Right != nil {
		st.right = c.preparePlan(pp, n.Right)
	}
	st.spec = c.Prepare(n.Op, n.Relation, n.IndexColumn, n.Preds)
	pp.steps = append(pp.steps, st)
	return len(pp.steps) - 1
}

// PricePlan returns the prepared plan's summary at sels: Price(root,
// sels), bit for bit. Panics if the plan holds an operator the model does
// not price (PreparePlan panics first). Allocation-freedom is pinned by
// TestPricePlanAllocFree.
func (c *Coster) PricePlan(pp *PreparedPlan, sels Selectivities) Summary {
	return c.priceStep(pp, len(pp.steps)-1, sels)
}

func (c *Coster) priceStep(pp *PreparedPlan, i int, sels Selectivities) Summary {
	st := &pp.steps[i]
	var left, right Summary
	if st.left >= 0 {
		left = c.priceStep(pp, st.left, sels)
	}
	if st.right >= 0 {
		right = c.priceStep(pp, st.right, sels)
	}
	self, rows, width := c.priceNode(&st.spec, st.node, left, right, sels)
	return Summary{Rows: rows, Width: width, Cost: self + left.Cost + right.Cost}
}

// terms fills rel with the selectivity-independent terms of an operator
// that reads a relation, all but its identity and its predicate split
// (split's job), from the coster's relation table. Panics on an operator
// the model does not price.
func (c *Coster) terms(rel *relTerms, op plan.Op, relation, indexColumn string, preds []int) {
	p := &c.model.P
	switch op {
	case plan.OpGroupAggregate:
		rel.card = math.Inf(1)
		if col := c.relation(relation).rel.Column(indexColumn); col != nil {
			rel.card = float64(col.DistinctCount)
		}
		return
	case plan.OpSeqScan, plan.OpIndexScan, plan.OpIndexNLJoin, plan.OpAntiJoin:
	default:
		panic(fmt.Sprintf("cost: unknown operator %v", op))
	}

	r := c.relation(relation)
	rel.card = r.card
	rel.width = r.width
	switch op {
	case plan.OpSeqScan:
		rel.fixed = r.pages*p.SeqPageCost +
			rel.card*p.CPUTupleCost +
			rel.card*float64(len(preds))*p.CPUOperatorCost

	case plan.OpIndexScan, plan.OpIndexNLJoin:
		rel.clustered = slices.Contains(r.clustered, indexColumn)
		rel.descent = r.descent
		page := p.RandomPageCost
		if rel.clustered {
			page = p.SeqPageCost
		}
		rel.perMatch = p.CPUIndexTupleCost + page

	case plan.OpAntiJoin:
		rel.fixed = rel.card * c.rates.Build
	}
}

// split partitions an index operator's preds, in predicate order, into
// on (appended to onBuf) and off (appended to offBuf). For an index scan
// the driving predicate — the one on the indexed column — is on and the
// rest are residual filters on fetched rows; for an index NL join the join
// predicates, which determine matches per probe, are on and the inner
// relation's selections are residual filters.
func (c *Coster) split(op plan.Op, relation, indexColumn string, preds, onBuf, offBuf []int) (on, off []int) {
	on, off = onBuf, offBuf
	for _, id := range preds {
		pr := c.q.Predicate(id)
		isOn := pr.Kind == query.Join
		if op == plan.OpIndexScan {
			isOn = pr.Left.Column == indexColumn && pr.Left.Relation == relation
		}
		if isOn {
			on = append(on, id)
		} else {
			off = append(off, id)
		}
	}
	return on, off
}

// selProduct multiplies the selectivities of ids under sels, in order.
func (c *Coster) selProduct(ids []int, sels Selectivities) float64 {
	f := 1.0
	for _, id := range ids {
		f *= c.selOf(id, sels)
	}
	return f
}

// price is the one operator pricing kernel, over a prepared Spec. The
// arithmetic runs on bare float64 (unwrapped once here); the results are
// wrapped back into their dimensions when returned.
func (c *Coster) price(s *Spec, left, right *Summary, sels Selectivities) (self Cost, outRows Card, outWidth float64) {
	p, r := &c.model.P, &c.rates
	leftRows, rightRows := left.Rows.F(), right.Rows.F()
	rel := s.rel

	switch s.op {
	case plan.OpSeqScan:
		rows := rel.card
		for _, id := range s.preds {
			rows *= c.selOf(id, sels)
		}
		outRows = Card(rows)
		outWidth = rel.width
		self = Cost(rel.fixed)

	case plan.OpIndexScan:
		drivingSel, residSel := c.selProduct(rel.on, sels), c.selProduct(rel.off, sels)
		matched := rel.card * drivingSel
		outRows = Card(matched * residSel)
		outWidth = rel.width
		var fetch float64
		if rel.clustered {
			fetch = c.pagesFor(matched, rel.width) * p.SeqPageCost
		} else {
			// One random heap page per matching row: the uncapped form
			// keeps the cost strictly monotone and maximises the
			// Cmax/Cmin gradient ("hard-nut" environments, §6).
			fetch = matched * p.RandomPageCost
		}
		self = Cost(rel.descent +
			matched*p.CPUIndexTupleCost +
			fetch +
			matched*float64(len(rel.off))*r.Cmp +
			matched*r.Out)

	case plan.OpIndexNLJoin:
		joinSel, filterSel := c.selProduct(rel.on, sels), c.selProduct(rel.off, sels)
		probes := leftRows
		matchesPerProbe := joinSel * rel.card
		matches := probes * matchesPerProbe
		outRows = Card(matches * filterSel)
		outWidth = left.Width + rel.width
		self = Cost(probes*rel.descent +
			matches*rel.perMatch +
			matches*float64(len(rel.off))*r.Cmp +
			outRows.F()*r.Out)

	case plan.OpHashJoin:
		joinSel := c.selProduct(s.preds, sels)
		outRows = Card(joinSel * leftRows * rightRows)
		outWidth = left.Width + right.Width
		build := rightRows * r.Build
		probe := leftRows * r.Probe
		emit := outRows.F() * r.Out
		spill := 0.0
		if bytes := rightRows * right.Width; bytes > p.WorkMemBytes {
			// Multi-batch (Grace) hash join: both inputs are
			// written out and re-read once.
			spill = (c.pagesFor(leftRows, left.Width) +
				c.pagesFor(rightRows, right.Width)) * r.SpillPage
		}
		self = Cost(build + probe + emit + spill)

	case plan.OpMergeJoin:
		joinSel := c.selProduct(s.preds, sels)
		outRows = Card(joinSel * leftRows * rightRows)
		outWidth = left.Width + right.Width
		sortCost := left.Sort + right.Sort
		merge := (leftRows + rightRows) * r.Cmp
		emit := outRows.F() * r.Out
		self = Cost(sortCost + merge + emit)

	case plan.OpAggregate:
		outRows = 1
		outWidth = 8
		self = Cost(leftRows*r.Cmp + r.Out)

	case plan.OpGroupAggregate:
		// Hash aggregate: groups bounded by the column's distinct count
		// and the input cardinality (both bounds monotone).
		groups := leftRows
		if rel.card < groups {
			groups = rel.card
		}
		outRows = Card(groups)
		outWidth = 16
		self = Cost(leftRows*r.Group + groups*r.Out)

	case plan.OpAntiJoin:
		// NOT EXISTS: the predicate's selectivity is the outer pass
		// fraction (the §2 axis flip), so output — and hence cost —
		// is monotone increasing in the ESS value.
		passFrac := c.selOf(s.preds[0], sels)
		outRows = Card(leftRows * passFrac)
		outWidth = left.Width
		build := rel.fixed
		probe := leftRows * r.Probe
		emit := outRows.F() * r.Out
		self = Cost(build + probe + emit)

	default:
		panic(fmt.Sprintf("cost: unknown operator %v", s.op))
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

// SortCost prices sorting one input of a merge join, including external
// sort spill passes when the input exceeds work memory. It is what
// Summary.Sort carries.
func (c *Coster) SortCost(in Summary) float64 {
	p := &c.model.P
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
