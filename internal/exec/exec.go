package exec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/trace"
)

// ErrBudgetExceeded is returned when an execution exhausts its cost budget.
var ErrBudgetExceeded = errors.New("exec: cost budget exceeded")

// NodeStats are the instrumentation counters of one operator.
type NodeStats struct {
	// Out is the number of tuples the operator has emitted.
	Out int64
	// Matches, for join operators, counts tuples matching the join
	// predicates before any residual selection filters — the count used
	// for join-selectivity learning.
	Matches int64
	// PassBy, for scan operators, counts per selection predicate the
	// rows passing that predicate (evaluated independently, no
	// short-circuit), keyed by predicate ID.
	PassBy map[int]int64
	// InTuples counts tuples consumed from the outer/left input.
	InTuples int64
	// InputsDone reports whether the operator's inputs were fully
	// drained (precondition for exact selectivity learning).
	InputsDone bool
	// Done reports whether the operator itself ran to completion.
	Done bool
}

// Result is the outcome of one (possibly partial) plan execution.
type Result struct {
	// Completed reports whether the plan ran to completion within
	// budget.
	Completed bool
	// CostUsed is the total cost charged, in model units.
	CostUsed cost.Cost
	// RowsOut is the number of rows produced by the driven node (the
	// plan root, or the spill node in spill mode).
	RowsOut int64
	// Stats maps each plan node to its counters.
	Stats map[*plan.Node]*NodeStats
	// Batches is the number of column batches the vectorized engine
	// metered (0 for Volcano runs).
	Batches int64
	// Workers is the morsel worker count a vectorized run used (0 for
	// Volcano runs).
	Workers int
	// ReuseHits counts operator-state reuse-cache hits the execution
	// took (always 0 without Options.Reuse).
	ReuseHits int
	// SalvagedCost is the model cost the reuse hits charged without
	// re-executing the underlying work — the budget meter still saw it,
	// the hardware did not.
	SalvagedCost cost.Cost
}

// Engine executes plans for one query over one database.
type Engine struct {
	q        *query.Query
	db       *data.Database
	coster   *cost.Coster  // prices every charge (Coster.Rates)
	bindings map[int]int64 // selection predicate ID -> "col < bound" constant
	bindSig  string        // canonical bindings rendering, part of every reuse-cache key
}

// NewEngine builds an engine. bindings must supply the comparison constant
// for every selection predicate of the query (see Database.SelectionBound).
func NewEngine(q *query.Query, db *data.Database, model cost.Model, bindings map[int]int64) (*Engine, error) {
	for _, p := range q.Predicates() {
		if p.Kind == query.Selection {
			if _, ok := bindings[p.ID]; !ok {
				return nil, fmt.Errorf("exec: no binding for selection predicate %d (%s)", p.ID, p)
			}
		}
	}
	return &Engine{q: q, db: db, coster: cost.NewCoster(q, model), bindings: bindings, bindSig: bindingsSignature(q, bindings)}, nil
}

// bindingsSignature renders the selection constants in ascending
// predicate-ID order. Two engines with equal signatures over the same
// database materialize bit-identical operator state for equal-fingerprint
// subtrees, which is what makes reuse-cache keys sound.
func bindingsSignature(q *query.Query, bindings map[int]int64) string {
	sig := ""
	for _, p := range q.Predicates() {
		if p.Kind == query.Selection {
			sig += fmt.Sprintf("%d=%d;", p.ID, bindings[p.ID])
		}
	}
	return sig
}

// Run executes root under opts. It returns an error when the options are
// invalid (see Options.validate) or when the plan violates the engine's
// contract — unknown operators, a spill predicate the plan never applies,
// join nodes carrying selection predicates, or an index scan missing its
// index predicate. Exhausting the cost budget is not an error: the Result
// reports Completed=false, and what it reports as spent depends on the
// engine. The Volcano interpreter stops on the charge that crosses the
// budget: its CostUsed includes that charge (at most one tuple's worth over
// Budget) and its counters are those at the crossing. The vectorized
// engine commits work in epochs (see vector.go): its CostUsed is exactly
// Budget, and its counters are those of the last barrier that fit,
// identical at every worker count. Run records no trace spans; its caller
// reads the Result. Run panics only on internal schema-bookkeeping
// corruption — an engine bug, never a caller error.
func (e *Engine) Run(root *plan.Node, opts Options) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	budget := opts.Budget.F()
	if budget <= 0 {
		budget = math.Inf(1)
	}
	driven := root
	if opts.Spill {
		if driven = findPredNode(root, opts.SpillPred); driven == nil {
			return Result{}, fmt.Errorf("exec: plan does not apply predicate %d", opts.SpillPred)
		}
	}

	run := (*Engine).runVolcano
	if opts.Vectorized {
		run = (*Engine).runVectorized
	}
	res, err := run(e, driven, opts, budget)
	if err != nil && !errors.Is(err, ErrBudgetExceeded) {
		return res, err
	}
	res.RowsOut = res.Stats[driven].Out
	res.Completed = err == nil
	return res, nil
}

// runVolcano is Run's tuple-at-a-time implementation: build the iterator
// tree over driven and pull it dry, or until the meter trips.
func (e *Engine) runVolcano(driven *plan.Node, opts Options, budget float64) (Result, error) {
	m := &meter{budget: budget}
	res := Result{Stats: make(map[*plan.Node]*NodeStats)}
	b := &builder{e: e, shapes: e.shapes(driven, opts.Collect != nil), m: m, stats: res.Stats, reuse: opts.Reuse, tally: &reuseTally{}}
	it, _, err := b.build(driven)
	if err != nil {
		return Result{}, err
	}

	err = it.open()
	if err == nil {
		st := res.Stats[driven]
		for {
			r, ok, nerr := it.next()
			if nerr != nil {
				err = nerr
				break
			}
			if !ok {
				st.Done = true
				break
			}
			if opts.Collect != nil {
				opts.Collect(append([]int64(nil), r...))
			}
		}
	}
	it.close()

	res.CostUsed = cost.Cost(m.used)
	res.ReuseHits = b.tally.hits
	res.SalvagedCost = cost.Cost(b.tally.salvaged)
	return res, err
}

// TraceNodes surfaces one execution's per-operator counters as an ordered
// span payload: nodes appear in root's depth-first walk order, so the
// same plan always yields the same node sequence. Operators the execution
// never built — everything downstream of a spilled subtree (§5.3) — are
// marked Starved with zero counters.
func (res Result) TraceNodes(root *plan.Node) []trace.NodeStat {
	out := make([]trace.NodeStat, 0, root.NumNodes())
	root.Walk(func(n *plan.Node) {
		ns := trace.NodeStat{Op: n.Op.String(), Relation: n.Relation}
		st := res.Stats[n]
		if st == nil {
			ns.Starved = true
		} else {
			ns.Out, ns.In, ns.Matches, ns.Done = st.Out, st.InTuples, st.Matches, st.Done
			if len(st.PassBy) > 0 {
				ids := make([]int, 0, len(st.PassBy))
				for id := range st.PassBy {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				for _, id := range ids {
					ns.Pass = append(ns.Pass, trace.PredCount{Pred: id, Count: st.PassBy[id]})
				}
			}
		}
		out = append(out, ns)
	})
	return out
}

// MustRun is Run for callers holding plans from a compiled, validated
// bouquet, where a contract violation is a programming error rather than
// a runtime condition: it panics on any error Run reports and returns the
// Result otherwise.
func (e *Engine) MustRun(root *plan.Node, opts Options) Result {
	res, err := e.Run(root, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// findPredNode returns the node applying predicate id, preferring the
// deepest occurrence (predicates are applied exactly once in valid plans).
func findPredNode(root *plan.Node, id int) *plan.Node {
	var found *plan.Node
	root.Walk(func(n *plan.Node) {
		for _, p := range n.Preds {
			if p == id {
				found = n
			}
		}
	})
	return found
}

// meter accumulates cost charges against a budget.
type meter struct {
	used   float64
	budget float64
}

func (m *meter) charge(c float64) error {
	m.used += c
	if m.used > m.budget {
		return ErrBudgetExceeded
	}
	return nil
}

// fits reports whether a lump charge of c would stay within budget — the
// reuse-hit eligibility test. Charges are non-negative, so if the total
// fits, no prefix of the equivalent from-scratch charges could have
// tripped the meter either: taking the hit reproduces the from-scratch
// outcome exactly.
func (m *meter) fits(c float64) bool {
	return m.used+c <= m.budget
}

// row is an executed tuple: values aligned with a schema. A Volcano
// operator carves the rows it emits from its slab.
type row []int64

// slabRows is how many rows a Volcano operator's slab holds at most.
const slabRows = 256

// slab is the unused tail of one allocation a Volcano operator carves its
// output rows from, so the operator allocates once per slab, not once per
// tuple. A consumer that keeps rows (a merge join's sorted inputs) keeps
// their slabs alive; the hash join copies its build rows into its arena.
type slab []int64

// row carves a row of width values. left bounds the rows the operator can
// still emit, this one included: a fresh slab holds no more of them than
// that, or slabRows. The row's capacity is its length, so an append to it
// copies instead of writing into the next row.
func (s *slab) row(width, left int) row {
	if len(*s) < width {
		*s = make(slab, width*min(slabRows, left))
	}
	r := (*s)[:width:width]
	*s = (*s)[width:]
	return row(r)
}

// join carves a join's output row from a left and a right input row.
func (s *slab) join(l, r row, lOut, rOut []int) row {
	out := s.row(len(lOut)+len(rOut), slabRows)
	for i, o := range lOut {
		out[i] = l[o]
	}
	for i, o := range rOut {
		out[len(lOut)+i] = r[o]
	}
	return out
}

// schema names the columns of a row as (relation, column) pairs.
type schema []query.ColumnRef

// find returns c's offset in s, or -1.
func (s schema) find(c query.ColumnRef) int {
	for i, sc := range s {
		if sc == c {
			return i
		}
	}
	return -1
}

func (s schema) offset(c query.ColumnRef) int {
	if i := s.find(c); i >= 0 {
		return i
	}
	panic(fmt.Sprintf("exec: column %s not in schema", c))
}

// shape is one node's output in a run: the pruned schema — the columns the
// node's ancestors read, in the unpruned schema's order — and the width of
// the unpruned schema, which is what the cost model prices and so what
// every width-dependent charge (hash-join page rows and grace spill,
// merge-join sort spill) uses.
type shape struct {
	sch  schema
	full int
}

// need is the set of columns a node's ancestors read. all marks a run that
// collects rows: its root reads every column, so nothing is pruned.
type need struct {
	cols schema
	all  bool
}

func (nd need) has(c query.ColumnRef) bool { return nd.all || nd.cols.find(c) >= 0 }

// plus returns the set with the columns of the given predicates added.
func (nd need) plus(q *query.Query, preds []int) need {
	if nd.all {
		return nd
	}
	cols := slices.Clip(nd.cols)
	for _, id := range preds {
		p := q.Predicate(id)
		cols = append(cols, p.Left, p.Right)
	}
	return need{cols: cols}
}

// pick keeps the columns of sch that nd has, in sch's order.
func (nd need) pick(sch schema) schema {
	var out schema
	for _, c := range sch {
		if nd.has(c) {
			out = append(out, c)
		}
	}
	return out
}

// shapes computes, once per run, every node's output under driven: what
// its ancestors read of it. The root reads nothing, or every column when
// the run collects rows. A hash or merge join reads what its parent needs
// of each side plus that side's join keys; an index nested-loops join
// the same of its outer side (it reads inner columns straight from the
// table); an anti-join its parent's set plus the anti column; a group
// aggregate its group column; a scalar aggregate (COUNT(*)) nothing.
// Scans read their predicate columns straight from the table too. Both
// engines build their operators over these shapes, so what a run carries
// is a function of the plan and of whether the run collects rows alone.
func (e *Engine) shapes(driven *plan.Node, collect bool) map[*plan.Node]shape {
	out := make(map[*plan.Node]shape)
	e.shapeOf(driven, need{all: collect}, out)
	return out
}

func (e *Engine) shapeOf(n *plan.Node, nd need, out map[*plan.Node]shape) shape {
	var s shape
	switch n.Op {
	case plan.OpSeqScan, plan.OpIndexScan:
		rel := e.relSchema(n.Relation)
		s = shape{sch: nd.pick(rel), full: len(rel)}
	case plan.OpHashJoin, plan.OpMergeJoin:
		sides := nd.plus(e.q, n.Preds)
		l, r := e.shapeOf(n.Left, sides, out), e.shapeOf(n.Right, sides, out)
		s = shape{sch: append(nd.pick(l.sch), nd.pick(r.sch)...), full: l.full + r.full}
	case plan.OpIndexNLJoin:
		l := e.shapeOf(n.Left, nd.plus(e.q, n.Preds), out)
		rel := e.relSchema(n.Relation)
		s = shape{sch: append(nd.pick(l.sch), nd.pick(rel)...), full: l.full + len(rel)}
	case plan.OpAntiJoin:
		s = e.shapeOf(n.Left, nd.plus(e.q, n.Preds[:1]), out)
	case plan.OpAggregate:
		e.shapeOf(n.Left, need{}, out)
		s = shape{sch: schema{{Column: "count"}}, full: 1}
	case plan.OpGroupAggregate:
		group := query.ColumnRef{Relation: n.Relation, Column: n.IndexColumn}
		e.shapeOf(n.Left, need{cols: schema{group}}, out)
		s = shape{sch: schema{group, {Column: "count"}}, full: 2}
	}
	out[n] = s
	return s
}

// relSchema returns the unpruned schema of a base relation.
func (e *Engine) relSchema(relName string) schema {
	rel := e.q.Catalog.MustRelation(relName)
	s := make(schema, len(rel.Columns))
	for i, c := range rel.Columns {
		s[i] = query.ColumnRef{Relation: relName, Column: c.Name}
	}
	return s
}

// columns resolves sch's columns to table's vectors, once, when an
// operator is built. The vectors are int32; readers widen each value they
// read.
func columns(tbl *data.Table, sch schema) [][]int32 {
	cols := make([][]int32, len(sch))
	for i, c := range sch {
		cols[i] = tbl.Column(c.Column)
	}
	return cols
}

// split maps a join's output columns to their offsets in its two inputs'
// schemas: the output is the picked left columns, then the picked right.
func split(out, left, right schema) (l, r []int) {
	for _, c := range out {
		if i := left.find(c); i >= 0 {
			l = append(l, i)
		} else {
			r = append(r, right.offset(c))
		}
	}
	return l, r
}

// iterator is the Volcano operator interface.
type iterator interface {
	open() error
	next() (row, bool, error)
	close()
}

// builder assembles the iterator tree for a plan.
type builder struct {
	e      *Engine
	shapes map[*plan.Node]shape // the run's pruned outputs (Engine.shapes)
	m      *meter
	stats  map[*plan.Node]*NodeStats
	reuse  *ReuseCache // nil unless Options.Reuse is set
	tally  *reuseTally
}

func (b *builder) statsFor(n *plan.Node) *NodeStats {
	st := &NodeStats{PassBy: make(map[int]int64)}
	b.stats[n] = st
	return st
}

func (b *builder) build(n *plan.Node) (iterator, schema, error) {
	switch n.Op {
	case plan.OpSeqScan:
		return b.buildSeqScan(n)
	case plan.OpIndexScan:
		return b.buildIndexScan(n)
	case plan.OpIndexNLJoin:
		return b.buildIndexNL(n)
	case plan.OpHashJoin:
		return b.buildHashJoin(n)
	case plan.OpMergeJoin:
		return b.buildMergeJoin(n)
	case plan.OpAggregate:
		return b.buildAggregate(n)
	case plan.OpAntiJoin:
		return b.buildAntiJoin(n)
	case plan.OpGroupAggregate:
		return b.buildGroupAggregate(n)
	default:
		return nil, nil, fmt.Errorf("exec: unknown operator %v", n.Op)
	}
}

// predSplit partitions a node's predicate IDs into join and selection
// predicates.
func (b *builder) predSplit(ids []int) (joins, sels []int) {
	for _, id := range ids {
		if b.e.q.Predicate(id).Kind == query.Join {
			joins = append(joins, id)
		} else {
			sels = append(sels, id)
		}
	}
	return joins, sels
}
