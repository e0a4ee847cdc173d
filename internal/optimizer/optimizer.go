// Package optimizer implements a System-R style cost-based query optimizer:
// dynamic programming over connected relation subsets, with access-path and
// physical-join-operator selection driven by the cost model.
//
// Its defining capability for the bouquet technique is selectivity
// injection (§4.2): Optimize takes an explicit selectivity assignment and
// returns the plan that is optimal *at that assignment*. Repeated calls
// across the ESS grid produce the parametric optimal set of plans (POSP).
//
// The optimizer deliberately mirrors a conventional engine: it picks the
// single cheapest plan per subset and breaks ties deterministically, so the
// same inputs always yield the same plan (a prerequisite for the paper's
// repeatability claim).
//
// Because bouquet compilation issues one Optimize call per ESS grid
// location — tens of thousands for high-resolution or 5-D spaces — the
// per-call cost is the paper's §6.1 overhead axis. Everything about the
// join order search that does not depend on the injected selectivities is
// therefore hoisted into a one-time DP skeleton at construction: the
// connected subset masks in DP order, the valid (left, right) splits per
// mask, and every candidate operator with its price prepared (cost.Spec:
// cardinalities, widths, index descents and predicate splits resolved).
// Optimize itself only prices candidates over memoized child summaries and
// records each mask's winner as a candidate plus child masks; plan nodes
// are materialized only for the final plan (and for an exact-cost tie),
// and are hash-consed per Optimizer, so a plan the POSP already holds
// comes back as the same pointer and a steady-state call allocates
// nothing.
package optimizer

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
)

// totalCalls accumulates Optimize invocations across every Optimizer
// instance in the process. Servers export it as operational telemetry
// (compile-time overhead is the paper's §6.1 cost axis); per-instance
// counts remain available via Calls.
var totalCalls atomic.Int64

// TotalCalls returns the process-wide number of Optimize invocations,
// summed over all Optimizer instances ever constructed. It is monotone
// (never reset by ResetCalls) and safe for concurrent use.
func TotalCalls() int64 { return totalCalls.Load() }

// Optimizer enumerates plans for one query under one Coster. It is safe
// for concurrent use: the skeleton is read-only after New, per-call memo
// state comes from a pooled arena, interned nodes are found by atomic
// loads and added under one lock, and tie fingerprints are memoized in a
// sync.Map.
type Optimizer struct {
	q      *query.Query
	coster *cost.Coster

	rels    []string       // relation names, index = bit position
	relBit  map[string]int // name -> bit position
	adj     []uint64       // adjacency bitmask per relation
	selPred [][]int        // selection predicate IDs per relation

	// DP skeleton — everything the join search knows before seeing a
	// single selectivity (computed once in New).
	access [][]cand       // per relation: candidate access paths
	leaves [][]*plan.Node // per relation: each access path's one node
	masks  []maskPlan     // connected ≥2-relation masks, ascending
	full   uint64         // mask covering every relation
	// top is the aggregate or group aggregate over the full join, or nil
	// for a query without one; topSplit feeds it the full join.
	top      *cand
	topSplit split

	// interning serializes additions to the candidates' node tables.
	interning sync.Mutex

	// tieFPs memoizes, by node, the fingerprints exact-cost ties compare
	// (tieFingerprint).
	tieFPs sync.Map

	calls atomic.Int64
}

// maskPlan is one connected relation subset with its precomputed valid
// splits, in the DP's deterministic enumeration order.
type maskPlan struct {
	mask   uint64
	splits []split
}

// split is one ordered (left = probe/outer, right = build/inner) partition
// of a mask into two connected halves joined by at least one predicate,
// with the candidate operators that join them in enumeration (tie-break)
// order: a lone hash anti-join for an anti-join split; otherwise a hash
// join, a merge join, and an index nested-loops join per indexed inner
// join column when the right half is one base relation.
type split struct {
	left, right uint64
	cands       []cand
}

// cand is one candidate operator of the skeleton: its prepared price,
// which carries its identity (operator, relation, column, predicates), and
// the plan nodes it has become. Predicate slices are pre-sorted and shared
// by every node built from the candidate; plan nodes are immutable, so
// sharing is safe.
type cand struct {
	spec cost.Spec
	// nodes hash-conses the nodes a join candidate becomes, keyed by
	// their children: within one Optimizer, equal subplans are one
	// pointer (pinned by TestInternedPlansShared).
	nodes nodeTable
}

// binary reports whether the candidate joins both halves of its split;
// the other joins read the left half and name their inner relation.
func (c *cand) binary() bool {
	op := c.spec.Op()
	return op == plan.OpHashJoin || op == plan.OpMergeJoin
}

// candSpec is a candidate's identity before it is prepared.
type candSpec struct {
	op       plan.Op
	rel, col string
	preds    []int
}

// cands prepares candidates in place, one allocation for all of them.
// Candidates that read a relation are prepared once per identity: the
// index NL join into one inner on one predicate set recurs in every split
// whose right half is that inner, and all of them share one Spec (memo).
func (o *Optimizer) cands(specs []candSpec, memo map[candKey]cost.Spec) []cand {
	out := make([]cand, len(specs))
	for i, s := range specs {
		if s.rel == "" {
			out[i].spec = o.coster.Prepare(s.op, s.rel, s.col, s.preds)
			continue
		}
		k := candKey{op: s.op, rel: s.rel, col: s.col, preds: predsKey(s.preds)}
		spec, ok := memo[k]
		if !ok {
			spec = o.coster.Prepare(s.op, s.rel, s.col, s.preds)
			memo[k] = spec
		}
		out[i].spec = spec
	}
	return out
}

// candKey is a candidate's identity as a map key.
type candKey struct {
	op       plan.Op
	rel, col string
	preds    string
}

// predsKey renders predicate IDs as a map key.
func predsKey(preds []int) string {
	var b []byte
	for _, id := range preds {
		b = strconv.AppendInt(append(b, ','), int64(id), 10)
	}
	return string(b)
}

// intern returns candidate c's node over the given children (a join's or
// the aggregate's; an access path's node is its leaf), building it on
// first use.
func (o *Optimizer) intern(c *cand, left, right *plan.Node) *plan.Node {
	h := maphash.Comparable(internSeed, [2]*plan.Node{left, right})
	if n := c.nodes.find(h, left, right); n != nil {
		return n
	}
	o.interning.Lock()
	defer o.interning.Unlock()
	if n := c.nodes.find(h, left, right); n != nil {
		return n
	}
	n := &plan.Node{
		Op: c.spec.Op(), Relation: c.spec.Relation(), IndexColumn: c.spec.IndexColumn(),
		Preds: c.spec.Preds(), Left: left, Right: right,
	}
	c.nodes.add(h, n)
	return n
}

// internSeed seeds the hash of a node's children.
var internSeed = maphash.MakeSeed()

// nodeTable is one candidate's set of interned nodes: an open-addressing
// hash table of node pointers whose keys are the nodes' own children. A
// lookup is atomic loads only, so the workers of a POSP generation share
// the table without writing to it; an addition, made under the
// optimizer's lock, publishes a copy twice the size once the table is half
// full. Nodes are never removed, so a reader holding an older copy can
// only miss, and a miss re-checks under the lock.
type nodeTable struct {
	p atomic.Pointer[nodeSlots]
}

type nodeSlots struct {
	count int // nodes stored; guarded by the optimizer's lock
	slots []atomic.Pointer[plan.Node]
}

// find returns the node over (left, right), hashing to h, or nil.
func (t *nodeTable) find(h uint64, left, right *plan.Node) *plan.Node {
	s := t.p.Load()
	if s == nil {
		return nil
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		n := s.slots[i].Load()
		if n == nil || n.Left == left && n.Right == right {
			return n
		}
	}
}

// add stores n, hashing to h; the caller holds the optimizer's lock.
func (t *nodeTable) add(h uint64, n *plan.Node) {
	s := t.p.Load()
	if s == nil || 2*(s.count+1) > len(s.slots) {
		size := 2
		if s != nil {
			size = 2 * len(s.slots)
		}
		grown := &nodeSlots{slots: make([]atomic.Pointer[plan.Node], size)}
		if s != nil {
			for i := range s.slots {
				if m := s.slots[i].Load(); m != nil {
					grown.place(maphash.Comparable(internSeed, [2]*plan.Node{m.Left, m.Right}), m)
				}
			}
		}
		t.p.Store(grown)
		s = grown
	}
	s.place(h, n)
}

// place stores n in the first empty slot from h's home slot.
func (s *nodeSlots) place(h uint64, n *plan.Node) {
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for s.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	s.slots[i].Store(n)
	s.count++
}

// New builds an optimizer for coster's query, precomputing the
// selectivity-independent DP skeleton. It panics if the query has more
// than 64 relations (bitmask representation), or if coster is perturbed
// (Coster.WithPerturbation): the DP prices candidates without plan nodes,
// which a perturbation keyed on node fingerprints cannot see. §3.4's δ runs
// perturb only the costs a bouquet is charged (core's SetActualCoster),
// never the optimizer's.
func New(coster *cost.Coster) *Optimizer {
	q := coster.Query()
	rels := q.Relations()
	if len(rels) > 64 {
		panic("optimizer: too many relations")
	}
	if coster.Perturbed() {
		panic("optimizer: perturbed coster")
	}
	o := &Optimizer{
		q:       q,
		coster:  coster,
		rels:    rels,
		relBit:  make(map[string]int, len(rels)),
		adj:     make([]uint64, len(rels)),
		selPred: make([][]int, len(rels)),
	}
	for i, r := range rels {
		o.relBit[r] = i
	}
	for _, p := range q.Predicates() {
		switch p.Kind {
		case query.Selection:
			i := o.relBit[p.Left.Relation]
			o.selPred[i] = append(o.selPred[i], p.ID)
		case query.Join, query.AntiJoin:
			l := o.relBit[p.Left.Relation]
			r := o.relBit[p.Right.Relation]
			o.adj[l] |= 1 << uint(r)
			o.adj[r] |= 1 << uint(l)
		}
	}
	o.buildSkeleton()
	return o
}

// arenas pools memo slices by relation count — a query of n relations
// uses 1<<n entries — so steady-state Optimize calls produce no memo
// garbage, and idle optimizers hold none.
var arenas [65]sync.Pool

// getMemo returns a memo of 1<<n entries whose slot 0 is zero.
func getMemo(n int) *[]memoEntry {
	if m, ok := arenas[n].Get().(*[]memoEntry); ok {
		return m
	}
	m := make([]memoEntry, 1<<uint(n))
	return &m
}

// buildSkeleton precomputes the DP structure: access-path candidates per
// relation, per connected mask the valid splits with their join
// candidates, and the aggregate on top. Everything here is independent of
// the injected selectivities, so Optimize never re-derives it.
func (o *Optimizer) buildSkeleton() {
	n := len(o.rels)
	o.full = uint64(1)<<uint(n) - 1

	// Base case: candidate access paths per relation — a sequential scan
	// plus an index scan per indexed selection-predicate column, in
	// predicate order (the tie-break enumeration order of the original
	// per-call loop). A column two predicates share is one candidate.
	memo := make(map[candKey]cost.Spec)
	o.access = make([][]cand, n)
	o.leaves = make([][]*plan.Node, n)
	for i, rel := range o.rels {
		preds := o.selPred[i]
		leaves := []*plan.Node{plan.NewSeqScan(rel, preds)}
		for _, id := range preds {
			col := o.q.Predicate(id).Left.Column
			if !o.q.Catalog.HasIndex(rel, col) || slices.ContainsFunc(leaves, func(n *plan.Node) bool { return n.IndexColumn == col }) {
				continue
			}
			leaves = append(leaves, plan.NewIndexScan(rel, col, preds))
		}
		specs := make([]candSpec, len(leaves))
		for j, n := range leaves {
			specs[j] = candSpec{op: n.Op, rel: n.Relation, col: n.IndexColumn, preds: n.Preds}
		}
		o.access[i], o.leaves[i] = o.cands(specs, memo), leaves
	}

	// Inductive case: connected masks in increasing numeric order (every
	// proper submask of m is numerically smaller than m, so this is a
	// valid DP order), each with its feasible ordered splits. The skeleton
	// lives as long as the optimizer, so its slices are cut to size.
	var splits []split
	for m := uint64(1); m <= o.full; m++ {
		if bits.OnesCount64(m) < 2 || !o.connectedMask(m) {
			continue
		}
		splits = splits[:0]
		for sub := (m - 1) & m; sub > 0; sub = (sub - 1) & m {
			left, right := sub, m&^sub
			// Disconnected halves never acquire memo entries; prune
			// their splits statically.
			if !o.connectedMask(left) || !o.connectedMask(right) {
				continue
			}
			preds := o.joinPredsBetween(left, right)
			if len(preds) == 0 {
				continue // would be a Cartesian product
			}
			sort.Ints(preds) // plan.Node.Preds are normalized ascending
			if specs := o.splitCands(right, preds); specs != nil {
				splits = append(splits, split{left: left, right: right, cands: o.cands(specs, memo)})
			}
		}
		o.masks = append(o.masks, maskPlan{mask: m, splits: slices.Clone(splits)})
	}
	o.masks = slices.Clip(o.masks)

	if col, ok := o.q.GroupBy(); ok {
		o.top = &o.cands([]candSpec{{op: plan.OpGroupAggregate, rel: col.Relation, col: col.Column}}, memo)[0]
	} else if o.q.Aggregate() {
		o.top = &o.cands([]candSpec{{op: plan.OpAggregate}}, memo)[0]
	}
	o.topSplit = split{left: o.full}
}

// splitCands lists the candidates of a split whose right half is right,
// joined by preds; nil when the split admits no operator at all (an
// anti-join predicate in an invalid shape).
func (o *Optimizer) splitCands(right uint64, preds []int) []candSpec {
	// An anti-join predicate admits exactly one shape: the inner base
	// relation alone on the right, consumed by a hash anti-join.
	for _, id := range preds {
		p := o.q.Predicate(id)
		if p.Kind != query.AntiJoin {
			continue
		}
		if len(preds) == 1 && bits.OnesCount64(right) == 1 &&
			o.rels[bits.TrailingZeros64(right)] == p.Right.Relation {
			return []candSpec{{op: plan.OpAntiJoin, rel: p.Right.Relation, col: p.Right.Column, preds: preds}}
		}
		return nil // no generic join operator applies to anti predicates
	}

	specs := []candSpec{{op: plan.OpHashJoin, preds: preds}, {op: plan.OpMergeJoin, preds: preds}}

	// Index nested loops: inner must be a single base relation with an
	// index on (one of) the join columns. The inner's selection
	// predicates fold into the join node as residual filters.
	if bits.OnesCount64(right) == 1 {
		ri := bits.TrailingZeros64(right)
		innerRel := o.rels[ri]
		var all []int
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
			if !o.q.Catalog.HasIndex(innerRel, col) || slices.ContainsFunc(specs, func(s candSpec) bool { return s.col == col }) {
				continue
			}
			if all == nil {
				all = append(append([]int{}, preds...), o.selPred[ri]...)
				sort.Ints(all)
			}
			specs = append(specs, candSpec{op: plan.OpIndexNLJoin, rel: innerRel, col: col, preds: all})
		}
	}
	return specs
}

// Query returns the optimizer's query.
func (o *Optimizer) Query() *query.Query { return o.q }

// Coster returns the cost model binding.
func (o *Optimizer) Coster() *cost.Coster { return o.coster }

// Calls returns the number of Optimize invocations so far; the POSP
// generators use it to report compile-time overheads (§6.1).
func (o *Optimizer) Calls() int64 { return o.calls.Load() }

// ResetCalls zeroes the invocation counter.
func (o *Optimizer) ResetCalls() { o.calls.Store(0) }

// Result is an optimization outcome: the chosen plan and its cost at the
// injected selectivities.
type Result struct {
	// Plan is the cheapest plan found. Within one Optimizer, equal plans
	// are the same pointer.
	Plan *plan.Node
	// Cost is Plan's total cost at the injected selectivities.
	Cost cost.Cost
}

// memoEntry is a priced candidate: the candidate and the split whose memo
// entries it reads, which is all a DP winner records. Its node is
// materialized only on demand — for the final plan and for an exact-cost
// tie that compares fingerprints.
type memoEntry struct {
	sum cost.Summary
	// c is the candidate; nil marks a mask with no feasible plan.
	c *cand
	// sp is the split whose halves c reads: the left, and the right too
	// for a binary join; nil for an access path.
	sp *split
	// node is the materialized plan, nil until needed.
	node *plan.Node
}

// Optimize returns the optimal plan and cost at the injected selectivity
// assignment. sels must cover every predicate ID of the query. Panics on
// an under-length assignment or a query with no feasible plan (both are
// programming errors in the workload definition). In steady state it
// allocates nothing, pinned by TestOptimizeAllocFree.
func (o *Optimizer) Optimize(sels cost.Selectivities) Result {
	o.calls.Add(1)
	totalCalls.Add(1)
	if len(sels) < o.q.NumPredicates() {
		panic(fmt.Sprintf("optimizer: selectivity assignment has %d entries, query has %d predicates",
			len(sels), o.q.NumPredicates()))
	}

	// The memo is not cleared: the DP writes every entry it reads before
	// reading it, and slot 0 is never written.
	memop := getMemo(len(o.rels))
	memo := *memop
	defer arenas[len(o.rels)].Put(memop)

	// Base case: single relations — access path selection.
	for i := range o.rels {
		best := memoEntry{}
		for ci := range o.access[i] {
			o.consider(memo, &best, memoEntry{c: &o.access[i][ci], node: o.leaves[i][ci]}, sels)
		}
		o.settle(&best)
		memo[1<<uint(i)] = best
	}

	// Inductive case: precomputed connected masks in DP order; each split
	// prices its candidates from the halves' memoized summaries.
	for mi := range o.masks {
		mp := &o.masks[mi]
		best := memoEntry{}
		for si := range mp.splits {
			sp := &mp.splits[si]
			if memo[sp.left].c == nil || memo[sp.right].c == nil {
				continue // a half with no feasible plan (anti-join shapes)
			}
			for ci := range sp.cands {
				o.consider(memo, &best, memoEntry{c: &sp.cands[ci], sp: sp}, sels)
			}
		}
		if mp.mask != o.full {
			o.settle(&best)
		}
		memo[mp.mask] = best
	}

	final := &memo[o.full]
	if final.c == nil {
		panic(fmt.Sprintf("optimizer: no plan for query %s", o.q.Name))
	}
	if o.top != nil {
		top := memoEntry{c: o.top, sp: &o.topSplit}
		o.price(memo, &top, sels)
		final = &top
	}
	return Result{Plan: o.node(memo, final), Cost: final.sum.Cost}
}

// settle fills a finished memo entry's Sort, which every merge join
// reading it prices.
func (o *Optimizer) settle(e *memoEntry) {
	if e.c != nil {
		e.sum.Sort = o.coster.SortCost(e.sum)
	}
}

// price fills e.sum from its children's memoized summaries — the O(1)
// costing step that replaces whole-subtree re-costing. An absent child
// reads as the zero summary.
func (o *Optimizer) price(memo []memoEntry, e *memoEntry, sels cost.Selectivities) {
	var left, right cost.Summary
	if e.sp != nil {
		left = memo[e.sp.left].sum
		if e.c.binary() {
			right = memo[e.sp.right].sum
		}
	}
	e.sum = o.coster.PriceSpec(&e.c.spec, left, right, sels)
}

// consider prices candidate e and folds it into best with cheaper's total
// order: a strictly cheaper candidate wins, a strictly costlier one loses,
// and an exact cost tie (including NaN, which compares neither way) falls
// back to the fingerprint order — the only case that materializes a
// candidate that may lose.
func (o *Optimizer) consider(memo []memoEntry, best *memoEntry, e memoEntry, sels cost.Selectivities) {
	o.price(memo, &e, sels)
	switch {
	case best.c == nil, e.sum.Cost < best.sum.Cost:
		*best = e
	case e.sum.Cost > best.sum.Cost:
		// keep best
	default:
		if o.tieFingerprint(o.node(memo, &e)) < o.tieFingerprint(o.node(memo, best)) {
			*best = e
		}
	}
}

// tieFingerprint returns n's fingerprint for an exact-cost tie-break. Ties
// are about 0.2 % of candidates on the corpus but recur at the same nodes
// (8 a call on 4D_DS_Q91), so the string is memoized — on the optimizer,
// not on n: a node's own memo would stay on every winner of a tie inside
// the compiled bouquet, and this one goes with the optimizer.
func (o *Optimizer) tieFingerprint(n *plan.Node) string {
	if s, ok := o.tieFPs.Load(n); ok {
		return s.(string)
	}
	s := string(n.AppendFingerprint(nil))
	o.tieFPs.Store(n, s)
	return s
}

// node returns e's plan, interning it — and, first, its children — on
// first use. It is the one place plan nodes are materialized.
func (o *Optimizer) node(memo []memoEntry, e *memoEntry) *plan.Node {
	if e.node == nil {
		var right *plan.Node
		left := o.node(memo, &memo[e.sp.left])
		if e.c.binary() {
			right = o.node(memo, &memo[e.sp.right])
		}
		e.node = o.intern(e.c, left, right)
	}
	return e.node
}

// joinPredsBetween returns the join (and anti-join) predicate IDs
// connecting the two relation masks. Skeleton construction only; Optimize
// reads the precomputed per-split slices.
func (o *Optimizer) joinPredsBetween(left, right uint64) []int {
	var out []int
	for id := range o.q.NumPredicates() {
		p := o.q.Predicate(id)
		if p.Kind == query.Selection {
			continue
		}
		l := uint64(1) << uint(o.relBit[p.Left.Relation])
		r := uint64(1) << uint(o.relBit[p.Right.Relation])
		if (left&l != 0 && right&r != 0) || (left&r != 0 && right&l != 0) {
			out = append(out, p.ID)
		}
	}
	return out
}

// connectedMask reports whether the relations in m form a connected
// subgraph of the join graph. Skeleton construction only.
func (o *Optimizer) connectedMask(m uint64) bool {
	if m == 0 {
		return false
	}
	start := uint64(1) << uint(bits.TrailingZeros64(m))
	seen := start
	frontier := start
	for frontier != 0 {
		next := uint64(0)
		f := frontier
		for f != 0 {
			i := bits.TrailingZeros64(f)
			f &^= 1 << uint(i)
			next |= o.adj[i] & m &^ seen
		}
		seen |= next
		frontier = next
	}
	return seen == m
}

// AbstractCost prices an arbitrary (externally supplied) plan at the given
// selectivities: the paper's "abstract plan costing" capability (§5.4),
// used to re-cost bouquet plans at every ESS location.
func (o *Optimizer) AbstractCost(p *plan.Node, sels cost.Selectivities) cost.Cost {
	return o.coster.Cost(p, sels)
}
