package exec

import (
	"errors"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/plan"
	"repro/internal/query"
)

// ---------------------------------------------------------------------------
// Sequential scan

type seqScan struct {
	b     *builder
	n     *plan.Node
	st    *NodeStats
	r     cost.Rates
	preds []scanPred

	cols    [][]int32 // the output columns' table vectors
	numRows int
	pos     int
	slab    slab
}

// scanPred is a bound selection predicate over a table column: "col <
// bound", or "col ≥ bound" when negated.
type scanPred struct {
	id      int
	col     []int32 // the predicate column's table vector
	bound   int64
	negated bool
}

// eval applies the predicate to a value of its column.
func (sp scanPred) eval(v int32) bool {
	if sp.negated {
		return int64(v) >= sp.bound
	}
	return int64(v) < sp.bound
}

// scanPreds binds selection predicates to tbl's columns, for both
// engines' scans and index nested-loops inner filters.
func (e *Engine) scanPreds(ids []int, tbl *data.Table) []scanPred {
	var preds []scanPred
	for _, id := range ids {
		p := e.q.Predicate(id)
		preds = append(preds, scanPred{
			id:      id,
			col:     tbl.Column(p.Left.Column),
			bound:   e.bindings[id],
			negated: p.Negated,
		})
	}
	return preds
}

func (b *builder) buildSeqScan(n *plan.Node) (iterator, schema, error) {
	sch := b.shapes[n].sch
	tbl := b.e.db.Table(n.Relation)
	s := &seqScan{
		b: b, n: n, st: b.statsFor(n), r: b.e.coster.Rates(n),
		preds: b.e.scanPreds(n.Preds, tbl),
		cols:  columns(tbl, sch), numRows: tbl.NumRows(),
	}
	return s, sch, nil
}

func (s *seqScan) open() error { return nil }

func (s *seqScan) next() (row, bool, error) {
	for s.pos < s.numRows {
		i := s.pos
		s.pos++
		charge := s.r.Row
		if i%s.r.PageRows == 0 {
			charge += s.r.Page
		}
		if err := s.b.m.charge(charge); err != nil {
			return nil, false, err
		}
		s.st.InTuples++
		// Evaluate every predicate independently (no short-circuit,
		// matching the cost model) and count per-predicate passes for
		// selectivity learning.
		pass := true
		for _, sp := range s.preds {
			if sp.eval(sp.col[i]) {
				s.st.PassBy[sp.id]++
			} else {
				pass = false
			}
		}
		if !pass {
			continue
		}
		out := s.slab.row(len(s.cols), s.numRows-i)
		for c, col := range s.cols {
			out[c] = int64(col[i])
		}
		s.st.Out++
		return out, true, nil
	}
	s.st.InputsDone = true
	s.st.Done = true
	return nil, false, nil
}

func (s *seqScan) close() {}

// ---------------------------------------------------------------------------
// Index scan

type indexScan struct {
	b  *builder
	n  *plan.Node
	st *NodeStats
	r  cost.Rates

	driving  scanPred   // predicate on the indexed column
	resid    []scanPred // remaining predicates
	order    []int32    // row ids sorted by the indexed column
	cols     [][]int32  // the output columns' table vectors
	pos, end int        // the rows of order still to fetch (indexRange)
	slab     slab
}

// splitDriving separates an index scan's predicate on its index column —
// the first, if several — from the residual ones.
func (e *Engine) splitDriving(n *plan.Node, preds []scanPred) (driving scanPred, resid []scanPred, found bool) {
	for _, sp := range preds {
		if !found && e.q.Predicate(sp.id).Left.Column == n.IndexColumn {
			driving, found = sp, true
		} else {
			resid = append(resid, sp)
		}
	}
	return driving, resid, found
}

// indexRange returns the span [lo, hi) of an index order whose rows pass
// its driving predicate: a prefix for "col < bound", a suffix for the
// negated "col ≥ bound".
func indexRange(driving scanPred, order []int32) (lo, hi int) {
	drv := driving.col
	boundary := sort.Search(len(order), func(i int) bool { return int64(drv[order[i]]) >= driving.bound })
	if driving.negated {
		return boundary, len(order)
	}
	return 0, boundary
}

func (b *builder) buildIndexScan(n *plan.Node) (iterator, schema, error) {
	sch := b.shapes[n].sch
	tbl := b.e.db.Table(n.Relation)
	s := &indexScan{b: b, n: n, st: b.statsFor(n), r: b.e.coster.Rates(n)}
	var found bool
	if s.driving, s.resid, found = b.e.splitDriving(n, b.e.scanPreds(n.Preds, tbl)); !found {
		return nil, nil, errors.New("exec: index scan without a predicate on its index column")
	}
	s.cols = columns(tbl, sch)
	s.order = tbl.Index(n.IndexColumn).Order()
	return s, sch, nil
}

func (s *indexScan) open() error {
	s.pos, s.end = indexRange(s.driving, s.order)
	return s.b.m.charge(s.r.Descent)
}

func (s *indexScan) next() (row, bool, error) {
	for s.pos < s.end {
		rid := s.order[s.pos]
		s.pos++
		s.st.InTuples++
		s.st.PassBy[s.driving.id]++
		if err := s.b.m.charge(s.r.Fetch); err != nil {
			return nil, false, err
		}
		pass := true
		for _, sp := range s.resid {
			if sp.eval(sp.col[rid]) {
				s.st.PassBy[sp.id]++
			} else {
				pass = false
			}
		}
		if !pass {
			continue
		}
		out := s.slab.row(len(s.cols), s.end-s.pos+1)
		for c, col := range s.cols {
			out[c] = int64(col[rid])
		}
		s.st.Out++
		return out, true, nil
	}
	s.st.InputsDone = true
	s.st.Done = true
	return nil, false, nil
}

func (s *indexScan) close() {}

// ---------------------------------------------------------------------------
// Join predicate binding

// joinKey resolves one equi-join predicate to offsets in the combined or
// per-side schemas.
type joinKey struct {
	id       int
	leftOff  int // offset in the left/outer schema
	rightOff int // offset in the right/inner schema
}

// bindJoinKeys resolves join predicate IDs against two child schemas.
func (b *builder) bindJoinKeys(ids []int, left, right schema) []joinKey {
	keys := make([]joinKey, 0, len(ids))
	for _, id := range ids {
		p := b.e.q.Predicate(id)
		k := joinKey{id: id}
		if left.find(p.Left) >= 0 {
			k.leftOff = left.offset(p.Left)
			k.rightOff = right.offset(p.Right)
		} else {
			k.leftOff = left.offset(p.Right)
			k.rightOff = right.offset(p.Left)
		}
		keys = append(keys, k)
	}
	return keys
}

// ---------------------------------------------------------------------------
// Index nested-loops join

type indexNL struct {
	b  *builder
	n  *plan.Node
	st *NodeStats
	r  cost.Rates

	outer iterator
	probe *data.Index
	indexNLParts

	cur     row     // current outer row
	matches []int32 // inner matches of cur not yet emitted
	mi      int
	slab    slab
}

// indexNLParts is what both engines' index nested-loops joins bind at
// build time: the join keys (probe key first) with each key's inner column
// as a table vector, the inner selection filters, and which outer offsets
// and inner table vectors make up the output.
type indexNLParts struct {
	keys    []joinKey  // first is the probe key
	keyCols [][]int32  // each key's inner column
	filters []scanPred // inner selection predicates
	outOff  []int      // outer-row offsets of the output's outer columns
	outIn   [][]int32  // table vectors of the output's inner columns
}

func (b *builder) bindIndexNL(n *plan.Node, outerSch schema, tbl *data.Table) indexNLParts {
	inner := b.e.relSchema(n.Relation)
	joins, sels := b.predSplit(n.Preds)
	keys := b.bindJoinKeys(joins, outerSch, inner)
	// The probe key must be the one on the index column; reorder.
	for i, k := range keys {
		if inner[k.rightOff].Column == n.IndexColumn {
			keys[0], keys[i] = keys[i], keys[0]
			break
		}
	}
	var ip []int
	parts := indexNLParts{keys: keys, filters: b.e.scanPreds(sels, tbl)}
	parts.outOff, ip = split(b.shapes[n].sch, outerSch, inner)
	for _, k := range keys {
		parts.keyCols = append(parts.keyCols, tbl.Column(inner[k.rightOff].Column))
	}
	for _, i := range ip {
		parts.outIn = append(parts.outIn, tbl.Column(inner[i].Column))
	}
	return parts
}

func (b *builder) buildIndexNL(n *plan.Node) (iterator, schema, error) {
	outer, outerSch, err := b.build(n.Left)
	if err != nil {
		return nil, nil, err
	}
	tbl := b.e.db.Table(n.Relation)
	j := &indexNL{
		b: b, n: n, st: b.statsFor(n), r: b.e.coster.Rates(n),
		outer: outer, probe: tbl.Index(n.IndexColumn),
		indexNLParts: b.bindIndexNL(n, outerSch, tbl),
	}
	return j, b.shapes[n].sch, nil
}

func (j *indexNL) open() error { return j.outer.open() }

func (j *indexNL) next() (row, bool, error) {
	for {
		// Drain the remaining matches of the current outer row.
		for j.mi < len(j.matches) {
			rid := j.matches[j.mi]
			j.mi++
			if err := j.b.m.charge(j.r.Match); err != nil {
				return nil, false, err
			}
			// Residual join predicates beyond the probe key.
			ok := true
			for ki, k := range j.keys[1:] {
				if err := j.b.m.charge(j.r.Cmp); err != nil {
					return nil, false, err
				}
				if j.cur[k.leftOff] != int64(j.keyCols[1+ki][rid]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			j.st.Matches++
			// Inner selection filters.
			for _, fp := range j.filters {
				if err := j.b.m.charge(j.r.Cmp); err != nil {
					return nil, false, err
				}
				if !fp.eval(fp.col[rid]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if err := j.b.m.charge(j.r.Out); err != nil {
				return nil, false, err
			}
			lw := len(j.outOff)
			out := j.slab.row(lw+len(j.outIn), slabRows)
			for c, o := range j.outOff {
				out[c] = j.cur[o]
			}
			for c, col := range j.outIn {
				out[lw+c] = int64(col[rid])
			}
			j.st.Out++
			return out, true, nil
		}
		// Fetch the next outer row and probe.
		r, ok, err := j.outer.next()
		if err != nil || !ok {
			if err == nil {
				j.st.InputsDone = true
				j.st.Done = true
			}
			return nil, false, err
		}
		j.st.InTuples++
		if err := j.b.m.charge(j.r.Descent); err != nil {
			return nil, false, err
		}
		j.cur = r
		j.matches = j.probe.Rows(r[j.keys[0].leftOff])
		j.mi = 0
	}
}

func (j *indexNL) close() { j.outer.close() }

// ---------------------------------------------------------------------------
// Hash join

// hashJoin builds the vectorized engine's joinTable over its build keys
// and keeps the build rows, len(rightSch) values each, in one flat
// arena. A probe walks its key's chain, which runs in build order, so a
// probe row's matches come out in the order the build side produced them.
type hashJoin struct {
	b  *builder
	n  *plan.Node
	st *NodeStats
	r  cost.Rates

	left, right  iterator
	rightSch     schema
	rightFull    int   // the unpruned build width the spill threshold prices
	lOut, rOut   []int // input offsets of the output's left and right columns
	keys         []joinKey
	rows         []int64    // the build rows, row i at rows[i*len(rightSch):]
	jt           *joinTable // the index over the build rows' first key
	spillCharged bool
	leftPageRows float64

	cur  row
	mi   int32 // the next build row on cur's chain, -1 when none is left
	slab slab
}

func (b *builder) buildHashJoin(n *plan.Node) (iterator, schema, error) {
	left, leftSch, err := b.build(n.Left)
	if err != nil {
		return nil, nil, err
	}
	right, rightSch, err := b.build(n.Right)
	if err != nil {
		return nil, nil, err
	}
	joins, sels := b.predSplit(n.Preds)
	if len(sels) > 0 {
		return nil, nil, errors.New("exec: hash join with selection predicates")
	}
	j := &hashJoin{
		b: b, n: n, st: b.statsFor(n), r: b.e.coster.Rates(n),
		left: left, right: right, rightSch: rightSch, rightFull: b.shapes[n.Right].full,
		keys: b.bindJoinKeys(joins, leftSch, rightSch),
		mi:   -1,
	}
	out := b.shapes[n].sch
	j.lOut, j.rOut = split(out, leftSch, rightSch)
	// Spill accounting pages the unpruned schemas.
	j.leftPageRows = j.r.SpillPageRows(b.shapes[n.Left].full)
	return j, out, nil
}

func (j *hashJoin) open() error {
	if err := j.left.open(); err != nil {
		return err
	}
	// Reuse: the whole build phase (child open, drain, table insert
	// charges) is one contiguous charge window. A cache hit installs the
	// finished table and lump-charges the window's cost; a completed,
	// unspilled build stores its table for later executions.
	rkey := j.keys[0].rightOff
	key := ""
	if j.b.reuse != nil {
		key = reuseKey("hj", rkey, -1, j.b.e.bindSig, j.n.Right.Fingerprint(), j.rightSch)
		if e := j.b.reuse.lookup(key); e != nil && j.b.m.fits(windowPrice(e.window)) {
			st := e.state.(*hjBuildState)
			j.rows, j.jt = st.rows, st.jt
			graftStats(j.b.stats, e.stats, j.n.Right)
			j.b.tally.hit(windowPrice(e.window))
			return j.b.m.charge(windowPrice(e.window))
		}
	}
	buildStart := j.b.m.used
	if err := j.right.open(); err != nil {
		return err
	}
	// Build phase: drain the right child into the arena.
	var keys []int64
	for {
		r, ok, err := j.right.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := j.b.m.charge(j.r.Build); err != nil {
			return err
		}
		keys = append(keys, r[rkey])
		j.rows = append(j.rows, r...)
	}
	j.jt = newJoinTable(keys)
	// Grace-join spill: if the build side exceeds work memory, charge
	// the write+read of both inputs' pages (right now, left during the probe).
	if j.r.OverWorkMem(len(keys), j.rightFull) {
		pages := math.Ceil(float64(len(keys)) / j.r.SpillPageRows(j.rightFull))
		if pages < 1 {
			pages = 1
		}
		if err := j.b.m.charge(pages * j.r.SpillPage); err != nil {
			return err
		}
		j.spillCharged = true
	}
	if key != "" && !j.spillCharged {
		j.b.reuse.store(key, &reuseEntry{
			window: lumpWindow(j.b.m.used - buildStart),
			stats:  snapshotStats(j.b.stats, j.n.Right),
			state:  &hjBuildState{rows: j.rows, jt: j.jt},
		})
	}
	return nil
}

func (j *hashJoin) next() (row, bool, error) {
	for {
		for j.mi >= 0 {
			w := len(j.rightSch)
			m := j.rows[int(j.mi)*w : int(j.mi+1)*w]
			j.mi = j.jt.next[j.mi]
			ok := true
			for _, k := range j.keys[1:] {
				if err := j.b.m.charge(j.r.Cmp); err != nil {
					return nil, false, err
				}
				if j.cur[k.leftOff] != m[k.rightOff] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			j.st.Matches++
			if err := j.b.m.charge(j.r.Out); err != nil {
				return nil, false, err
			}
			j.st.Out++
			return j.slab.join(j.cur, m, j.lOut, j.rOut), true, nil
		}
		r, ok, err := j.left.next()
		if err != nil || !ok {
			if err == nil {
				j.st.InputsDone = true
				j.st.Done = true
			}
			return nil, false, err
		}
		j.st.InTuples++
		charge := j.r.Probe
		if j.spillCharged && j.st.InTuples%int64(j.leftPageRows+1) == 0 {
			charge += j.r.SpillPage
		}
		if err := j.b.m.charge(charge); err != nil {
			return nil, false, err
		}
		j.cur = r
		j.mi = j.jt.lookup(r[j.keys[0].leftOff])
	}
}

func (j *hashJoin) close() {
	j.left.close()
	j.right.close()
}

// ---------------------------------------------------------------------------
// Sort-merge join

type mergeJoin struct {
	b  *builder
	n  *plan.Node
	st *NodeStats
	r  cost.Rates

	left, right iterator
	leftSch     schema
	rightSch    schema
	lOut, rOut  []int // input offsets of the output's left and right columns
	keys        []joinKey

	lrows, rrows []row
	li, ri       int

	// Current equal-key group cross product.
	group   []row // right rows sharing the current key
	gi      int
	curLeft row
	slab    slab
}

func (b *builder) buildMergeJoin(n *plan.Node) (iterator, schema, error) {
	left, leftSch, err := b.build(n.Left)
	if err != nil {
		return nil, nil, err
	}
	right, rightSch, err := b.build(n.Right)
	if err != nil {
		return nil, nil, err
	}
	joins, sels := b.predSplit(n.Preds)
	if len(sels) > 0 {
		return nil, nil, errors.New("exec: merge join with selection predicates")
	}
	j := &mergeJoin{
		b: b, n: n, st: b.statsFor(n), r: b.e.coster.Rates(n),
		left: left, right: right, leftSch: leftSch, rightSch: rightSch,
		keys: b.bindJoinKeys(joins, leftSch, rightSch),
	}
	out := b.shapes[n].sch
	j.lOut, j.rOut = split(out, leftSch, rightSch)
	return j, out, nil
}

// drainSorted materializes and sorts one input, charging ~n·log2(n)
// comparison costs plus external-sort spill I/O, mirroring Coster.SortCost.
// Charges accrue incrementally per drained row (cost.Rates.SortRow), so a
// budget abort fires promptly rather than after a lump-sum sort charge.
// width is the input's unpruned schema width, which the spill I/O prices.
// The bool reports whether the sort outgrew work memory.
func (j *mergeJoin) drainSorted(it iterator, key int, width int) ([]row, bool, error) {
	var rows []row
	for {
		r, ok, err := it.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		rows = append(rows, r)
		cmp, spill := j.r.SortRow(len(rows), width)
		if err := j.b.m.charge(cmp + spill); err != nil {
			return nil, false, err
		}
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a][key] < rows[b][key] })
	return rows, j.r.OverWorkMem(len(rows), width), nil
}

func (j *mergeJoin) open() error {
	// Reuse: both sorted inputs are cached as one whole-node entry —
	// open() is a single contiguous charge window (left open+drain
	// charges interleave with right's in a fixed order), so caching the
	// node wholesale preserves the from-scratch charge sequence exactly.
	key := ""
	if j.b.reuse != nil {
		key = reuseKey("mj", j.keys[0].leftOff, j.keys[0].rightOff, j.b.e.bindSig, j.n.Fingerprint(), j.leftSch, j.rightSch)
		if e := j.b.reuse.lookup(key); e != nil && j.b.m.fits(windowPrice(e.window)) {
			st := e.state.(*mjSortState)
			j.lrows, j.rrows = st.lrows, st.rrows
			graftStats(j.b.stats, e.stats, j.n.Left, j.n.Right)
			j.b.tally.hit(windowPrice(e.window))
			return j.b.m.charge(windowPrice(e.window))
		}
	}
	sortStart := j.b.m.used
	if err := j.left.open(); err != nil {
		return err
	}
	if err := j.right.open(); err != nil {
		return err
	}
	var lspill, rspill bool
	var err error
	if j.lrows, lspill, err = j.drainSorted(j.left, j.keys[0].leftOff, j.b.shapes[j.n.Left].full); err != nil {
		return err
	}
	if j.rrows, rspill, err = j.drainSorted(j.right, j.keys[0].rightOff, j.b.shapes[j.n.Right].full); err != nil {
		return err
	}
	if key != "" && !lspill && !rspill {
		j.b.reuse.store(key, &reuseEntry{
			window: lumpWindow(j.b.m.used - sortStart),
			stats:  snapshotStats(j.b.stats, j.n.Left, j.n.Right),
			state:  &mjSortState{lrows: j.lrows, rrows: j.rrows},
		})
	}
	return nil
}

func (j *mergeJoin) next() (row, bool, error) {
	lk, rk := j.keys[0].leftOff, j.keys[0].rightOff
	for {
		// Emit from the current group cross product.
		for j.gi < len(j.group) {
			m := j.group[j.gi]
			j.gi++
			ok := true
			for _, k := range j.keys[1:] {
				if err := j.b.m.charge(j.r.Cmp); err != nil {
					return nil, false, err
				}
				if j.curLeft[k.leftOff] != m[k.rightOff] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			j.st.Matches++
			if err := j.b.m.charge(j.r.Out); err != nil {
				return nil, false, err
			}
			j.st.Out++
			return j.slab.join(j.curLeft, m, j.lOut, j.rOut), true, nil
		}

		// Advance: if the current left row's key equals the group's
		// key, move to the next left row and replay the group.
		if j.group != nil && j.li < len(j.lrows) {
			j.li++
			j.st.InTuples++
			if j.li < len(j.lrows) && j.lrows[j.li][lk] == j.curLeft[lk] {
				j.curLeft = j.lrows[j.li]
				j.gi = 0
				continue
			}
			j.group = nil
		}

		if j.li >= len(j.lrows) || j.ri >= len(j.rrows) {
			j.st.InputsDone = true
			j.st.Done = true
			return nil, false, nil
		}

		// Merge step: align keys.
		lv, rv := j.lrows[j.li][lk], j.rrows[j.ri][rk]
		if err := j.b.m.charge(j.r.Cmp); err != nil {
			return nil, false, err
		}
		switch {
		case lv < rv:
			j.li++
			j.st.InTuples++
		case lv > rv:
			j.ri++
		default:
			// Collect the right group with this key.
			start := j.ri
			for j.ri < len(j.rrows) && j.rrows[j.ri][rk] == rv {
				j.ri++
			}
			j.group = j.rrows[start:j.ri]
			j.curLeft = j.lrows[j.li]
			j.gi = 0
		}
	}
}

func (j *mergeJoin) close() {
	j.left.close()
	j.right.close()
}

// ---------------------------------------------------------------------------
// Scalar aggregate

// aggregate drains its child and emits a single row [count] — the
// decision-support COUNT(*) root, which reads no column of its input.
type aggregate struct {
	b     *builder
	n     *plan.Node
	st    *NodeStats
	r     cost.Rates
	child iterator

	done  bool
	count int64
}

func (b *builder) buildAggregate(n *plan.Node) (iterator, schema, error) {
	child, _, err := b.build(n.Left)
	if err != nil {
		return nil, nil, err
	}
	a := &aggregate{b: b, n: n, st: b.statsFor(n), r: b.e.coster.Rates(n), child: child}
	return a, b.shapes[n].sch, nil
}

func (a *aggregate) open() error { return a.child.open() }

func (a *aggregate) next() (row, bool, error) {
	if a.done {
		return nil, false, nil
	}
	for {
		_, ok, err := a.child.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		a.st.InTuples++
		if err := a.b.m.charge(a.r.Cmp); err != nil {
			return nil, false, err
		}
		a.count++
	}
	if err := a.b.m.charge(a.r.Out); err != nil {
		return nil, false, err
	}
	a.done = true
	a.st.InputsDone = true
	a.st.Done = true
	a.st.Out = 1
	return row{a.count}, true, nil
}

func (a *aggregate) close() { a.child.close() }

// ---------------------------------------------------------------------------
// Hash anti-join (NOT EXISTS)

// antiJoin builds a hash set over the inner relation's column, then streams
// outer rows, emitting those with no match. PassBy counts the survivors per
// the anti predicate, giving the run-time a sound lower bound on the pass
// fraction even mid-budget (§5.2 learning applied to the §2 existential
// case).
type antiJoin struct {
	b  *builder
	n  *plan.Node
	st *NodeStats
	r  cost.Rates

	outer    iterator
	outerOff int
	innerSet map[int64]bool
	innerN   int
	pred     int
	built    bool
	reused   bool
}

func (b *builder) buildAntiJoin(n *plan.Node) (iterator, schema, error) {
	outer, outerSch, err := b.build(n.Left)
	if err != nil {
		return nil, nil, err
	}
	p := b.e.q.Predicate(n.Preds[0])
	tbl := b.e.db.Table(n.Relation)
	j := &antiJoin{
		b: b, n: n, st: b.statsFor(n), r: b.e.coster.Rates(n),
		outer:    outer,
		outerOff: outerSch.offset(p.Left),
		innerN:   tbl.NumRows(),
		pred:     n.Preds[0],
	}
	// Reuse: the inner set depends only on the base relation, so both
	// engines share one unmetered entry per (relation, column). The
	// open-time build charge below is levied either way — reuse skips
	// the hashing work, never the charge.
	key := ""
	if b.reuse != nil {
		key = "anti|" + n.Relation + "|" + n.IndexColumn
		if e := b.reuse.lookup(key); e != nil {
			j.innerSet = e.state.(map[int64]bool)
			j.reused = true
		}
	}
	if j.innerSet == nil {
		vals := tbl.Column(n.IndexColumn)
		j.innerSet = make(map[int64]bool, len(vals))
		for _, v := range vals {
			j.innerSet[int64(v)] = true
		}
		if key != "" {
			b.reuse.store(key, &reuseEntry{state: j.innerSet})
		}
	}
	return j, outerSch, nil
}

func (j *antiJoin) open() error {
	if err := j.outer.open(); err != nil {
		return err
	}
	// Build-phase charge for hashing the inner relation.
	j.built = true
	c := float64(j.innerN) * j.r.Build
	if j.reused {
		j.b.tally.hit(c)
	}
	return j.b.m.charge(c)
}

func (j *antiJoin) next() (row, bool, error) {
	for {
		r, ok, err := j.outer.next()
		if err != nil || !ok {
			if err == nil {
				j.st.InputsDone = true
				j.st.Done = true
			}
			return nil, false, err
		}
		j.st.InTuples++
		if err := j.b.m.charge(j.r.Probe); err != nil {
			return nil, false, err
		}
		if j.innerSet[r[j.outerOff]] {
			continue // a match exists: the NOT EXISTS fails
		}
		j.st.PassBy[j.pred]++
		j.st.Matches++
		if err := j.b.m.charge(j.r.Out); err != nil {
			return nil, false, err
		}
		j.st.Out++
		return r, true, nil
	}
}

func (j *antiJoin) close() { j.outer.close() }

// ---------------------------------------------------------------------------
// Grouped hash aggregate

// groupAggregate drains its child into a hash of per-group counts, then
// emits one (group, count) row per distinct grouping value, in ascending
// group order for determinism.
type groupAggregate struct {
	b     *builder
	n     *plan.Node
	st    *NodeStats
	r     cost.Rates
	child iterator
	off   int

	built  bool
	groups map[int64]int64
	order  []int64
	pos    int
	slab   slab
}

func (b *builder) buildGroupAggregate(n *plan.Node) (iterator, schema, error) {
	child, childSch, err := b.build(n.Left)
	if err != nil {
		return nil, nil, err
	}
	g := &groupAggregate{
		b: b, n: n, st: b.statsFor(n), r: b.e.coster.Rates(n),
		child: child,
		off:   childSch.offset(query.ColumnRef{Relation: n.Relation, Column: n.IndexColumn}),
	}
	return g, b.shapes[n].sch, nil
}

func (g *groupAggregate) open() error { return g.child.open() }

func (g *groupAggregate) next() (row, bool, error) {
	if !g.built {
		g.groups = make(map[int64]int64)
		for {
			r, ok, err := g.child.next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			g.st.InTuples++
			if err := g.b.m.charge(g.r.Group); err != nil {
				return nil, false, err
			}
			g.groups[r[g.off]]++
		}
		g.order = make([]int64, 0, len(g.groups))
		for k := range g.groups {
			g.order = append(g.order, k)
		}
		sort.Slice(g.order, func(a, b int) bool { return g.order[a] < g.order[b] })
		g.built = true
	}
	if g.pos >= len(g.order) {
		g.st.InputsDone = true
		g.st.Done = true
		return nil, false, nil
	}
	k := g.order[g.pos]
	g.pos++
	if err := g.b.m.charge(g.r.Out); err != nil {
		return nil, false, err
	}
	g.st.Out++
	out := g.slab.row(2, len(g.order)-g.pos+1)
	out[0], out[1] = k, g.groups[k]
	return out, true, nil
}

func (g *groupAggregate) close() { g.child.close() }

// ---------------------------------------------------------------------------
// Vectorized kernels (morsel-parallel engine; runtime in vector.go)
//
// Each kernel mirrors its Volcano counterpart above: the same per-row
// charge formulas and the same counter semantics (independent predicate
// evaluation on scans, Matches counted after residual join keys but
// before inner selection filters), evaluated a batch at a time. A kernel
// never computes cost: each charge site registers a class (its rate) with
// the count meter while the pipeline is composed, and the kernel counts
// events into the worker's vector (w.ev[class] += n).

// pageBreaks counts the page-boundary rows (i % rpp == 0) in [lo, hi),
// so a scan batch charges exactly the page reads its rows would have
// charged one at a time.
func pageBreaks(lo, hi, rpp int) int {
	if hi <= lo {
		return 0
	}
	first := (lo + rpp - 1) / rpp * rpp
	if first >= hi {
		return 0
	}
	return (hi-1-first)/rpp + 1
}

// filterBatch evaluates every predicate independently over the batch
// (no short-circuit, matching the cost model and the Volcano scan),
// accumulates per-predicate pass counts, and fills the slot's selection
// vector with the surviving rows. The batch's i-th row is table row
// base+i, or rows[i] when rows is non-nil (an index scan's gather).
//
// The warm path allocates nothing (pinned by TestFilterBatchAllocFree):
// the slot's selection vector is made once and refilled, at most batch
// size, by every later batch.
func filterBatch(st *NodeStats, ws *wslot, preds []scanPred, base, nrows int, rows []int32) []int32 {
	fail := ws.failbuf(nrows)
	for _, sp := range preds {
		var passed int64
		if rows == nil {
			for i, v := range sp.col[base : base+nrows] {
				if sp.eval(v) {
					passed++
				} else {
					fail[i] = true
				}
			}
		} else {
			for i, r := range rows {
				if sp.eval(sp.col[r]) {
					passed++
				} else {
					fail[i] = true
				}
			}
		}
		st.pass(sp.id, passed)
	}
	if ws.sel == nil {
		// A nil selection vector means "all rows live", so the empty
		// result of an all-fail batch must still be non-nil.
		ws.sel = make([]int32, 0, nrows)
	}
	sel := ws.sel[:0]
	for i := 0; i < nrows; i++ {
		if !fail[i] {
			sel = append(sel, int32(i))
		}
	}
	ws.sel = sel
	return sel
}

// gather widens the live rows of a scan batch from the table vectors into
// the slot's owned buffers and returns them as a dense batch. The scan
// batch is table rows base…base+nrows-1, or rows when rows is non-nil
// (an index scan's slice of the index order); sel, when non-nil, lists
// its live rows (filterBatch), and nil means all are live.
func gather(ws *wslot, cols [][]int32, base, nrows int, rows, sel []int32) *vbatch {
	b := &ws.b
	b.n, b.sel = nrows, nil
	if sel != nil {
		b.n = len(sel)
	}
	// Each case reslices dst to its loop's length, so the stores need no
	// bounds check.
	for c, src := range cols {
		dst := ws.data[c][:b.n]
		switch {
		case rows == nil && sel == nil:
			widen(dst, src[base:base+nrows])
		case rows == nil:
			src := src[base : base+nrows]
			dst = dst[:len(sel)]
			for i, k := range sel {
				dst[i] = int64(src[k])
			}
		case sel == nil:
			dst = dst[:len(rows)]
			for i, r := range rows {
				dst[i] = int64(src[r])
			}
		default:
			dst = dst[:len(sel)]
			for i, k := range sel {
				dst[i] = int64(src[rows[k]])
			}
		}
		b.cols[c] = dst
	}
	return b
}

// widen copies src into dst, widening each value; dst is as long as src.
// It is the gather of every unfiltered heap batch, so it is unrolled by
// eight: on amd64 the plain loop measured about three times slower.
func widen(dst []int64, src []int32) {
	dst = dst[:len(src)]
	for len(src) >= 8 {
		s, d := src[:8:8], dst[:8:8]
		d[0], d[1], d[2], d[3] = int64(s[0]), int64(s[1]), int64(s[2]), int64(s[3])
		d[4], d[5], d[6], d[7] = int64(s[4]), int64(s[5]), int64(s[6]), int64(s[7])
		src, dst = src[8:], dst[8:]
	}
	for i, x := range src {
		dst[i] = int64(x)
	}
}

// streamSeqScan is the vectorized sequential scan: morsels over the heap,
// cut into batches. The bound predicates filter each batch on the table's
// int32 vectors first; only the rows that pass are widened into the
// worker's own buffers, so downstream operators see dense batches.
func (v *vecEngine) streamSeqScan(n *plan.Node, sink vecSink) error {
	id := v.idx[n]
	tbl := v.e.db.Table(n.Relation)
	r := v.e.coster.Rates(n)
	cols := columns(tbl, v.vb.shapes[n].sch)
	preds := v.e.scanPreds(n.Preds, tbl)
	cRow := v.m.class(r.Row)
	cPage := v.m.class(r.Page)
	slot := v.newSlot()
	return v.parallelFor(tbl.NumRows(), func(w *vecWorker, lo, hi int) error {
		st := w.st(id)
		ws := w.slot(slot, len(cols))
		ws.owned(len(cols), v.batch)
		for s := lo; s < hi; s += v.batch {
			e := min(s+v.batch, hi)
			nrows := e - s
			w.ev[cRow] += int64(nrows)
			w.ev[cPage] += int64(pageBreaks(s, e, r.PageRows))
			st.InTuples += int64(nrows)
			var sel []int32
			if len(preds) > 0 {
				sel = filterBatch(st, ws, preds, s, nrows, nil)
			}
			b := gather(ws, cols, s, nrows, nil, sel)
			st.Out += int64(b.n)
			if err := w.deliver(b, sink); err != nil {
				return err
			}
		}
		return nil
	}, sink.done)
}

// streamIndexScan is the vectorized index scan: the qualifying range of
// the column index's order is located once by binary search (the descent
// charge, as the Volcano open), then morsels over the range filter on the
// residual predicates and gather the rows that pass into worker-owned
// batches, as the sequential scan does.
func (v *vecEngine) streamIndexScan(n *plan.Node, sink vecSink) error {
	id := v.idx[n]
	tbl := v.e.db.Table(n.Relation)
	r := v.e.coster.Rates(n)
	cols := columns(tbl, v.vb.shapes[n].sch)
	driving, resid, _ := v.e.splitDriving(n, v.e.scanPreds(n.Preds, tbl))
	order := tbl.Index(n.IndexColumn).Order()
	if err := v.m.lump(r.Descent, 1); err != nil {
		return err
	}
	rlo, rhi := indexRange(driving, order)
	cRow := v.m.class(r.Fetch)
	width := len(cols)
	slot := v.newSlot()
	return v.parallelFor(rhi-rlo, func(w *vecWorker, lo, hi int) error {
		st := w.st(id)
		ws := w.slot(slot, width)
		ws.owned(width, v.batch)
		for s := lo; s < hi; s += v.batch {
			e := min(s+v.batch, hi)
			nrows := e - s
			w.ev[cRow] += int64(nrows)
			st.InTuples += int64(nrows)
			st.pass(driving.id, int64(nrows))
			rows := order[rlo+s : rlo+e]
			var sel []int32
			if len(resid) > 0 {
				sel = filterBatch(st, ws, resid, 0, nrows, rows)
			}
			b := gather(ws, cols, 0, nrows, rows, sel)
			st.Out += int64(b.n)
			if err := w.deliver(b, sink); err != nil {
				return err
			}
		}
		return nil
	}, sink.done)
}

// flushOut delivers a transform's accumulated output batch — ws.nout rows,
// in as many columns as the output carries, possibly none — downstream and
// resets the slot's column buffers for the next one.
func flushOut(w *vecWorker, ws *wslot, sink vecSink) error {
	for c := range ws.data {
		ws.b.cols[c] = ws.data[c]
	}
	ws.b.n = ws.nout
	ws.b.sel = nil
	if err := w.deliver(&ws.b, sink); err != nil {
		return err
	}
	for c := range ws.data {
		ws.data[c] = ws.data[c][:0]
	}
	ws.nout = 0
	return nil
}

// carryDone is the done hook of a transform that carries partial output in
// slot: flush it downstream, then pass done on.
func carryDone(slot, width int, sink vecSink) func(w *vecWorker) error {
	return func(w *vecWorker) error {
		if ws := w.slot(slot, width); ws.nout > 0 {
			if err := flushOut(w, ws, sink); err != nil {
				return err
			}
		}
		return sink.done(w)
	}
}

// hashPart is one worker's build-side partition: row-major copies of the
// build rows in column layout. The partitions are merged into one table
// before the probe phase starts.
type hashPart struct {
	cols [][]int64
	n    int
}

// joinTable is a flat open-addressing hash index over a hash join's build
// keys, the one both engines build: heads[slot] holds the first build row
// whose key hashes to the slot (-1 when empty), and next chains further
// rows with the same key. Probing costs two or three array loads instead
// of a runtime map lookup, which is where a probe spends most of its time
// otherwise. The table is sized to stay at most half full, so linear
// probing always terminates at an empty slot.
type joinTable struct {
	mask  uint64
	heads []int32
	next  []int32
	keys  []int64
}

// mix64 is the splitmix64 finalizer — a cheap full-avalanche hash for
// int64 join keys.
func mix64(x int64) uint64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newJoinTable indexes keys (the build rows' key values, borrowed, not
// copied). Rows are inserted back to front, each at the head of its
// chain, so every chain runs in build order: the Volcano probe emits
// matches in that order, as a tuple-at-a-time hash join does, while the
// vectorized probe needs only the multiset of matches.
func newJoinTable(keys []int64) *joinTable {
	size := 1
	for size < 2*len(keys)+1 {
		size <<= 1
	}
	t := &joinTable{
		mask:  uint64(size - 1),
		heads: make([]int32, size),
		next:  make([]int32, len(keys)),
		keys:  keys,
	}
	for i := range t.heads {
		t.heads[i] = -1
	}
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		h := mix64(k) & t.mask
		for {
			head := t.heads[h]
			if head < 0 {
				t.next[i] = -1
				t.heads[h] = int32(i)
				break
			}
			if keys[head] == k {
				t.next[i] = head
				t.heads[h] = int32(i)
				break
			}
			h = (h + 1) & t.mask
		}
	}
	return t
}

// lookup returns the first build row with key k (-1 if none); further
// rows follow the next chain.
func (t *joinTable) lookup(k int64) int32 {
	h := mix64(k) & t.mask
	for {
		r := t.heads[h]
		if r < 0 {
			return -1
		}
		if t.keys[r] == k {
			return r
		}
		h = (h + 1) & t.mask
	}
}

// gather probes the table with keyCol for each live row of b and appends
// the matching (probe row, build row) index pairs to lidx/ridx, checking
// any residual equi-join keys against the materialized build columns in
// mat. It returns the filled buffers plus the residual comparison count
// (charged as CPU by the caller). Match discovery is split from output
// construction so this loop stays branch-light and the caller's column
// copies become sequential gathers.
//
// The warm path allocates nothing (pinned by TestGatherAllocFree): lidx
// and ridx are reused per-worker scratch whose capacity amortizes to the
// match high-water mark.
func (t *joinTable) gather(b *vbatch, keyCol []int64, resid []joinKey, mat [][]int64, lidx, ridx []int32) ([]int32, []int32, int) {
	nl := b.live()
	residCmps := 0
	if len(resid) == 0 {
		for k := 0; k < nl; k++ {
			ri := b.row(k)
			for mi := t.lookup(keyCol[ri]); mi >= 0; mi = t.next[mi] {
				lidx = append(lidx, ri)
				ridx = append(ridx, mi)
			}
		}
		return lidx, ridx, residCmps
	}
	for k := 0; k < nl; k++ {
		ri := b.row(k)
		for mi := t.lookup(keyCol[ri]); mi >= 0; mi = t.next[mi] {
			ok := true
			for _, kk := range resid {
				residCmps++
				if b.cols[kk.leftOff][ri] != mat[kk.rightOff][mi] {
					ok = false
					break
				}
			}
			if ok {
				lidx = append(lidx, ri)
				ridx = append(ridx, mi)
			}
		}
	}
	return lidx, ridx, residCmps
}

// streamHashJoin is the vectorized hash join: the right child drains into
// per-worker build partitions (merged before probe), then a probe
// transform streams over the left pipeline.
func (v *vecEngine) streamHashJoin(n *plan.Node, sink vecSink) error {
	id := v.idx[n]
	left, right := v.vb.shapes[n.Left], v.vb.shapes[n.Right]
	joins, _ := v.vb.predSplit(n.Preds)
	keys := v.vb.bindJoinKeys(joins, left.sch, right.sch)
	r := v.e.coster.Rates(n)

	rw := len(right.sch)
	rkey := keys[0].rightOff

	// Reuse: the build phase — right pipeline, partition merge, probe
	// table — is one window of the meter: every class registered from
	// here to the end of the build, each counted from zero and committed
	// by the time its stream call returns. A hit installs the finished
	// table and replays the window.
	key := reuseKey("vhj", rkey, -1, v.e.bindSig, n.Right.Fingerprint(), right.sch)
	var mat [][]int64
	var jt *joinTable
	spilled := false
	if e := v.reuse.lookup(key); e != nil && v.m.hit(e.window) {
		st := e.state.(*vecHJState)
		mat, jt = st.mat, st.jt
		graftStats(v.stats, e.stats, n.Right)
		v.tally.hit(windowPrice(e.window))
	} else {
		// Build phase.
		buildStart := len(v.m.cls)
		bslot := v.newSlot()
		var pmu sync.Mutex
		var parts []*hashPart
		cBuild := v.m.class(r.Build)
		collector := vecSink{
			emit: func(w *vecWorker, b *vbatch) error {
				part := sharedPart[hashPart](w, bslot, &pmu, &parts)
				if part.cols == nil {
					part.cols = make([][]int64, rw)
				}
				nl := b.live()
				w.ev[cBuild] += int64(nl)
				for k := 0; k < nl; k++ {
					ri := b.row(k)
					for c := 0; c < rw; c++ {
						part.cols[c] = append(part.cols[c], b.cols[c][ri])
					}
					part.n++
				}
				return nil
			},
			done: func(w *vecWorker) error { return nil },
		}
		if err := v.stream(n.Right, collector); err != nil {
			return err
		}

		// Merge the per-worker partitions into the probe table. parts is
		// in worker-arrival order, so mat's row order — and with it the
		// order of a probe row's matches — varies with the schedule. That
		// only permutes output rows inside an epoch; the epoch's counts,
		// and so everything the meter and the counters see, do not move.
		built := 0
		for _, p := range parts {
			built += p.n
		}
		mat = make([][]int64, rw)
		for c := range mat {
			mat[c] = make([]int64, 0, built)
		}
		for _, p := range parts {
			for c := 0; c < rw; c++ {
				mat[c] = append(mat[c], p.cols[c]...)
			}
		}
		jt = newJoinTable(mat[rkey])

		// Grace-join spill charge, as the Volcano open.
		if r.OverWorkMem(built, right.full) {
			pages := math.Ceil(float64(built) / r.SpillPageRows(right.full))
			if pages < 1 {
				pages = 1
			}
			if err := v.m.lump(r.SpillPage, int64(pages)); err != nil {
				return err
			}
			spilled = true
		}
		if v.reuse != nil && !spilled {
			v.reuse.store(key, &reuseEntry{
				window: slices.Clone(v.m.cls[buildStart:]),
				stats:  snapshotStats(v.stats, n.Right),
				state:  &vecHJState{mat: mat, jt: jt},
			})
		}
	}

	// Probe phase: transform over the left pipeline.
	oslot := v.newSlot()
	lOut, rOut := split(v.vb.shapes[n].sch, left.sch, right.sch)
	lw := len(lOut)
	ow := lw + len(rOut)
	lkey := keys[0].leftOff
	resid := keys[1:]
	cIn := v.m.class(r.Probe)
	cCmp := v.m.class(r.Cmp)
	cMatch := v.m.class(r.Out)
	cSpill := -1
	if spilled {
		// The Volcano probe charges a spill page every spillEvery-th
		// input tuple: the class counts inputs and prices one page per
		// spillEvery of them, whatever order the batches arrive in.
		cSpill = v.m.class(r.SpillPage)
		v.m.cls[cSpill].div = int64(r.SpillPageRows(left.full) + 1)
	}
	probe := vecSink{
		emit: func(w *vecWorker, b *vbatch) error {
			nl := b.live()
			st := w.st(id)
			w.ev[cIn] += int64(nl)
			if spilled {
				w.ev[cSpill] += int64(nl)
			}
			st.InTuples += int64(nl)
			ws := w.slot(oslot, ow)
			ws.owned(ow, v.batch)
			lidx, ridx, residCmps := jt.gather(b, b.cols[lkey], resid, mat, ws.idxa[:0], ws.idxb[:0])
			ws.idxa, ws.idxb = lidx, ridx
			matches := len(lidx)
			w.ev[cCmp] += int64(residCmps)
			w.ev[cMatch] += int64(matches)
			st.Matches += int64(matches)
			st.Out += int64(matches)
			for pos := 0; pos < matches; {
				take := min(v.batch-ws.nout, matches-pos)
				for c, o := range lOut {
					col, dst := b.cols[o], ws.data[c]
					for _, ri := range lidx[pos : pos+take] {
						dst = append(dst, col[ri])
					}
					ws.data[c] = dst
				}
				for c, o := range rOut {
					col, dst := mat[o], ws.data[lw+c]
					for _, mi := range ridx[pos : pos+take] {
						dst = append(dst, col[mi])
					}
					ws.data[lw+c] = dst
				}
				pos += take
				ws.nout += take
				if ws.nout == v.batch {
					if err := flushOut(w, ws, sink); err != nil {
						return err
					}
				}
			}
			return nil
		},
		done: carryDone(oslot, ow, sink),
	}
	return v.stream(n.Left, probe)
}

// streamIndexNL is the vectorized index nested-loops join: a transform
// over the outer pipeline probing the inner table's column index per outer
// row, with the Volcano engine's descent and per-match charges. The index
// is fetched (and built, on first use) here, on the composing goroutine,
// before any worker runs.
func (v *vecEngine) streamIndexNL(n *plan.Node, sink vecSink) error {
	id := v.idx[n]
	tbl := v.e.db.Table(n.Relation)
	parts := v.vb.bindIndexNL(n, v.vb.shapes[n.Left].sch, tbl)
	keys, keyCols, filters := parts.keys, parts.keyCols, parts.filters
	probeIdx := tbl.Index(n.IndexColumn)
	r := v.e.coster.Rates(n)
	cDescent := v.m.class(r.Descent)
	cEntry := v.m.class(r.Match)
	cCmp := v.m.class(r.Cmp)
	cOut := v.m.class(r.Out)
	lw := len(parts.outOff)
	ow := lw + len(parts.outIn)
	oslot := v.newSlot()
	lkey := keys[0].leftOff
	tr := vecSink{
		emit: func(w *vecWorker, b *vbatch) error {
			nl := b.live()
			st := w.st(id)
			st.InTuples += int64(nl)
			ev := w.ev
			ev[cDescent] += int64(nl)
			ws := w.slot(oslot, ow)
			ws.owned(ow, v.batch)
			for k := 0; k < nl; k++ {
				ri := b.row(k)
				for _, mi := range probeIdx.Rows(b.cols[lkey][ri]) {
					ev[cEntry]++
					ok := true
					for ki, kk := range keys[1:] {
						ev[cCmp]++
						if b.cols[kk.leftOff][ri] != int64(keyCols[1+ki][mi]) {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					st.Matches++
					for _, fp := range filters {
						ev[cCmp]++
						if !fp.eval(fp.col[mi]) {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					ev[cOut]++
					for c, o := range parts.outOff {
						ws.data[c] = append(ws.data[c], b.cols[o][ri])
					}
					for c, col := range parts.outIn {
						ws.data[lw+c] = append(ws.data[lw+c], int64(col[mi]))
					}
					ws.nout++
					st.Out++
					if ws.nout == v.batch {
						if err := flushOut(w, ws, sink); err != nil {
							return err
						}
					}
				}
			}
			return nil
		},
		done: carryDone(oslot, ow, sink),
	}
	return v.stream(n.Left, tr)
}

// streamAntiJoin is the vectorized NOT EXISTS: a filter transform that
// narrows the selection vector to outer rows with no match in the inner
// set, passing batches through without copying.
func (v *vecEngine) streamAntiJoin(n *plan.Node, sink vecSink) error {
	id := v.idx[n]
	p0 := v.e.q.Predicate(n.Preds[0])
	tbl := v.e.db.Table(n.Relation)
	off := v.vb.shapes[n.Left].sch.offset(p0.Left)
	// Reuse: the inner set depends only on the base relation; the entry
	// (unmetered — the build charge below is levied either way) is
	// shared with the Volcano engine.
	key := "anti|" + n.Relation + "|" + n.IndexColumn
	var innerSet map[int64]bool
	reused := v.reuse.lookup(key)
	if reused != nil {
		innerSet = reused.state.(map[int64]bool)
	} else {
		vals := tbl.Column(n.IndexColumn)
		innerSet = make(map[int64]bool, len(vals))
		for _, val := range vals {
			innerSet[int64(val)] = true
		}
		v.reuse.store(key, &reuseEntry{state: innerSet})
	}
	r := v.e.coster.Rates(n)
	// Build-phase charge for hashing the inner relation (Volcano open).
	if reused != nil {
		v.tally.hit(r.Build * float64(tbl.NumRows()))
	}
	if err := v.m.lump(r.Build, int64(tbl.NumRows())); err != nil {
		return err
	}
	cIn := v.m.class(r.Probe)
	cOut := v.m.class(r.Out)
	pred := n.Preds[0]
	aslot := v.newSlot()
	tr := vecSink{
		emit: func(w *vecWorker, b *vbatch) error {
			nl := b.live()
			st := w.st(id)
			st.InTuples += int64(nl)
			w.ev[cIn] += int64(nl)
			ws := w.slot(aslot, len(b.cols))
			sel := ws.sel[:0]
			col := b.cols[off]
			for k := 0; k < nl; k++ {
				ri := b.row(k)
				if innerSet[col[ri]] {
					continue // a match exists: the NOT EXISTS fails
				}
				sel = append(sel, ri)
			}
			ws.sel = sel
			surv := int64(len(sel))
			if surv == 0 {
				return nil
			}
			st.pass(pred, surv)
			st.Matches += surv
			st.Out += surv
			w.ev[cOut] += surv
			ob := &ws.b
			ob.cols = b.cols
			ob.n = b.n
			ob.sel = sel
			return w.deliver(ob, sink)
		},
		done: sink.done,
	}
	return v.stream(n.Left, tr)
}

// rowPart is one worker's slice of a materialized (row-major) input.
type rowPart struct {
	rows [][]int64
}

// sortedRows materializes a pipeline into row-major form, charges the
// sort, and sorts on key — one input of the vectorized merge join. The
// rows are collected in worker-arrival order; sortRows removes the
// schedule from it.
func (v *vecEngine) sortedRows(n *plan.Node, key int, r cost.Rates) ([][]int64, error) {
	width := len(v.vb.shapes[n].sch)
	slot := v.newSlot()
	var mu sync.Mutex
	var parts []*rowPart
	collector := vecSink{
		emit: func(w *vecWorker, b *vbatch) error {
			part := sharedPart[rowPart](w, slot, &mu, &parts)
			for k, nl := 0, b.live(); k < nl; k++ {
				ri := b.row(k)
				r := make([]int64, width)
				for c := 0; c < width; c++ {
					r[c] = b.cols[c][ri]
				}
				part.rows = append(part.rows, r)
			}
			return nil
		},
		done: func(w *vecWorker) error { return nil },
	}
	if err := v.stream(n, collector); err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p.rows)
	}
	rows := make([][]int64, 0, total)
	for _, p := range parts {
		rows = append(rows, p.rows...)
	}
	if err := v.chargeSortDrain(len(rows), v.vb.shapes[n].full, r); err != nil {
		return nil, err
	}
	sortRows(rows, key)
	return rows, nil
}

// sortRows orders materialized rows by the join key, then by every other
// column, so rows that tie on the key still land in one order whatever
// order the workers collected them in: the serial merge loop below — where
// it stands when the budget runs out, and its counters there — then
// depends on the data alone. (Fully equal rows are interchangeable, and so
// are rows that differ only in columns the run pruned: nothing reads
// those.)
func sortRows(rows [][]int64, key int) {
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		if ra[key] != rb[key] {
			return ra[key] < rb[key]
		}
		return slices.Compare(ra, rb) < 0
	})
}

// chargeSortDrain charges the incremental sort costs drainSorted accrues
// per arrived row (cost.Rates.SortRow: Σ log2(i+1) comparisons plus
// external-sort spill I/O once the run outgrows work memory) as one lump,
// summed in row order. width is the input's unpruned schema width, which
// the spill I/O prices.
func (v *vecEngine) chargeSortDrain(nrows, width int, r cost.Rates) error {
	var sum float64
	for i := 1; i <= nrows; i++ {
		cmp, spill := r.SortRow(i, width)
		sum += cmp
		sum += spill
	}
	return v.m.lump(sum, 1)
}

// streamMergeJoin is the vectorized sort-merge join: both inputs
// materialize in parallel (a pipeline breaker), sort charges replicate
// drainSorted's totals, and the merge loop itself — inherently ordered —
// runs serially, replicating the Volcano merge verbatim so InTuples and
// Matches agree exactly.
func (v *vecEngine) streamMergeJoin(n *plan.Node, sink vecSink) error {
	id := v.idx[n]
	left, right := v.vb.shapes[n.Left], v.vb.shapes[n.Right]
	joins, _ := v.vb.predSplit(n.Preds)
	keys := v.vb.bindJoinKeys(joins, left.sch, right.sch)
	r := v.e.coster.Rates(n)
	lk, rk := keys[0].leftOff, keys[0].rightOff

	// Reuse: both materialized, sorted inputs are cached as one
	// whole-node entry — collect and sort charges form one window of the
	// meter, so a hit replays the window and skips both pipelines.
	key := reuseKey("vmj", lk, rk, v.e.bindSig, n.Fingerprint(), left.sch, right.sch)
	var lrows, rrows [][]int64
	if e := v.reuse.lookup(key); e != nil && v.m.hit(e.window) {
		st := e.state.(*vecMJState)
		lrows, rrows = st.lrows, st.rrows
		graftStats(v.stats, e.stats, n.Left, n.Right)
		v.tally.hit(windowPrice(e.window))
	} else {
		sortStart := len(v.m.cls)
		var err error
		if lrows, err = v.sortedRows(n.Left, lk, r); err != nil {
			return err
		}
		if rrows, err = v.sortedRows(n.Right, rk, r); err != nil {
			return err
		}
		lspill := r.OverWorkMem(len(lrows), left.full)
		rspill := r.OverWorkMem(len(rrows), right.full)
		if v.reuse != nil && !lspill && !rspill {
			v.reuse.store(key, &reuseEntry{
				window: slices.Clone(v.m.cls[sortStart:]),
				stats:  snapshotStats(v.stats, n.Left, n.Right),
				state:  &vecMJState{lrows: lrows, rrows: rrows},
			})
		}
	}
	lOut, rOut := split(v.vb.shapes[n].sch, left.sch, right.sch)
	lw := len(lOut)
	ow := lw + len(rOut)
	oslot := v.newSlot()
	cCmp := v.m.class(r.Cmp)
	cMatch := v.m.class(r.Out)
	return v.serial(sink, func(sw *vecWorker) error {
		st := sw.st(id)
		ws := sw.slot(oslot, ow)
		ws.owned(ow, v.batch)
		var group [][]int64
		gi := 0
		var curLeft []int64
		li, ri := 0, 0
		for {
			for gi < len(group) {
				m := group[gi]
				gi++
				ok := true
				for _, kk := range keys[1:] {
					sw.ev[cCmp]++
					if curLeft[kk.leftOff] != m[kk.rightOff] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				st.Matches++
				sw.ev[cMatch]++
				for c, o := range lOut {
					ws.data[c] = append(ws.data[c], curLeft[o])
				}
				for c, o := range rOut {
					ws.data[lw+c] = append(ws.data[lw+c], m[o])
				}
				ws.nout++
				st.Out++
				if ws.nout == v.batch {
					// Every full output batch is a commit point: the
					// loop is serial over sorted rows, so the counts here
					// are a function of the data.
					if err := flushOut(sw, ws, sink); err != nil {
						return err
					}
					if err := v.barrier(sw, sink); err != nil {
						return err
					}
				}
			}

			if group != nil && li < len(lrows) {
				li++
				st.InTuples++
				if li < len(lrows) && lrows[li][lk] == curLeft[lk] {
					curLeft = lrows[li]
					gi = 0
					continue
				}
				group = nil
			}

			if li >= len(lrows) || ri >= len(rrows) {
				break
			}

			lv, rv := lrows[li][lk], rrows[ri][rk]
			sw.ev[cCmp]++
			switch {
			case lv < rv:
				li++
				st.InTuples++
			case lv > rv:
				ri++
			default:
				start := ri
				for ri < len(rrows) && rrows[ri][rk] == rv {
					ri++
				}
				group = rrows[start:ri]
				curLeft = lrows[li]
				gi = 0
			}
		}
		if ws.nout > 0 {
			return flushOut(sw, ws, sink)
		}
		return nil
	})
}

// aggPart is one worker's scalar-aggregate accumulator.
type aggPart struct {
	count int64
}

// streamAggregate is the vectorized COUNT(*) root: per-worker counts
// merged at the barrier, then a single output row [count].
func (v *vecEngine) streamAggregate(n *plan.Node, sink vecSink) error {
	id := v.idx[n]
	r := v.e.coster.Rates(n)
	slot := v.newSlot()
	var mu sync.Mutex
	var parts []*aggPart
	cIn := v.m.class(r.Cmp)
	collector := vecSink{
		emit: func(w *vecWorker, b *vbatch) error {
			nl := b.live()
			st := w.st(id)
			st.InTuples += int64(nl)
			w.ev[cIn] += int64(nl)
			sharedPart[aggPart](w, slot, &mu, &parts).count += int64(nl)
			return nil
		},
		done: func(w *vecWorker) error { return nil },
	}
	if err := v.stream(n.Left, collector); err != nil {
		return err
	}
	var count int64
	for _, p := range parts {
		count += p.count
	}
	if err := v.m.lump(r.Out, 1); err != nil {
		return err
	}
	v.stats[n].Out = 1
	return v.serial(sink, func(sw *vecWorker) error {
		return sw.deliver(&vbatch{cols: [][]int64{{count}}, n: 1}, sink)
	})
}

// groupPart is one worker's grouped-aggregate accumulator.
type groupPart struct {
	groups map[int64]int64
}

// streamGroupAggregate is the vectorized grouped COUNT: per-worker hash
// partitions merged at the barrier, groups emitted in ascending key
// order (as the Volcano operator) in batch-sized slices.
func (v *vecEngine) streamGroupAggregate(n *plan.Node, sink vecSink) error {
	id := v.idx[n]
	off := v.vb.shapes[n.Left].sch.offset(query.ColumnRef{Relation: n.Relation, Column: n.IndexColumn})
	r := v.e.coster.Rates(n)
	slot := v.newSlot()
	var mu sync.Mutex
	var parts []*groupPart
	cIn := v.m.class(r.Group)
	cOut := v.m.class(r.Out)
	collector := vecSink{
		emit: func(w *vecWorker, b *vbatch) error {
			nl := b.live()
			st := w.st(id)
			st.InTuples += int64(nl)
			w.ev[cIn] += int64(nl)
			part := sharedPart[groupPart](w, slot, &mu, &parts)
			if part.groups == nil {
				part.groups = make(map[int64]int64)
			}
			col := b.cols[off]
			for k := 0; k < nl; k++ {
				part.groups[col[b.row(k)]]++
			}
			return nil
		},
		done: func(w *vecWorker) error { return nil },
	}
	if err := v.stream(n.Left, collector); err != nil {
		return err
	}
	groups := make(map[int64]int64)
	for _, p := range parts {
		for k, c := range p.groups {
			groups[k] += c
		}
	}
	order := make([]int64, 0, len(groups))
	for k := range groups {
		order = append(order, k)
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
	return v.serial(sink, func(sw *vecWorker) error {
		st := sw.st(id)
		for s := 0; s < len(order); s += v.batch {
			e := min(s+v.batch, len(order))
			nrows := e - s
			sw.ev[cOut] += int64(nrows)
			kcol := make([]int64, nrows)
			ccol := make([]int64, nrows)
			for i := 0; i < nrows; i++ {
				kcol[i] = order[s+i]
				ccol[i] = groups[order[s+i]]
			}
			st.Out += int64(nrows)
			b := &vbatch{cols: [][]int64{kcol, ccol}, n: nrows}
			if err := sw.deliver(b, sink); err != nil {
				return err
			}
		}
		return nil
	})
}
