package exec

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/plan"
)

// This file is the morsel-parallel batch runtime: column batches with
// selection vectors, a morsel scheduler that issues work in epochs, and
// the count meter. The per-operator kernels live in operators.go next to
// their Volcano counterparts; both engines charge the same per-row
// formulas, so a completed run reports the same tuple counters on either
// (and the same cost up to float summation order).
//
// Metering is counts, then commit. Kernels never compute cost: a charge
// site registers a class (a rate) when its pipeline is composed and counts
// events into its worker's int64 vector; countMeter.price is the one place
// cost is computed, from the integers alone, so it is bit-identical at any
// worker count. Work is issued in epochs that depend only on the morsel
// index, and at the barrier after each an epoch's counts and counters join
// the run's totals only if the run still prices within budget with them
// (vecEngine.commit). An epoch that does not fit is discarded whole: the
// run reports Completed=false, CostUsed=Budget and the counters of the
// last committed barrier — at every worker count.

// vbatch is one column batch: width-many int64 vectors of n rows plus an
// optional selection vector listing the live row indices. No batch aliases
// table storage: the scans widen their live rows from the table's int32
// vectors into worker-owned buffers (gather), and transforms fill their
// own. A batch is only valid for the duration of the sink call it is
// passed to — workers reuse the backing arrays for the next batch.
type vbatch struct {
	cols [][]int64
	sel  []int32 // live rows, ascending; nil means all n rows are live
	n    int
}

// live returns the number of selected rows.
func (b *vbatch) live() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// row maps the k-th live row to its physical index.
func (b *vbatch) row(k int) int32 {
	if b.sel != nil {
		return b.sel[k]
	}
	return int32(k)
}

// vecSink consumes a pipeline's batches. emit is called once per batch
// from worker goroutines (each call entirely within one worker); done is
// called for every worker at every barrier and flushes any carried partial
// output downstream, leaving nothing carried.
type vecSink struct {
	emit func(w *vecWorker, b *vbatch) error
	done func(w *vecWorker) error
}

// class is one charge site's pricing: each of its n events costs rate model
// units — one of the node's cost.Rates — or, with div > 1, each div events
// do: the spilled hash probe's one page per spillEvery inputs.
type class struct {
	rate float64
	div  int64
	n    int64
}

// countMeter is the vectorized engine's budget meter: committed event
// counts per class, priced on demand. Only the composing goroutine writes
// it; workers read it in their mid-epoch check, while no one writes.
type countMeter struct {
	budget float64
	cls    []class
}

// class registers a charge site; the index is its slot in event vectors.
func (m *countMeter) class(rate float64) int {
	m.cls = append(m.cls, class{rate: rate, div: 1})
	return len(m.cls) - 1
}

// price is the only place the vectorized engine computes cost: committed
// counts plus extra (an epoch's counts by class; may be nil), in class order.
func (m *countMeter) price(extra []int64) float64 {
	var p float64
	for c := range m.cls {
		k := &m.cls[c]
		n := k.n
		if c < len(extra) {
			n += extra[c]
		}
		if k.div > 1 {
			n /= k.div
		}
		p += k.rate * float64(n)
	}
	return p
}

// over reports whether extra would take the run past its budget. Rates are
// non-negative and float addition is monotone: once over, always over.
func (m *countMeter) over(extra []int64) bool { return m.price(extra) > m.budget }

// lump is a one-off charge levied between pipelines (index descent, sort
// drain, grace-spill pages, anti-join build): n events of a fresh class,
// committed at once.
func (m *countMeter) lump(rate float64, n int64) error {
	m.cls = append(m.cls, class{rate: rate, div: 1, n: n})
	if m.over(nil) {
		return ErrBudgetExceeded
	}
	return nil
}

// hit replays a reuse entry's build window — the very classes and counts a
// rebuild would register and commit — if the run stays within budget with
// all of it, the condition under which the rebuild would complete too.
func (m *countMeter) hit(window []class) bool {
	m.cls = append(m.cls, window...)
	if m.over(nil) {
		m.cls = m.cls[:len(m.cls)-len(window)]
		return false
	}
	return true
}

// vecWorker is one morsel worker's private state. It lives for a pipeline —
// scratch and breaker partitions persist across epochs — but its counters
// cover one epoch: commit folds them into the run's totals and zeroes them.
type vecWorker struct {
	v      *vecEngine
	stats  []NodeStats // this epoch's per-node counters
	ev     []int64     // event counts by class, not yet published to v.epoch
	seen   []int64     // check's scratch: ev plus a snapshot of v.epoch
	nbatch int64
	err    error // what stopped this worker's epoch, read at the barrier
	slots  map[int]*wslot
	aux    map[int]any
}

// wslot is one operator's scratch in one worker: a reusable batch header,
// a selection-vector buffer, a per-row fail bitmap, and owned column
// buffers for gathered or constructed output.
type wslot struct {
	b    vbatch
	sel  []int32
	fail []bool
	data [][]int64
	// nout is the number of rows accumulated in data — carried separately
	// because an output that no ancestor reads a column of has no column
	// to take a length from.
	nout int
	// idxa/idxb are match-index scratch buffers (probe row, build row)
	// for join kernels that gather matches before copying columns.
	idxa []int32
	idxb []int32
}

// failbuf returns the slot's per-row failure bitmap, zeroed, sized n. The
// bitmap grows to batch capacity once per worker and is reused after.
func (ws *wslot) failbuf(n int) []bool {
	if cap(ws.fail) < n {
		ws.fail = make([]bool, n)
	} else {
		ws.fail = ws.fail[:n]
		clear(ws.fail)
	}
	return ws.fail
}

func (w *vecWorker) st(i int) *NodeStats { return &w.stats[i] }

// pass bumps a predicate's pass counter, creating the map lazily, once per
// (worker, node): worker stats start without maps so untouched nodes cost
// nothing to merge.
func (s *NodeStats) pass(id int, n int64) {
	if s.PassBy == nil {
		s.PassBy = make(map[int]int64)
	}
	s.PassBy[id] += n
}

// slot returns the worker's scratch for slot id, sized for width columns.
func (w *vecWorker) slot(id, width int) *wslot {
	ws := w.slots[id]
	if ws == nil {
		ws = &wslot{}
		w.slots[id] = ws
	}
	if ws.b.cols == nil || len(ws.b.cols) != width {
		ws.b.cols = make([][]int64, width)
	}
	return ws
}

// owned ensures the slot's column buffers exist (width columns with batch
// capacity) and resets their lengths for a fresh output batch.
func (ws *wslot) owned(width, batchCap int) {
	if ws.data == nil || len(ws.data) != width {
		ws.data = make([][]int64, width)
		for c := range ws.data {
			ws.data[c] = make([]int64, 0, batchCap)
		}
	}
}

// check is the mid-epoch early-out, run before every delivered batch: do
// the committed counts, plus what the epoch's workers have published, plus
// this worker's own since, already exceed the budget? That counts every
// event at most once and misses the other workers' current morsels, so it
// under-estimates the epoch: it can only stop work the barrier would
// discard anyway — sooner, never differently.
func (w *vecWorker) check() error {
	w.nbatch++
	v := w.v
	if v.stop.Load() {
		return ErrBudgetExceeded
	}
	for c := range w.ev {
		w.seen[c] = w.ev[c] + v.epoch[c].Load()
	}
	if v.m.over(w.seen) {
		v.stop.Store(true)
		return ErrBudgetExceeded
	}
	return nil
}

// publish moves the worker's counts into the epoch's shared vector — after
// every morsel, so a check lags the rest of its epoch by a morsel a worker.
func (w *vecWorker) publish() {
	for c, n := range w.ev {
		if n != 0 {
			w.v.epoch[c].Add(n)
			w.ev[c] = 0
		}
	}
}

// deliver checks the budget and hands the batch to the sink — unless a
// filter left it no live rows, so emit never sees an empty batch.
func (w *vecWorker) deliver(b *vbatch, s vecSink) error {
	if err := w.check(); err != nil || b.live() == 0 {
		return err
	}
	return s.emit(w, b)
}

// vecEngine drives one vectorized execution.
type vecEngine struct {
	e       *Engine
	collect func(row []int64) // Options.Collect
	m       countMeter
	vb      *builder // shapes and predicate-binding helpers only
	stats   map[*plan.Node]*NodeStats
	idx     map[*plan.Node]int
	nodes   []*plan.Node
	batch   int
	workers int
	nslots  int
	batches int64
	// epoch is the current epoch's published event counts by class: what
	// commit prices at the barrier, and how a worker's check sees the rest
	// of its epoch. Zero between epochs.
	epoch []atomic.Int64
	// stop is raised by the first worker whose check trips: the run aborts.
	stop atomic.Bool

	// reuse is the operator-state cache (nil unless Options.Reuse is
	// set); tally counts this execution's hits. Both are
	// touched only between pipelines, on the composing goroutine.
	reuse *ReuseCache
	tally reuseTally

	collectMu sync.Mutex
}

// newSlot hands out a scratch-slot id at pipeline-composition time.
func (v *vecEngine) newSlot() int {
	s := v.nslots
	v.nslots++
	return s
}

// newWorker builds a worker once its pipeline is composed, so ev (and the
// epoch vector, regrown here while it is all zero) covers its every class.
func (v *vecEngine) newWorker() *vecWorker {
	if len(v.epoch) < len(v.m.cls) {
		v.epoch = make([]atomic.Int64, len(v.m.cls))
	}
	return &vecWorker{
		v:     v,
		stats: make([]NodeStats, len(v.nodes)),
		ev:    make([]int64, len(v.m.cls)),
		seen:  make([]int64, len(v.m.cls)),
		slots: make(map[int]*wslot),
		aux:   make(map[int]any),
	}
}

// commit is the barrier after an epoch: its event counts join the committed
// totals only if the run still prices within budget with them, and the
// per-node counters follow the counts; otherwise none of the epoch is kept.
// Runs on the composing goroutine after the workers have joined.
func (v *vecEngine) commit(ws []*vecWorker) error {
	for _, w := range ws {
		v.batches += w.nbatch
		w.nbatch = 0
		if w.err != nil {
			return w.err
		}
		w.publish()
	}
	sum := ws[0].seen
	for c := range sum {
		sum[c] = v.epoch[c].Swap(0)
	}
	if v.m.over(sum) {
		return ErrBudgetExceeded
	}
	for c, n := range sum {
		v.m.cls[c].n += n
	}
	for _, w := range ws {
		for i := range w.stats {
			s := &w.stats[i]
			if s.Out == 0 && s.Matches == 0 && s.InTuples == 0 && len(s.PassBy) == 0 {
				continue
			}
			g := v.stats[v.nodes[i]]
			g.Out += s.Out
			g.Matches += s.Matches
			g.InTuples += s.InTuples
			for id, c := range s.PassBy {
				g.PassBy[id] += c
			}
			clear(s.PassBy)
			s.Out, s.Matches, s.InTuples = 0, 0, 0
		}
	}
	return nil
}

// epochMorsels caps an epoch's width. Epochs end at morsels 1, 4, 16, 64, …
// — each three times everything before it — so a step that aborts early
// discards little, a one-morsel input never forks, and a scan of n morsels
// meets log₄ n barriers. A barrier is a fork-join, tens of microseconds
// when an idle CPU has to be woken, and its price is the barrier count:
// on a 600k-row, three-pipeline plan at two workers, doubling epochs (26
// barriers) ran 7 % slower than one epoch per pipeline, quadrupling (16)
// 3.5 %. The cap keeps what a late abort learns fine-grained on large
// scans, where a barrier per 256 morsels costs under 1 %; at 64 the same
// plan met 20 more barriers and ran 8 % slower.
const epochMorsels = 256

// parallelFor is the morsel scheduler: rows [0, total) are cut into
// fixed-size morsels, issued in epochs. Under a budget the epoch starting at
// morsel m is max(1, min(3m, epochMorsels)) morsels wide — a function of the
// morsel index alone, never of the worker count. Within an epoch up to
// v.workers workers claim morsels from an atomic cursor; body processes one
// morsel (cutting it into batches locally) and fin flushes the worker's
// carried transform state downstream once the epoch's morsels are claimed,
// so at the barrier every row of the epoch has been through the whole
// pipeline and the epoch's counts depend on its rows alone. Workers are
// forked and joined per epoch (the first runs on the caller, so a one-morsel
// epoch forks nothing); commit then decides whether the epoch counts.
func (v *vecEngine) parallelFor(total int, body func(w *vecWorker, lo, hi int) error, fin func(w *vecWorker) error) error {
	morsels := (total + MorselRows - 1) / MorselRows
	var ws []*vecWorker
	var cursor atomic.Int64
	for first := 0; first < morsels; {
		end := morsels // an unbudgeted run cannot abort: one epoch, one barrier
		if v.m.budget < math.Inf(1) {
			end = min(first+max(1, min(3*first, epochMorsels)), morsels)
		}
		for len(ws) < min(end-first, v.workers) {
			ws = append(ws, v.newWorker())
		}
		active := ws[:min(end-first, v.workers)]
		cursor.Store(int64(first))
		run := func(w *vecWorker) {
			for !v.stop.Load() {
				m := int(cursor.Add(1)) - 1
				if m >= end {
					w.err = fin(w)
					return
				}
				lo := m * MorselRows
				if w.err = body(w, lo, min(lo+MorselRows, total)); w.err != nil {
					return
				}
				w.publish()
			}
		}
		var wg sync.WaitGroup
		for _, w := range active[1:] {
			wg.Add(1)
			go func(w *vecWorker) {
				defer wg.Done()
				run(w)
			}(w)
		}
		run(active[0])
		wg.Wait()
		if err := v.commit(active); err != nil {
			return err
		}
		first = end
	}
	return nil
}

// serial runs an inherently ordered stage — the merge-join merge loop,
// aggregate emission — as a one-morsel pipeline: one worker, on the caller,
// flushed and committed at the end. One goroutine working in a fixed order
// is repeatable as it is; a long body calls barrier to commit as it goes.
func (v *vecEngine) serial(sink vecSink, body func(w *vecWorker) error) error {
	return v.parallelFor(1, func(w *vecWorker, _, _ int) error { return body(w) }, sink.done)
}

// barrier is a serial stage's commit point: flush what w's sink chain
// carries, so the counts cover whole rows, then commit them.
func (v *vecEngine) barrier(w *vecWorker, sink vecSink) error {
	if err := sink.done(w); err != nil {
		return err
	}
	return v.commit([]*vecWorker{w})
}

// sharedPart returns the worker's instance of a per-worker partition
// (hash-build partition, row collector, aggregate accumulator),
// registering it in the pipeline-shared list so the stage barrier can
// merge all partitions after the workers join.
func sharedPart[T any](w *vecWorker, slot int, mu *sync.Mutex, all *[]*T) *T {
	if p, ok := w.aux[slot]; ok {
		return p.(*T)
	}
	p := new(T)
	w.aux[slot] = p
	mu.Lock()
	*all = append(*all, p)
	mu.Unlock()
	return p
}

// validate walks the driven subtree surfacing the same contract errors
// the Volcano builder reports, before any work is charged.
func (v *vecEngine) validate(root *plan.Node) error {
	var verr error
	root.Walk(func(n *plan.Node) {
		if verr != nil {
			return
		}
		switch n.Op {
		case plan.OpSeqScan, plan.OpIndexNLJoin, plan.OpAggregate, plan.OpAntiJoin, plan.OpGroupAggregate:
		case plan.OpIndexScan:
			found := false
			for _, id := range n.Preds {
				if v.e.q.Predicate(id).Left.Column == n.IndexColumn {
					found = true
					break
				}
			}
			if !found {
				verr = errors.New("exec: index scan without a predicate on its index column")
			}
		case plan.OpHashJoin, plan.OpMergeJoin:
			if _, sels := v.vb.predSplit(n.Preds); len(sels) > 0 {
				verr = fmt.Errorf("exec: %s with selection predicates", map[plan.Op]string{plan.OpHashJoin: "hash join", plan.OpMergeJoin: "merge join"}[n.Op])
			}
		default:
			verr = fmt.Errorf("exec: unknown operator %v", n.Op)
		}
	})
	return verr
}

// rootSink terminates the driven pipeline: counters are maintained by the
// operators themselves, so the root only materializes rows for Collect.
func (v *vecEngine) rootSink() vecSink {
	collect := v.collect
	return vecSink{
		emit: func(w *vecWorker, b *vbatch) error {
			if collect == nil {
				return nil
			}
			v.collectMu.Lock()
			defer v.collectMu.Unlock()
			for k, nl := 0, b.live(); k < nl; k++ {
				ri := b.row(k)
				r := make([]int64, len(b.cols))
				for c := range b.cols {
					r[c] = b.cols[c][ri]
				}
				// Serializing collect callbacks is collectMu's entire purpose; the
				// callback contract forbids blocking.
				collect(r)
			}
			return nil
		},
		done: func(w *vecWorker) error { return nil },
	}
}

// stream executes the pipeline rooted at n, pushing its output batches
// into sink. Pipeline breakers (hash build sides, sorts, aggregates)
// materialize inside their stream functions; on return the subtree's
// counters are committed and, when err is nil, n is marked done.
func (v *vecEngine) stream(n *plan.Node, sink vecSink) error {
	var err error
	switch n.Op {
	case plan.OpSeqScan:
		err = v.streamSeqScan(n, sink)
	case plan.OpIndexScan:
		err = v.streamIndexScan(n, sink)
	case plan.OpHashJoin:
		err = v.streamHashJoin(n, sink)
	case plan.OpIndexNLJoin:
		err = v.streamIndexNL(n, sink)
	case plan.OpAntiJoin:
		err = v.streamAntiJoin(n, sink)
	case plan.OpMergeJoin:
		err = v.streamMergeJoin(n, sink)
	case plan.OpAggregate:
		err = v.streamAggregate(n, sink)
	case plan.OpGroupAggregate:
		err = v.streamGroupAggregate(n, sink)
	default:
		return fmt.Errorf("exec: unknown operator %v", n.Op)
	}
	if err == nil {
		st := v.stats[n]
		st.Done, st.InputsDone = true, true
	}
	return err
}

// runVectorized is Run's batch-at-a-time implementation. The executor
// contract is the Volcano engine's — budgeted abort in optimizer cost
// units, spill-mode starvation, per-node tuple counters identical on
// completed runs — except that an aborted run reports exactly the budget
// as its cost and the counters of its last committed barrier.
func (e *Engine) runVectorized(driven *plan.Node, opts Options, budget float64) (Result, error) {
	v := &vecEngine{
		e:       e,
		collect: opts.Collect,
		m:       countMeter{budget: budget},
		vb:      &builder{e: e, shapes: e.shapes(driven, opts.Collect != nil)},
		stats:   make(map[*plan.Node]*NodeStats),
		idx:     make(map[*plan.Node]int),
		batch:   opts.BatchSize,
		workers: opts.Parallelism,
		reuse:   opts.Reuse,
	}
	if err := v.validate(driven); err != nil {
		return Result{}, err
	}
	driven.Walk(func(n *plan.Node) {
		v.idx[n] = len(v.nodes)
		v.nodes = append(v.nodes, n)
		v.stats[n] = &NodeStats{PassBy: make(map[int]int64)}
	})

	err := v.stream(driven, v.rootSink())

	res := Result{
		Stats:        v.stats,
		CostUsed:     cost.Cost(v.m.price(nil)),
		Batches:      v.batches,
		Workers:      v.workers,
		ReuseHits:    v.tally.hits,
		SalvagedCost: cost.Cost(v.tally.salvaged),
	}
	if errors.Is(err, ErrBudgetExceeded) {
		res.CostUsed = cost.Cost(budget)
	}
	return res, err
}
