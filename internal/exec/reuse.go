package exec

// Cross-execution operator-state reuse (the bouquet protocol's answer to
// its own robustness tax): a bouquet run re-executes the same plans — and
// plans sharing subtrees — dozens of times under growing budgets,
// rebuilding identical join hash tables, sorted runs, and anti-join inner
// sets from scratch at every step. The ReuseCache salvages that state
// across executions within one run.
//
// The contract that keeps the protocol's accounting honest: reuse never
// changes what the budget meter sees. An entry records its build window —
// the charges the state's construction accrued when it was first built —
// and a hit replays it, only when the whole of it fits under the step's
// remaining budget: the same condition under which the from-scratch build
// would have completed (charges are non-negative, so no prefix of them
// could have run out of budget earlier). Executions that would have
// aborted mid-build therefore abort mid-build, identically. The step
// sequence, learned selectivities, tuple counters, and result rows of a
// bouquet run are unchanged by reuse; only wall-clock time and allocations
// shrink. The vectorized engine's window is the event counts of the
// classes the build registered, so a hit adds the very integers a rebuild
// would and charged costs are bit-identical with reuse on and off; the
// Volcano meter is a running float sum, so its window is one lump and its
// costs agree up to float summation association.
//
// What is cacheable: fully-completed, read-only materialized state —
// hash-join build tables, merge-join sorted inputs, anti-join inner
// sets. What is never cached: partial or in-flight state (a build the
// budget interrupted) and spill-tainted state (a build or sort that
// overflowed work memory and charged spill I/O — its charge profile is
// entangled with the probe phase). State completed *before* a later budget
// abort is salvaged: the entry is stored the moment the build finishes,
// so an execution that aborts during its probe phase still seeds the
// next step's hit.

import (
	"fmt"
	"maps"
	"sync"

	"repro/internal/plan"
)

// ReuseCache is a per-run cache of completed operator state, keyed by the
// producing subtree's memoized plan fingerprint plus the engine's binding
// signature. Create one per bouquet run (core.Bouquet.Run does) and
// pass it to every execution of that run via Options.Reuse.
//
// Entries are only ever read after insertion (first store wins), and the
// engines consult the cache from the orchestration goroutine — pipeline
// composition in the vectorized engine, iterator open in the Volcano
// engine — never from morsel workers. The mutex makes the cache safe for
// unanticipated callers anyway; it is uncontended in practice.
type ReuseCache struct {
	mu      sync.Mutex
	entries map[string]*reuseEntry
}

// NewReuseCache builds an empty cache.
func NewReuseCache() *ReuseCache {
	return &ReuseCache{entries: make(map[string]*reuseEntry)}
}

// Len reports the number of cached entries (diagnostics and tests).
func (c *ReuseCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// reuseEntry is one piece of salvaged operator state.
type reuseEntry struct {
	// window is the charges the state's construction accrued when it was
	// built, replayed on every hit so budget accounting is unchanged: the
	// classes a vectorized build registered with their final counts, or
	// a Volcano build's single lump. Empty for state whose construction
	// is charged regardless (the anti-join inner set).
	window []class
	// stats is the pre-order counter snapshot of the producing
	// subtree(s), grafted onto the consuming execution so selectivity
	// learning sees exactly the counters a from-scratch build would
	// have produced.
	stats []NodeStats
	// state is the engine-specific materialized state. All variants are
	// read-only after construction and safe to share across executions:
	//   *hjBuildState   Volcano hash-join build arena + joinTable
	//   *mjSortState    Volcano merge-join sorted inputs (both sides)
	//   *vecHJState     vectorized hash-join merged build + joinTable
	//   *vecMJState     vectorized merge-join sorted inputs (both sides)
	//   map[int64]bool  anti-join inner set (shared by both engines)
	state any
}

// lumpWindow is a Volcano build's window: its meter is a running float
// sum, so all it can record is the one lump the sum grew by.
func lumpWindow(c float64) []class { return []class{{rate: c, div: 1, n: 1}} }

// windowPrice is what a build window's charges come to on their own —
// the cost a hit salvages.
func windowPrice(window []class) float64 {
	m := countMeter{cls: window}
	return m.price(nil)
}

// hjBuildState is a Volcano hash join's completed build phase: the build
// rows in one flat arena and the joinTable over their first key, whose
// chains run in build order.
type hjBuildState struct {
	rows []int64
	jt   *joinTable
}

// mjSortState is a Volcano merge join's materialized, sorted inputs.
type mjSortState struct {
	lrows, rrows []row
}

// vecHJState is a vectorized hash join's merged build partitions and the
// flat probe table over them.
type vecHJState struct {
	mat [][]int64
	jt  *joinTable
}

// vecMJState is a vectorized merge join's materialized, sorted inputs.
type vecMJState struct {
	lrows, rrows [][]int64
}

// lookup returns the entry stored under key, or nil.
func (c *ReuseCache) lookup(key string) *reuseEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key]
}

// store inserts an entry; the first store for a key wins (identical state
// would be rebuilt identically, so later stores add nothing).
func (c *ReuseCache) store(key string, e *reuseEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		c.entries[key] = e
	}
}

// reuseKey builds a cache key: a state-kind tag, the join-key offsets the
// state is organized by (-1 when not applicable), the engine's binding
// signature, the producing subtree's canonical fingerprint, and the column
// lists of the state's rows. Equal fingerprints guarantee structurally
// identical subtrees, equal binding signatures identical selection
// constants, and equal column lists the same pruned rows (one subtree
// carries different columns under different parents, or when a run
// collects rows), so equal keys guarantee bit-identical state.
func reuseKey(kind string, off1, off2 int, bindSig, fp string, cols ...schema) string {
	return fmt.Sprintf("%s|%d|%d|%s|%s|%v", kind, off1, off2, bindSig, fp, cols)
}

// reuseTally accumulates one execution's reuse observations, surfaced on
// Result (and from there on concrete steps, trace spans, and metrics).
type reuseTally struct {
	hits     int
	salvaged float64
}

func (t *reuseTally) hit(c float64) {
	t.hits++
	t.salvaged += c
}

// clone copies the counters with a PassBy map of their own, so executions
// never share mutable counter state.
func (s NodeStats) clone() NodeStats {
	s.PassBy = maps.Clone(s.PassBy)
	return s
}

// snapshotStats copies the counters of the given subtrees in pre-order
// walk order — taken at the moment a build completes, so every counter in
// the snapshot is final.
func snapshotStats(stats map[*plan.Node]*NodeStats, roots ...*plan.Node) []NodeStats {
	var out []NodeStats
	for _, root := range roots {
		root.Walk(func(n *plan.Node) { out = append(out, stats[n].clone()) })
	}
	return out
}

// graftStats installs a snapshot onto the consuming execution's counters,
// aligning by pre-order walk — sound because entries are keyed by
// fingerprint, and equal fingerprints imply identical tree structure.
func graftStats(stats map[*plan.Node]*NodeStats, snap []NodeStats, roots ...*plan.Node) {
	i := 0
	for _, root := range roots {
		root.Walk(func(n *plan.Node) {
			*stats[n] = snap[i].clone()
			i++
		})
	}
	if i != len(snap) {
		panic("exec: reuse snapshot does not align with consuming subtree — fingerprint collision or engine bug")
	}
}
