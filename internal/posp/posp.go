// Package posp computes the Parametric Optimal Set of Plans (POSP): the set
// of plans that are optimal somewhere in a query's error-prone selectivity
// space, together with the plan diagram mapping each ESS grid location to
// its optimal plan and cost (paper §4.2).
//
// Generation is embarrassingly parallel — each grid location is an
// independent selectivity-injected optimization — and the package exploits
// that with a worker pool while keeping plan numbering deterministic.
package posp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// Diagram is a (possibly sparse) plan diagram: for each ESS grid location,
// the optimal plan and its cost. Locations never optimized (skipped by the
// contour-focused generator) have PlanID -1 and NaN cost.
//
// Plans are told apart by pointer. One optimizer's plans are interned, so
// equal plans are one pointer, and a snapshot's plans are distinct; a
// diagram is filled from one of the two. A finished diagram holds only the
// per-location IDs and costs and the plans themselves: the numbering index
// exists while the diagram is being filled, and Compact drops it.
type Diagram struct {
	space *ess.Space

	planID []int32     // per flat index; -1 = not optimized
	cost   []cost.Cost // optimal cost per flat index; NaN = not optimized

	plans []*plan.Node
	// fill numbers plans while the diagram is being filled; nil once
	// Compact has dropped it.
	fill *numbering
}

// numbering maps each plan pointer seen so far to its diagram ID. last
// remembers the latest lookup: neighbouring locations mostly share their
// plan.
type numbering struct {
	byNode map[*plan.Node]int
	last   *plan.Node
	lastID int
}

// NewDiagram returns an empty diagram over space.
func NewDiagram(space *ess.Space) *Diagram {
	n := space.NumPoints()
	d := &Diagram{
		space:  space,
		planID: make([]int32, n),
		cost:   make([]cost.Cost, n),
	}
	for i := range d.planID {
		d.planID[i] = -1
		d.cost[i] = cost.Cost(math.NaN())
	}
	return d
}

// Space returns the underlying ESS grid.
func (d *Diagram) Space() *ess.Space { return d.space }

// Set records the optimal plan and cost for the grid location flat,
// returning the plan's diagram ID (assigning a new one for unseen plans).
func (d *Diagram) Set(flat int, p *plan.Node, c cost.Cost) int {
	id := d.registerPlan(p)
	d.planID[flat] = int32(id)
	d.cost[flat] = c
	return id
}

// registerPlan returns p's diagram ID, assigning the next one to a plan
// not seen before. The first call after Compact rebuilds the index from
// the diagram's plans.
func (d *Diagram) registerPlan(p *plan.Node) int {
	if d.fill == nil {
		d.fill = &numbering{byNode: make(map[*plan.Node]int, len(d.plans)), lastID: -1}
		for id, q := range d.plans {
			d.fill.byNode[q] = id
		}
	}
	f := d.fill
	if p == f.last {
		return f.lastID
	}
	id, ok := f.byNode[p]
	if !ok {
		id = len(d.plans)
		d.plans = append(d.plans, p)
		f.byNode[p] = id
	}
	f.last, f.lastID = p, id
	return id
}

// Compact ends the filling of the diagram by dropping the numbering index
// Set keeps. Generate, FromSnapshot and contour.FocusedContext return
// compacted diagrams. A later Set still works; it rebuilds the index.
func (d *Diagram) Compact() { d.fill = nil }

// PlanID returns the diagram plan ID at flat, or -1 if not optimized.
func (d *Diagram) PlanID(flat int) int { return int(d.planID[flat]) }

// Cost returns the optimal cost at flat (NaN if not optimized).
func (d *Diagram) Cost(flat int) cost.Cost { return d.cost[flat] }

// Covered reports whether flat was optimized.
func (d *Diagram) Covered(flat int) bool { return d.planID[flat] >= 0 }

// Plan returns the plan with diagram ID id.
func (d *Diagram) Plan(id int) *plan.Node { return d.plans[id] }

// Plans returns all distinct plans, indexed by diagram ID. The slice is
// shared; do not mutate.
func (d *Diagram) Plans() []*plan.Node { return d.plans }

// NumPlans returns the POSP cardinality observed so far.
func (d *Diagram) NumPlans() int { return len(d.plans) }

// Coverage returns the fraction of grid locations optimized.
func (d *Diagram) Coverage() float64 {
	n := 0
	for _, id := range d.planID {
		if id >= 0 {
			n++
		}
	}
	return float64(n) / float64(len(d.planID))
}

// CostBounds returns the minimum and maximum optimal cost over covered
// locations. It panics if the diagram is empty.
func (d *Diagram) CostBounds() (cmin, cmax cost.Cost) {
	cmin, cmax = cost.Cost(math.Inf(1)), cost.Cost(math.Inf(-1))
	for i, id := range d.planID {
		if id < 0 {
			continue
		}
		if d.cost[i] < cmin {
			cmin = d.cost[i]
		}
		if d.cost[i] > cmax {
			cmax = d.cost[i]
		}
	}
	if math.IsInf(cmin.F(), 1) {
		panic("posp: empty diagram")
	}
	return cmin, cmax
}

// Generate is GenerateContext under a context that is never cancelled.
// Cancellation is GenerateContext's only error, so the panic on one is
// unreachable.
func Generate(opt *optimizer.Optimizer, space *ess.Space, workers int) *Diagram {
	d, err := GenerateContext(context.Background(), opt, space, workers)
	if err != nil {
		panic(err)
	}
	return d
}

// generateBatch is how many locations GenerateContext optimizes between
// two polls of its context.
const generateBatch = 1024

// GenerateContext exhaustively optimizes every grid location of space
// with opt, using up to workers goroutines (0 means GOMAXPROCS), a batch
// of locations at a time. Plan numbering is deterministic: IDs are
// assigned by first appearance in flat-index order. ctx is polled before
// each batch; on cancellation its error is returned with no diagram.
func GenerateContext(ctx context.Context, opt *optimizer.Optimizer, space *ess.Space, workers int) (*Diagram, error) {
	n := space.NumPoints()
	d := NewDiagram(space)
	batch := make([]int, 0, min(n, generateBatch))
	for lo := 0; lo < n; lo += len(batch) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batch = batch[:min(generateBatch, n-lo)]
		for i := range batch {
			batch[i] = lo + i
		}
		for i, res := range OptimizeAll(opt, space, batch, workers) {
			d.Set(batch[i], res.Plan, res.Cost)
		}
	}
	d.Compact()
	return d, nil
}

// maxGrain caps how many consecutive locations an OptimizeAll worker
// claims at once.
const maxGrain = 16

// OptimizeAll runs opt at each listed location with up to workers
// goroutines (0 means GOMAXPROCS), returning results positionally parallel
// to flats; it is the one batch primitive both generators — GenerateContext
// and contour.FocusedContext — are built on. Work distribution is a shared
// atomic cursor over runs of locations, each worker fills one selectivity
// buffer in place, and results land directly in the pre-sized slice — no
// channels, no per-item sends, no map assembly on the hot compile path.
// The caller's serial Diagram.Set merge numbers the plans by pointer, so
// nothing is fingerprinted.
func OptimizeAll(opt *optimizer.Optimizer, space *ess.Space, flats []int, workers int) []optimizer.Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(flats)))
	results := make([]optimizer.Result, len(flats))
	// Workers claim runs of grain locations, so that on a cheap query the
	// cursor and the results' cache lines are not shared call by call.
	grain := min(maxGrain, max(1, len(flats)/(workers*maxGrain)))
	var cursor atomic.Int64
	work := func() {
		var sels cost.Selectivities
		for {
			lo := int(cursor.Add(int64(grain))) - grain
			if lo >= len(flats) {
				return
			}
			for i := lo; i < min(lo+grain, len(flats)); i++ {
				sels = space.SelsAt(sels, flats[i])
				results[i] = opt.Optimize(sels)
			}
		}
	}
	// The caller is the first worker, so a small batch never waits for a
	// goroutine to be scheduled.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return results
}

// Stats summarise a plan diagram's structure, in the spirit of the plan
// diagram literature's complexity measures (Harish et al.): how skewed the
// optimality regions are and how much of the space a few plans dominate.
type Stats struct {
	// Plans is the POSP cardinality.
	Plans int
	// Covered is the number of optimized locations.
	Covered int
	// LargestRegion is the biggest single plan region's share of the
	// covered locations.
	LargestRegion float64
	// Top5Share is the share covered by the five largest regions.
	Top5Share float64
	// Gini is the Gini coefficient of region sizes (0 = all regions
	// equal, →1 = a few plans dominate).
	Gini float64
}

// ComputeStats derives the diagram's structural statistics.
func (d *Diagram) ComputeStats() Stats {
	sizes := make([]int, d.NumPlans())
	covered := 0
	for _, pid := range d.planID {
		if pid >= 0 {
			sizes[pid]++
			covered++
		}
	}
	st := Stats{Plans: d.NumPlans(), Covered: covered}
	if covered == 0 || len(sizes) == 0 {
		return st
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	st.LargestRegion = float64(sizes[0]) / float64(covered)
	top5 := 0
	for i := 0; i < len(sizes) && i < 5; i++ {
		top5 += sizes[i]
	}
	st.Top5Share = float64(top5) / float64(covered)
	// Gini over region sizes (ascending for the standard formula).
	asc := append([]int{}, sizes...)
	sort.Ints(asc)
	var cum, weighted float64
	for i, s := range asc {
		cum += float64(s)
		weighted += float64(i+1) * float64(s)
	}
	n := float64(len(asc))
	st.Gini = (2*weighted)/(n*cum) - (n+1)/n
	return st
}

// String summarises the diagram.
func (d *Diagram) String() string {
	return fmt.Sprintf("plan diagram: %d plans over %d locations (%.1f%% covered)",
		d.NumPlans(), d.space.NumPoints(), d.Coverage()*100)
}
