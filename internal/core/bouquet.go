// Package core implements the paper's primary contribution: the plan
// bouquet mechanism for query processing without selectivity estimation
// (Dutt & Haritsa, SIGMOD 2014).
//
// Compile time (§4, Fig. 8): the error-prone selectivity space is
// discretized, the POSP plan diagram generated, the optimal-cost range
// sliced by a geometric isocost ladder, the plans on each isocost contour
// identified and anorexically reduced, and the union of the per-contour
// plan sets retained as the bouquet.
//
// Run time (§3, §5): the query's actual selectivity location q_a is
// discovered through a calibrated sequence of cost-limited executions of
// bouquet plans — the basic algorithm (Fig. 7) sweeps each contour's
// plans; the optimized algorithm (Fig. 13) tracks a running location
// q_run under a first-quadrant invariant, picks plans via the AxisPlans
// heuristic, and uses spilled partial executions to maximise selectivity
// learning per unit of exploration budget.
//
// One run-time driver (driver.go) decides every step of both algorithms and
// records its control spans; a stepper only executes, and there are two:
// budgeted executions simulated on the optimizer's cost surfaces (what the
// paper's grid metrics are computed from), and plans run on the
// internal/exec engine over real rows (Table 3's validation). Bouquet.Run
// (run.go) is the one entry point to both, and returns one Execution.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/anorexic"
	"repro/internal/contour"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/posp"
	"repro/internal/query"
	"repro/internal/trace"
)

// CompileOptions tune bouquet identification.
type CompileOptions struct {
	// Ratio is the isocost ladder's common ratio r; 0 selects the
	// provably optimal 2 (Theorems 1–2).
	Ratio cost.Ratio
	// Lambda is the anorexic swallow threshold; negative disables the
	// reduction (the POSP configuration of Table 1); 0 applies a
	// zero-slack reduction; the paper's default is 0.2.
	Lambda cost.Ratio
	// Workers bounds POSP generation parallelism, exhaustive or focused
	// (0 = GOMAXPROCS).
	Workers int
	// Diagram optionally supplies a precomputed dense plan diagram,
	// skipping POSP generation.
	Diagram *posp.Diagram
	// Focused compiles from the contour-focused band only (§4.2): the
	// interior between contours is never optimized, trading a sparse
	// diagram (degraded run-time PIC lookups, handled by abstract-cost
	// fallbacks) for far fewer optimizer calls at high resolutions.
	Focused bool
	// Ctx, when non-nil, bounds the compilation: cancellation is checked
	// cooperatively between the major compile stages, between the batches
	// of POSP generation, exhaustive or focused, and between contour
	// steps, and Compile returns ctx.Err() on expiry. A nil Ctx compiles
	// to completion (the library default).
	Ctx context.Context
	// Trace, when non-nil, receives one compile span when identification
	// finishes: its Contour field carries the contour count, Rows the
	// bouquet cardinality |B|, and WallNanos the compile wall time. nil
	// (the default) records nothing.
	Trace *trace.Recorder
}

// Contour is one compiled isocost contour with its (reduced) plan set.
type Contour struct {
	// K is the 1-based step index.
	K int
	// RawBudget is the isocost step value cost(IC_K).
	RawBudget cost.Cost
	// Budget is the execution budget: RawBudget inflated by (1+λ) to
	// account for the anorexic reduction's slack (§4.3).
	Budget cost.Cost
	// Flats are the contour's grid locations (maximal points of the
	// in-budget region), ascending.
	Flats []int
	// PlanIDs is the contour's plan set B_K after reduction (diagram
	// plan IDs, ascending). Its length is the contour density n_K.
	PlanIDs []int
	// AssignAt maps each contour location to its covering reduced plan.
	AssignAt map[int]int
}

// Density returns n_K.
func (c Contour) Density() int { return len(c.PlanIDs) }

// Bouquet is a compiled plan bouquet: the complete compile-time artifact
// handed to the run-time drivers.
type Bouquet struct {
	// Query is the underlying query.
	Query *query.Query
	// Space is the discretized ESS.
	Space *ess.Space
	// Coster prices plans (abstract plan costing).
	Coster *cost.Coster
	// Diagram is the dense POSP plan diagram (also serves as the
	// run-time PIC lookup).
	Diagram *posp.Diagram
	// Ladder is the raw isocost ladder.
	Ladder contour.Ladder
	// Lambda is the anorexic threshold used (negative = none).
	Lambda cost.Ratio
	// Contours are the compiled contours, by ascending K.
	Contours []Contour
	// PlanIDs is the bouquet plan set: the union of the contour plan
	// sets, ascending diagram IDs.
	PlanIDs []int

	// nearCache memoizes contour-nearest lookups for the optimized
	// driver's AxisPlans routine (safe for concurrent metric sweeps).
	nearCache sync.Map

	// actual, when non-nil, prices *actual* execution outcomes while
	// b.Coster keeps pricing the run-time's decisions: the paper's
	// bounded-modeling-error regime (§3.4), where the estimated cost of
	// any plan is within a (1+δ) factor of its actual cost.
	actual *cost.Coster
}

// SetActualCoster installs a divergent actual-cost model (§3.4); pass nil
// to restore the perfect-model default. Typically built with
// Coster.WithPerturbation(delta, seed).
func (b *Bouquet) SetActualCoster(a *cost.Coster) { b.actual = a }

// execCoster returns the coster executions are priced with: the divergent
// actual model when one is installed (§3.4), the compile-time model
// otherwise.
func (b *Bouquet) execCoster() *cost.Coster {
	if b.actual != nil {
		return b.actual
	}
	return b.Coster
}

// execCost prices what an execution would actually charge for p at sels.
func (b *Bouquet) execCost(p *plan.Node, sels cost.Selectivities) cost.Cost {
	return b.execCoster().Cost(p, sels)
}

// Compile identifies the plan bouquet for opt's query over space. When
// opts.Ctx carries a deadline, compilation is abandoned cooperatively (and
// ctx's error returned) at the next stage boundary, generation batch or
// contour step.
func Compile(opt *optimizer.Optimizer, space *ess.Space, opts CompileOptions) (*Bouquet, error) {
	//bouquet:allow floatcmp: 0 is the zero-value "unset option" sentinel, never a computed cost
	if opts.Ratio == 0 {
		opts.Ratio = 2
	}
	if opts.Ratio <= 1 {
		return nil, fmt.Errorf("core: isocost ratio %g must exceed 1", opts.Ratio)
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	compileStart := stepClock(opts.Trace)

	d := opts.Diagram
	var raw []contour.Contour
	var ladder contour.Ladder
	var err error
	switch {
	case d == nil && opts.Focused:
		ladder, err = contour.LadderForSpace(opt, space, opts.Ratio)
		if err != nil {
			return nil, err
		}
		d, _, err = contour.FocusedContext(ctx, opt, space, ladder, opts.Workers)
		if err != nil {
			return nil, err
		}
		raw = contour.IdentifySparse(d, ladder)
	default:
		if d == nil {
			d, err = posp.GenerateContext(ctx, opt, space, opts.Workers)
			if err != nil {
				return nil, err
			}
		}
		cmin, cmax := d.CostBounds()
		ladder, err = contour.NewLadder(cmin, cmax, opts.Ratio)
		if err != nil {
			return nil, err
		}
		//bouquet:allow floatcmp: Coverage is covered/total and is exactly 1.0 iff the diagram is dense
		if d.Coverage() == 1.0 {
			raw, err = contour.Identify(d, ladder)
			if err != nil {
				return nil, err
			}
		} else {
			raw = contour.IdentifySparse(d, ladder)
		}
	}
	// Contour identification runs to its end; honour a deadline that
	// expired while it ran before reducing.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	b := &Bouquet{
		Query:   opt.Query(),
		Space:   space,
		Coster:  opt.Coster(),
		Diagram: d,
		Ladder:  ladder,
		Lambda:  opts.Lambda,
	}

	lambda := opts.Lambda
	inflate := cost.Ratio(1)
	if lambda >= 0 {
		inflate = 1 + lambda
	}

	union := map[int]bool{}
	prepared := make([]*cost.PreparedPlan, d.NumPlans())
	for _, rc := range raw {
		// Cooperative cancellation between contour steps: the anorexic
		// reduction prices a full cost matrix per contour, so this is
		// the inner compile loop worth interrupting.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cc := Contour{
			K:         rc.K,
			RawBudget: rc.Budget,
			Budget:    rc.Budget.Scale(inflate),
			Flats:     rc.Flats,
			AssignAt:  make(map[int]int, len(rc.Flats)),
		}
		if lambda < 0 || len(rc.Flats) == 0 {
			// POSP configuration: keep every contour plan.
			cc.PlanIDs = rc.PlanIDs
			for i, f := range rc.Flats {
				cc.AssignAt[f] = rc.PlanAt[i]
			}
		} else {
			pos, optCosts, m := contourCostMatrix(b.Coster, d, space, prepared, rc.PlanIDs, rc.Flats)
			red, err := anorexic.Reduce(pos, optCosts, rc.PlanIDs, m, lambda)
			if err != nil {
				return nil, fmt.Errorf("core: contour %d: %w", rc.K, err)
			}
			cc.PlanIDs = red.Retained
			for li, pid := range red.AssignAt {
				cc.AssignAt[rc.Flats[li]] = pid
			}
		}
		for _, pid := range cc.PlanIDs {
			union[pid] = true
		}
		b.Contours = append(b.Contours, cc)
	}
	for pid := range union {
		b.PlanIDs = append(b.PlanIDs, pid)
	}
	sort.Ints(b.PlanIDs)
	if opts.Trace.Enabled() {
		opts.Trace.Record(trace.Span{
			Kind: trace.KindCompile, Contour: len(b.Contours), PlanID: -1, Dim: -1, Pred: -1,
			Rows: int64(len(b.PlanIDs)), WallNanos: time.Since(compileStart).Nanoseconds(),
		})
	}
	return b, nil
}

// contourCostMatrix prices the candidate plans at the contour locations,
// indexed by position on the contour rather than by grid location:
// anorexic.Reduce treats locations as opaque indices, so it is handed the
// positions (pos, 0…k-1) with the optimal costs and the candidates' costs
// indexed alike, and answers in positions. Each location's selectivities
// are filled once and shared by every plan, and each plan is prepared for
// pricing once per compile, in prepared (by diagram plan ID).
func contourCostMatrix(coster *cost.Coster, d *posp.Diagram, space *ess.Space, prepared []*cost.PreparedPlan, candidates, flats []int) (pos []int, optCosts []cost.Cost, m [][]cost.Cost) {
	pos = make([]int, len(flats))
	optCosts = make([]cost.Cost, len(flats))
	m = make([][]cost.Cost, d.NumPlans())
	for _, pid := range candidates {
		m[pid] = make([]cost.Cost, len(flats))
		if prepared[pid] == nil {
			prepared[pid] = coster.PreparePlan(d.Plan(pid))
		}
	}
	var sels cost.Selectivities
	for li, f := range flats {
		pos[li], optCosts[li] = li, d.Cost(f)
		sels = space.SelsAt(sels, f)
		for _, pid := range candidates {
			m[pid][li] = coster.PricePlan(prepared[pid], sels).Cost
		}
	}
	return pos, optCosts, m
}

// Cardinality returns the bouquet plan count |B|.
func (b *Bouquet) Cardinality() int { return len(b.PlanIDs) }

// MaxDensity returns ρ, the densest contour's plan count.
func (b *Bouquet) MaxDensity() int {
	rho := 0
	for _, c := range b.Contours {
		if c.Density() > rho {
			rho = c.Density()
		}
	}
	return rho
}

// BoundMSO evaluates the paper's Equation 8 guarantee on the compiled
// contours: for q_a just beyond contour k−1, the bouquet spends at most
// Σ_{i≤k} n_i·Budget_i while the oracle pays at least RawBudget_{k−1}
// (PCM), so
//
//	MSO ≤ max_k ( Σ_{i≤k} n_i·Budget_i / RawBudget_{k−1} )
//
// with the k=1 denominator being Cmin. This is the per-query bound Table 1
// reports for both the POSP and anorexic configurations.
func (b *Bouquet) BoundMSO() cost.Ratio {
	if len(b.Contours) == 0 {
		return 0
	}
	cmin, _ := b.Diagram.CostBounds()
	worst := cost.Ratio(0)
	cum := cost.Cost(0)
	for k, c := range b.Contours {
		cum += c.Budget.Scale(cost.Ratio(c.Density()))
		denom := cmin
		if k > 0 {
			denom = b.Contours[k-1].RawBudget
		}
		if s := cum.Over(denom); s > worst {
			worst = s
		}
	}
	return worst
}

// TheoreticalMSO returns the closed-form guarantee ρ·r²/(r−1) of Theorem 3
// (times (1+λ) when the anorexic reduction is active).
func (b *Bouquet) TheoreticalMSO() cost.Ratio {
	r := b.Ladder.R
	bound := cost.Ratio(b.MaxDensity()) * r * r / (r - 1)
	if b.Lambda >= 0 {
		bound *= 1 + b.Lambda
	}
	return bound
}

// optCostAtFloor returns the compile-time optimal cost at the grid location
// dominated by p — a sound lower bound on copt(p) under PCM, used by the
// early-contour-change test (Fig. 13) without run-time optimizer calls.
// On sparse (focused) diagrams an uncovered floor falls back to the
// cheapest bouquet plan's abstract cost there; that upper-bounds copt, so
// the early change may fire a step early — completion then simply happens
// on a later (covering) contour, preserving correctness.
func (b *Bouquet) optCostAtFloor(p ess.Point) cost.Cost {
	flat := b.Space.FloorFlat(p)
	if b.Diagram.Covered(flat) {
		return b.Diagram.Cost(flat)
	}
	sels := b.Space.SelsAt(nil, flat)
	best := cost.Cost(math.Inf(1))
	for _, pid := range b.PlanIDs {
		best = min(best, b.Coster.Cost(b.Diagram.Plan(pid), sels))
	}
	return best
}

// Validate self-checks the compiled bouquet's structural invariants: a
// contour per ladder step with monotone budgets, every contour location
// assigned to a contour plan, the coverage property (each contour
// location's assigned plan priced within the inflated budget there), and
// the bouquet set equal to the union of contour plan sets. Load calls it
// on deserialized artifacts; tests call it on fresh compiles.
func (b *Bouquet) Validate() error {
	if len(b.Contours) != b.Ladder.NumSteps() {
		return fmt.Errorf("core: %d contours for %d ladder steps", len(b.Contours), b.Ladder.NumSteps())
	}
	union := map[int]bool{}
	prev := cost.Cost(0)
	var sels cost.Selectivities
	for i, c := range b.Contours {
		if c.K != i+1 {
			return fmt.Errorf("core: contour %d has step index %d", i, c.K)
		}
		if c.RawBudget <= prev {
			return fmt.Errorf("core: contour %d budget %g not above predecessor %g", c.K, c.RawBudget, prev)
		}
		prev = c.RawBudget
		if c.Budget < c.RawBudget {
			return fmt.Errorf("core: contour %d inflated budget below raw", c.K)
		}
		planSet := map[int]bool{}
		for _, pid := range c.PlanIDs {
			if pid < 0 || pid >= b.Diagram.NumPlans() {
				return fmt.Errorf("core: contour %d references plan %d", c.K, pid)
			}
			planSet[pid] = true
			union[pid] = true
		}
		for _, f := range c.Flats {
			pid, ok := c.AssignAt[f]
			if !ok {
				return fmt.Errorf("core: contour %d location %d unassigned", c.K, f)
			}
			if !planSet[pid] {
				return fmt.Errorf("core: contour %d location %d assigned to non-contour plan %d", c.K, f, pid)
			}
			sels = b.Space.SelsAt(sels, f)
			if got := b.Coster.Cost(b.Diagram.Plan(pid), sels); got > c.Budget.Scale(1+1e-9) {
				return fmt.Errorf("core: contour %d location %d plan %d costs %g over budget %g",
					c.K, f, pid, got, c.Budget)
			}
		}
	}
	if len(union) != len(b.PlanIDs) {
		return fmt.Errorf("core: bouquet plan set (%d) differs from contour union (%d)", len(b.PlanIDs), len(union))
	}
	for _, pid := range b.PlanIDs {
		if !union[pid] {
			return fmt.Errorf("core: bouquet plan %d on no contour", pid)
		}
	}
	return nil
}

// String summarises the bouquet.
func (b *Bouquet) String() string {
	return fmt.Sprintf("bouquet: %d plans over %d contours (ρ=%d, r=%g, λ=%g)",
		b.Cardinality(), len(b.Contours), b.MaxDensity(), b.Ladder.R, b.Lambda)
}
