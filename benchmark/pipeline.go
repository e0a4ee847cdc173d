package main

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/anorexic"
	"repro/internal/catalog"
	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/posp"
	"repro/internal/query"
	"repro/internal/sqlparse"
)

// The in-process twin of the served compile path: what internal/server's
// /compile handler does, called layer by layer. It is the oracle the HTTP
// answers are checked against and, on the traced pass, where the compile
// layers get their spans.

// lambda is the anorexic threshold every compile in the ladder uses (the
// paper's and the server's default).
const lambda = anorexic.DefaultLambda

// ladderRatio is the isocost ratio every compile uses (the optimal 2).
const ladderRatio = 2

// newOptimizer builds the optimizer the server would: the server prices
// every query with the PostgreSQL-flavoured model whatever the corpus
// spec names, so the twin does too.
func newOptimizer(q *query.Query) *optimizer.Optimizer {
	return optimizer.New(cost.NewCoster(q, cost.Postgres()))
}

// twin is one query compiled in-process.
type twin struct {
	q     *query.Query
	space *ess.Space
	opt   *optimizer.Optimizer
	b     *core.Bouquet
}

// compileTwin parses and compiles sql exactly as POST /compile with the
// given res would.
func compileTwin(name string, cat *catalog.Catalog, sql string, res int) (*twin, error) {
	q, err := sqlparse.Parse(name, cat, sql)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	space, err := ess.NewSpace(q, []int{res})
	if err != nil {
		return nil, fmt.Errorf("space for %s: %w", name, err)
	}
	opt := newOptimizer(q)
	b, err := core.Compile(opt, space, core.CompileOptions{Lambda: lambda})
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	return &twin{q: q, space: space, opt: opt, b: b}, nil
}

// relTol is the slack allowed between a float that crossed the JSON wire
// and its in-process twin (encoding/json round-trips float64 exactly; the
// slack only forgives a last-bit difference in summation order).
const relTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// checkSummary compares a /compile answer with the in-process bouquet.
func checkSummary(got compileResp, b *core.Bouquet) []string {
	var errs []string
	if got.Plans != b.Cardinality() {
		errs = append(errs, fmt.Sprintf("plans %d, in-process %d", got.Plans, b.Cardinality()))
	}
	if got.Contours != len(b.Contours) {
		errs = append(errs, fmt.Sprintf("contours %d, in-process %d", got.Contours, len(b.Contours)))
	}
	if got.Rho != b.MaxDensity() {
		errs = append(errs, fmt.Sprintf("rho %d, in-process %d", got.Rho, b.MaxDensity()))
	}
	if !near(got.BoundMSO, b.BoundMSO().F()) {
		errs = append(errs, fmt.Sprintf("boundMso %g, in-process %g", got.BoundMSO, b.BoundMSO().F()))
	}
	return errs
}

// checkSimRun compares a simulated /run answer with the in-process
// execution at the same location, and holds the basic driver to the
// paper's guarantee (Theorem 3 / Eq. 8): SubOpt ≤ BoundMSO.
func checkSimRun(got runResp, want core.Execution, b *core.Bouquet, optimized bool) []string {
	var errs []string
	if !near(got.TotalCost, want.TotalCost.F()) {
		errs = append(errs, fmt.Sprintf("totalCost %g, in-process %g", got.TotalCost, want.TotalCost.F()))
	}
	if !got.completed() {
		errs = append(errs, "run did not complete")
	}
	if !optimized && got.SubOpt > b.BoundMSO().F()*(1+relTol) {
		errs = append(errs, fmt.Sprintf("basic SubOpt %g exceeds BoundMSO %g", got.SubOpt, b.BoundMSO().F()))
	}
	return errs
}

// simRun executes one simulated run in-process under a span.
func simRun(p *pass, req, parent int64, b *core.Bouquet, qa ess.Point, optimized bool) core.Execution {
	var e core.Execution
	name := "core.run_basic"
	if optimized {
		name = "core.run_optimized"
	}
	p.tr.timed(req, parent, name, func(int64) {
		if optimized {
			e = b.RunOptimized(qa)
		} else {
			e = b.RunBasic(qa)
		}
	})
	p.tr.count(name+".calls", 1)
	p.tr.count("core.sim_steps", float64(e.NumExecs()))
	p.maxOf("sim_subopt_max", e.SubOpt())
	return e
}

// probeStages compiles (q, space) twice under spans — once whole, once
// stage by stage — plus a serial POSP generation that prices one
// optimizer call. The two compiles do the same work; their difference is
// core.compile_stage_gap, the check that the stage spans add up.
func probeStages(p *pass, req int64, q *query.Query, space *ess.Space, wholeFirst bool) error {
	tr := p.tr
	var opt *optimizer.Optimizer
	tr.timed(req, 0, "optimizer.new", func(int64) { opt = newOptimizer(q) })

	var b *core.Bouquet
	var err error
	whole := func() {
		tr.timed(req, 0, "core.compile", func(int64) {
			b, err = core.Compile(opt, space, core.CompileOptions{Lambda: lambda})
		})
	}
	var d *posp.Diagram
	var raw []contour.Contour
	var ladder contour.Ladder
	staged := func() {
		tr.timed(req, 0, "core.compile_staged", func(parent int64) {
			tr.timed(req, parent, "posp.generate", func(int64) { d = posp.Generate(opt, space, 0) })
			tr.timed(req, parent, "contour.ladder", func(int64) {
				cmin, cmax := d.CostBounds()
				ladder, err = contour.NewLadder(cmin, cmax, ladderRatio)
			})
			if err != nil {
				return
			}
			tr.timed(req, parent, "contour.identify", func(int64) { raw, err = contour.Identify(d, ladder) })
			if err != nil {
				return
			}
			tr.timed(req, parent, "core.compile_on_diagram", func(int64) {
				_, err = core.Compile(opt, space, core.CompileOptions{Lambda: lambda, Diagram: d})
			})
		})
	}
	// Callers alternate which variant goes first, per query and per round,
	// so that allocator and cache warmth do not favour one side of the gap.
	if wholeFirst {
		whole()
		if err == nil {
			staged()
		}
	} else {
		staged()
		if err == nil {
			whole()
		}
	}
	if err != nil {
		return fmt.Errorf("stage probe for %s: %w", q.Name, err)
	}

	var before, after runtime.MemStats
	calls := opt.Calls()
	runtime.ReadMemStats(&before)
	serial := tr.timed(req, 0, "posp.generate_serial", func(int64) { posp.Generate(opt, space, 1) })
	runtime.ReadMemStats(&after)
	tr.count("optimizer.calls", float64(opt.Calls()-calls))
	tr.count("optimizer.serial_ns", float64(serial.Nanoseconds()))
	tr.count("optimizer.mallocs", float64(after.Mallocs-before.Mallocs))

	tr.count("posp.points", float64(space.NumPoints()))
	tr.count("posp.plans", float64(d.NumPlans()))
	tr.count("contour.steps", float64(ladder.NumSteps()))
	for _, c := range raw {
		tr.count("anorexic.plans_in", float64(c.Density()))
	}
	for _, c := range b.Contours {
		tr.count("anorexic.plans_out", float64(c.Density()))
	}
	return nil
}

// compileLayerMetrics derives the compile-side layer metrics from the
// spans and counters probeStages left.
func compileLayerMetrics(p *pass, ly layerIndex) []metric {
	tr := p.tr
	calls := tr.counter("optimizer.calls")
	whole := ly.ms("core.compile")
	stages := ly.ms("posp.generate") + ly.ms("core.compile_on_diagram")
	return []metric{
		{Name: "optimizer.new_ms", Value: ly.ms("optimizer.new"), N: ly["optimizer.new"].Calls},
		{Name: "optimizer.calls", Value: calls},
		{Name: "optimizer.ns_per_call", Value: ratio(tr.counter("optimizer.serial_ns"), calls)},
		{Name: "optimizer.allocs_per_call", Value: ratio(tr.counter("optimizer.mallocs"), calls)},
		{Name: "posp.generate_ms", Value: ly.ms("posp.generate"), N: ly["posp.generate"].Calls},
		{Name: "posp.generate_serial_ms", Value: ly.ms("posp.generate_serial")},
		{Name: "posp.parallel_speedup", Value: ratio(ly.ms("posp.generate_serial"), ly.ms("posp.generate"))},
		{Name: "posp.points", Value: tr.counter("posp.points")},
		{Name: "posp.plans", Value: tr.counter("posp.plans")},
		{Name: "contour.ladder_ms", Value: ly.ms("contour.ladder")},
		{Name: "contour.identify_ms", Value: ly.ms("contour.identify")},
		{Name: "contour.steps", Value: tr.counter("contour.steps")},
		{Name: "anorexic.reduce_ms", Value: ly.ms("core.compile_on_diagram") - ly.ms("contour.ladder") - ly.ms("contour.identify")},
		{Name: "anorexic.plans_in", Value: tr.counter("anorexic.plans_in")},
		{Name: "anorexic.plans_out", Value: tr.counter("anorexic.plans_out")},
		{Name: "anorexic.retained_share", Value: ratio(tr.counter("anorexic.plans_out"), tr.counter("anorexic.plans_in"))},
		{Name: "core.compile_ms", Value: whole, N: ly["core.compile"].Calls},
		{Name: "core.compile_stage_gap", Value: ratio(math.Abs(whole-stages), whole)},
	}
}

// simLayerMetrics derives the simulated-driver layer metrics.
func simLayerMetrics(p *pass, ly layerIndex) []metric {
	tr := p.tr
	return []metric{
		{Name: "core.run_basic_us", Value: ratio(ly.ms("core.run_basic")*1e3, tr.counter("core.run_basic.calls")), N: int(tr.counter("core.run_basic.calls"))},
		{Name: "core.run_optimized_us", Value: ratio(ly.ms("core.run_optimized")*1e3, tr.counter("core.run_optimized.calls")), N: int(tr.counter("core.run_optimized.calls"))},
		{Name: "core.sim_steps", Value: tr.counter("core.sim_steps")},
		{Name: "core.sim_subopt_max", Value: p.maxes["sim_subopt_max"]},
	}
}
