package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
)

// execConfig is one engine configuration, named by the HTTP parallelism
// value rather than by implementation so the names outlive any one
// engine: w0 = parallelism 0 (today the Volcano interpreter), w1 =
// vectorized with one worker, wN = vectorized with GOMAXPROCS workers.
type execConfig struct {
	tag     string
	workers int
}

func execConfigs(n int) []execConfig {
	return []execConfig{{"w0", 0}, {"w1", 1}, {"wN", n}}
}

// options are the engine options a reference (single-plan) run uses under
// the configuration.
func (c execConfig) options() exec.Options {
	if c.workers == 0 {
		return exec.Options{}
	}
	return exec.Options{Vectorized: true, BatchSize: exec.DefaultBatchSize, Parallelism: c.workers}
}

// execTarget is one query with its compiled bouquet, its engine over
// generated rows, and the oracle: the optimal plan at the realized
// location, with the rows and cost that plan produces.
type execTarget struct {
	name    string
	b       *core.Bouquet
	eng     *exec.Engine
	refPlan *plan.Node
	refRows int64
	refCost cost.Cost
}

// buildEngine generates the database for b's relations and binds its
// selection predicates, exactly as internal/server's engineFor does for a
// concrete /run.
func buildEngine(cat *catalog.Catalog, b *core.Bouquet, dataSeed int64) (*exec.Engine, error) {
	db := data.Generate(cat, b.Query.Relations(), nil, dataSeed)
	bindings := map[int]int64{}
	for _, p := range b.Query.Predicates() {
		if p.Kind != query.Selection {
			continue
		}
		target := p.DefaultSel
		if p.Negated {
			target = 1 - target
		}
		bound, _ := db.SelectionBound(p.Left.Relation, p.Left.Column, target)
		bindings[p.ID] = bound
	}
	return exec.NewEngine(b.Query, db, cost.Postgres(), bindings)
}

// setReference picks the optimal plan at qa and runs it once, unbudgeted,
// on the w0 engine: its row count is what every bouquet run must return,
// its charged cost the denominator of the run's sub-optimality.
func (t *execTarget) setReference(opt *optimizer.Optimizer, qa ess.Point) error {
	t.refPlan = opt.Optimize(t.b.Space.Sels(qa)).Plan
	res, err := t.eng.Run(t.refPlan, exec.Options{})
	if err != nil {
		return fmt.Errorf("reference run of %s: %w", t.name, err)
	}
	if !res.Completed {
		return fmt.Errorf("reference run of %s did not complete", t.name)
	}
	t.refRows, t.refCost = res.RowsOut, res.CostUsed
	return nil
}

// runBouquet drives the bouquet on the engine in-process.
func (t *execTarget) runBouquet(c execConfig, optimized, reuse bool) (core.ConcreteExecution, time.Duration) {
	r := &core.ConcreteRunner{B: t.b, Engine: t.eng, Parallelism: c.workers, Reuse: reuse}
	start := time.Now()
	var e core.ConcreteExecution
	if optimized {
		e = r.RunOptimized()
	} else {
		e = r.RunBasic()
	}
	return e, time.Since(start)
}

// runReference executes the optimal plan alone under configuration c.
func (t *execTarget) runReference(c execConfig) (exec.Result, time.Duration, error) {
	start := time.Now()
	res, err := t.eng.Run(t.refPlan, c.options())
	return res, time.Since(start), err
}

// checkConcrete holds one bouquet run to the oracle: it completed and
// returned the optimal plan's rows.
func (t *execTarget) checkConcrete(completed bool, rows int64) []string {
	var errs []string
	if !completed {
		errs = append(errs, "run did not complete")
	}
	if rows != t.refRows {
		errs = append(errs, fmt.Sprintf("resultRows %d, optimal plan returns %d", rows, t.refRows))
	}
	return errs
}

// stepSignature renders a run's step sequence and total cost; two runs
// of one query on one engine configuration are repeatable iff these match.
func stepSignature(e core.ConcreteExecution) string {
	var sb strings.Builder
	for _, s := range e.Steps {
		fmt.Fprintf(&sb, "%d:%d:%t;", s.Contour, s.PlanID, s.Completed)
	}
	fmt.Fprintf(&sb, "cost=%x", e.TotalCost.F())
	return sb.String()
}

// probeConcrete runs the run-side layer probes for one target: the basic
// driver at each configuration with reuse on (its per-step walls rebuilt
// into exec.step.* child spans), the optimized driver at wN, reuse-off
// runs at w0 and wN, and the optimal plan alone at each configuration.
func probeConcrete(p *pass, req int64, t *execTarget, cfgs []execConfig) error {
	tr := p.tr
	sigs := make(map[string]string, len(cfgs))
	for _, c := range cfgs {
		var e core.ConcreteExecution
		var wall time.Duration
		start := time.Now()
		tr.timed(req, 0, "core.concrete_run."+c.tag, func(parent int64) {
			e, wall = t.runBouquet(c, false, true)
			at := tr.sinceStart(start)
			for _, s := range e.Steps {
				tr.synth(req, parent, "exec.step."+c.tag, at, at+s.Wall.Nanoseconds())
				at += s.Wall.Nanoseconds()
			}
		})
		p.sample("bq."+c.tag+"."+t.name, wall)
		sigs[c.tag] = stepSignature(e)
		tr.count("exec.steps."+c.tag, float64(len(e.Steps)))
		tr.count("core.driver_self_ns", float64((wall - e.Wall).Nanoseconds()))
		tr.count("core.concrete_steps", float64(len(e.Steps)))
		tr.count("core.reuse_hits", float64(e.ReuseHits))
		tr.count("core.salvaged_cost", e.SalvagedCost.F())
		tr.count("core.total_cost", e.TotalCost.F())
		if c.workers == 0 {
			p.series("subopt."+t.name, e.TotalCost.Over(t.refCost).F())
		}
		for _, s := range e.Steps {
			if !s.Completed {
				tr.count("core.concrete_aborts", 1)
				tr.count("core.wasted_cost", s.Spent.F())
				continue
			}
			if s.Spent > 0 {
				tr.count("exec.step_ns."+c.tag, float64(s.Wall.Nanoseconds()))
				tr.count("exec.step_cost."+c.tag, s.Spent.F())
				p.series("delta."+c.tag, float64(s.Wall.Nanoseconds())/s.Spent.F())
			}
		}

		var res exec.Result
		var err error
		ref := tr.timed(req, 0, "exec.reference."+c.tag, func(int64) { res, _, err = t.runReference(c) })
		if err != nil {
			return fmt.Errorf("reference probe of %s at %s: %w", t.name, c.tag, err)
		}
		p.sample("ref."+c.tag+"."+t.name, ref)
		var tuples int64
		for _, st := range res.Stats {
			tuples += st.InTuples + st.Out
		}
		tr.count("exec.tuples."+c.tag, float64(tuples))
	}
	// Repeatability, the paper's promise the parallel meter does not yet
	// keep: the wN sequence must equal w1's, and equal itself next round.
	key := "sig." + t.name
	p.mu.Lock()
	if sigs["wN"] != sigs["w1"] || (p.notes[key] != "" && p.notes[key] != sigs["wN"]) {
		p.notes["mismatch."+t.name] = "1"
	}
	p.notes[key] = sigs["wN"]
	p.mu.Unlock()

	wN := cfgs[len(cfgs)-1]
	tr.timed(req, 0, "core.concrete_opt_run.wN", func(int64) { t.runBouquet(wN, true, true) })
	for _, c := range []execConfig{cfgs[0], wN} {
		tr.timed(req, 0, "core.concrete_run_noreuse."+c.tag, func(int64) { t.runBouquet(c, false, false) })
	}
	return nil
}

// wallRatioGmean is the Table-3 robustness tax at one configuration: the
// geometric mean over queries of (median bouquet wall ÷ median
// optimal-plan wall), medians taken over the pass's rounds.
func wallRatioGmean(p *pass, names []string, bouquetPrefix, optimalPrefix string) float64 {
	var ratios []float64
	for _, name := range names {
		bq, ref := p.samples[bouquetPrefix+name], p.samples[optimalPrefix+name]
		if len(bq) > 0 && len(ref) > 0 {
			ratios = append(ratios, ratio(median(bq), median(ref)))
		}
	}
	return gmean(ratios)
}

// costRatioGmean is the w0 basic run's sub-optimality in model cost units
// (Table 3's last column): bouquet charged cost ÷ optimal-plan charged
// cost, geometric mean over queries.
func costRatioGmean(p *pass, names []string) float64 {
	var ratios []float64
	for _, name := range names {
		if s := p.samples["subopt."+name]; len(s) > 0 {
			ratios = append(ratios, median(s))
		}
	}
	return gmean(ratios)
}

// execLayerMetrics derives the run-side layer metrics from what
// probeConcrete left.
func execLayerMetrics(p *pass, ly layerIndex, names []string) []metric {
	tr := p.tr
	mismatches := 0
	for _, name := range names {
		if p.notes["mismatch."+name] != "" {
			mismatches++
		}
	}
	out := []metric{
		{Name: "core.concrete_opt_run_ms.wN", Value: ly.ms("core.concrete_opt_run.wN"), N: ly["core.concrete_opt_run.wN"].Calls},
		{Name: "core.driver_self_ms", Value: tr.counter("core.driver_self_ns") / 1e6},
		{Name: "core.concrete_steps", Value: tr.counter("core.concrete_steps")},
		{Name: "core.concrete_aborts", Value: tr.counter("core.concrete_aborts")},
		{Name: "core.wasted_cost_share", Value: ratio(tr.counter("core.wasted_cost"), tr.counter("core.total_cost"))},
		{Name: "core.cost_ratio_gmean", Value: costRatioGmean(p, names), N: len(names)},
		{Name: "core.reuse_hits", Value: tr.counter("core.reuse_hits")},
		{Name: "core.salvaged_cost_share", Value: ratio(tr.counter("core.salvaged_cost"), tr.counter("core.total_cost"))},
		{Name: "core.reuse_speedup.w0", Value: ratio(ly.ms("core.concrete_run_noreuse.w0"), ly.ms("core.concrete_run.w0"))},
		{Name: "core.reuse_speedup.wN", Value: ratio(ly.ms("core.concrete_run_noreuse.wN"), ly.ms("core.concrete_run.wN"))},
		{Name: "core.step_seq_mismatch", Value: float64(mismatches), N: len(names)},
		{Name: "exec.vector_speedup", Value: ratio(ly.ms("exec.reference.w0"), ly.ms("exec.reference.w1"))},
		{Name: "exec.parallel_speedup", Value: ratio(ly.ms("exec.reference.w1"), ly.ms("exec.reference.wN"))},
	}
	for _, tag := range []string{"w0", "w1", "wN"} {
		deltas := sortedCopy(p.samples["delta."+tag])
		out = append(out,
			metric{Name: "core.concrete_run_ms." + tag, Value: ly.ms("core.concrete_run." + tag), N: ly["core.concrete_run."+tag].Calls},
			metric{Name: "exec.step_ms." + tag, Value: ly.ms("exec.step." + tag), N: ly["exec.step."+tag].Calls},
			metric{Name: "exec.steps." + tag, Value: tr.counter("exec.steps." + tag)},
			metric{Name: "exec.reference_ms." + tag, Value: ly.ms("exec.reference." + tag), N: ly["exec.reference."+tag].Calls},
			metric{Name: "exec.tuples_per_s." + tag, Value: ratio(tr.counter("exec.tuples."+tag), ly.ms("exec.reference."+tag)/1e3)},
			metric{Name: "exec.wall_ratio." + tag, Value: wallRatioGmean(p, names, "bq."+tag+".", "ref."+tag+"."), N: len(names)},
			metric{Name: "exec.ns_per_cost." + tag, Value: ratio(tr.counter("exec.step_ns."+tag), tr.counter("exec.step_cost."+tag))},
			metric{Name: "exec.delta_spread." + tag, Value: ratio(percentile(deltas, 95), percentile(deltas, 5)), N: len(deltas)},
		)
	}
	return out
}
