package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceCmd executes one bouquet run with structured tracing enabled and
// renders the span timeline. The default is the abstract driver (simulated
// on the cost surfaces, per-node stats from the model's realized
// cardinalities); -concrete runs the HQ8a runtime workload on the Volcano
// engine with real tuple counters.
func traceCmd(name string, res int, lambda float64, workers int, qaFlag string, optimized, concrete, nodes bool, seed int64) error {
	if concrete {
		return traceConcrete(optimized, nodes, seed)
	}
	w, b, err := compile(name, res, lambda, workers)
	if err != nil {
		return err
	}
	qa, err := parseQA(w, qaFlag)
	if err != nil {
		return err
	}
	rec := trace.Acquire()
	e, err := b.Run(context.Background(), core.Run{Optimized: optimized, QA: qa, Trace: rec})
	if err != nil {
		return err
	}
	fmt.Printf("traced %s run of %s at q_a=%v\n  %s\n\n", driverName(optimized), name, qa, e)
	renderTrace(rec, nodes)
	rec.Release()
	return nil
}

// traceConcrete runs the HQ8a runtime workload on the execution engine
// with tracing enabled: the exec spans carry real per-operator tuple
// counters; the spill/budget-abort spans come from the run driver, as on
// simulated runs.
func traceConcrete(optimized, nodes bool, seed int64) error {
	rw, err := workload.HQ8a(seed)
	if err != nil {
		return err
	}
	opt := optimizer.New(cost.NewCoster(rw.Query, rw.Model))
	b, err := core.Compile(opt, rw.Space, core.CompileOptions{Lambda: 0.2})
	if err != nil {
		return err
	}
	eng, err := exec.NewEngine(rw.Query, rw.DB, rw.Model, rw.Bindings)
	if err != nil {
		return err
	}
	rec := trace.Acquire()
	out, err := b.Run(context.Background(), core.Run{Optimized: optimized, Trace: rec, Engine: eng})
	if err != nil {
		return err
	}
	fmt.Printf("traced concrete %s run of HQ8a (seed %d):\n%s\n", driverName(optimized), seed, out.Explain())
	renderTrace(rec, nodes)
	rec.Release()
	return nil
}

func driverName(optimized bool) string {
	if optimized {
		return "optimized"
	}
	return "basic"
}

// parseQA resolves the -qa flag against w's space, defaulting to the
// terminus.
func parseQA(w *workload.Workload, qaFlag string) (ess.Point, error) {
	qa := w.Space.Terminus()
	if qaFlag == "" {
		return qa, nil
	}
	parts := strings.Split(qaFlag, ",")
	qa = make(ess.Point, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -qa value %q: %w", p, err)
		}
		qa[i] = v
	}
	if err := w.Space.Check(qa); err != nil {
		return nil, fmt.Errorf("-qa for %s: %w", w.Name, err)
	}
	return qa, nil
}

// renderTrace prints a human-readable step timeline of the recorded spans
// followed by the run's aggregate summary. With nodes set, each exec span
// also lists its per-operator stats.
func renderTrace(rec *trace.Recorder, nodes bool) {
	spans := rec.Spans()
	fmt.Printf("span timeline (%d spans, %d dropped):\n", len(spans), rec.Dropped())
	fmt.Printf("  %-4s %-12s %-4s %-5s %-4s %-5s %12s %12s %9s %10s %s\n",
		"seq", "kind", "ic", "plan", "dim", "pred", "budget", "spent", "rows", "wall", "")
	for _, s := range spans {
		mark := ""
		switch {
		case s.Kind == trace.KindExec && s.Completed:
			mark = "done"
		case s.Kind == trace.KindExec:
			mark = "jettisoned"
		case s.Kind == trace.KindLearn:
			mark = fmt.Sprintf("sel=%.3g", s.Sel)
			if s.Completed {
				mark += " exact"
			}
		}
		fmt.Printf("  %-4d %-12s %-4d %-5d %-4d %-5d %12.4g %12.4g %9d %10s %s\n",
			s.Seq, s.Kind, s.Contour, s.PlanID, s.Dim, s.Pred,
			s.Budget, s.Spent, s.Rows, wallString(s.WallNanos), mark)
		if nodes && s.Kind == trace.KindExec {
			for _, n := range s.Nodes {
				state := "live"
				if n.Starved {
					state = "starved"
				} else if n.Done {
					state = "done"
				}
				rel := n.Relation
				if rel != "" {
					rel = "(" + rel + ")"
				}
				fmt.Printf("       · %-18s %-10s out=%-9d in=%-9d matches=%-9d cost=%.4g [%s]\n",
					n.Op+rel, passString(n.Pass), n.Out, n.In, n.Matches, n.EstCost, state)
			}
		}
	}
	a := metrics.Aggregate(spans)
	fmt.Printf("\naggregate: %d execs (%d completed), %d aborts, %d spills, %d learns (%d exact)\n",
		a.Execs, a.Completed, a.Aborts, a.Spills, a.Learns, a.ExactLearns)
	fmt.Printf("cost: useful %.4g, wasted %.4g (wasted ratio %.2f); wall %s (max step %s); rows %d\n",
		a.UsefulCost, a.WastedCost, a.WastedRatio(),
		wallString(a.WallNanos), wallString(a.MaxStepWallNanos), a.Rows)
}

func wallString(ns int64) string {
	if ns == 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}

func passString(pass []trace.PredCount) string {
	if len(pass) == 0 {
		return ""
	}
	parts := make([]string, len(pass))
	for i, p := range pass {
		parts[i] = fmt.Sprintf("p%d:%d", p.Pred, p.Count)
	}
	return strings.Join(parts, ",")
}
