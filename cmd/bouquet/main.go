// Command bouquet runs the plan-bouquet reproduction: it regenerates the
// paper's tables and figures, explains compiled bouquets, and executes
// single bouquet runs with full traces.
//
// Usage:
//
//	bouquet <experiment> [flags]
//
// Experiments: table1 table2 table3 fig3 fig4 fig14 fig15 fig16 fig17
// fig18 fig19 overheads modelerror ablate all
//
// Other commands:
//
//	bouquet sql "<query>"                parse, compile and describe a bouquet
//	bouquet explain <workload>           compile and describe a bouquet
//	bouquet run <workload> -qa s1,s2,…   trace one bouquet execution
//	bouquet list                         list available workloads
//	bouquet corpus <gen|check|bless|stats>  plan-regression corpus gate
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/anorexic"
	"repro/internal/catalog"
	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dimreduce"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/posp"
	"repro/internal/report"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "corpus" {
		// The corpus verb carries its own flag set (different seed default,
		// -dir/-sample/-out knobs), so dispatch before the generic parse.
		if err := corpusMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bouquet:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	res := fs.Int("res", 0, "grid resolution per dimension (0 = per-dimensionality default)")
	lambda := fs.Float64("lambda", anorexic.DefaultLambda.F(), "anorexic reduction threshold")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 42, "data generation seed (table3)")
	qaFlag := fs.String("qa", "", "comma-separated actual selectivities (run)")
	optimized := fs.Bool("optimized", true, "include the optimized driver")
	artifact := fs.String("o", "", "artifact file to write (compile) or read (run)")
	concrete := fs.Bool("concrete", false, "trace a concrete engine run instead of the abstract driver (trace)")
	nodes := fs.Bool("nodes", false, "print per-node operator stats for each executed step (trace)")

	args := os.Args[2:]
	var pos []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		pos = append(pos, args[0])
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	if err := run(cmd, pos, *res, *lambda, *workers, *seed, *qaFlag, *optimized, *artifact, *concrete, *nodes); err != nil {
		fmt.Fprintln(os.Stderr, "bouquet:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bouquet <command> [flags]

experiments:
  table1 table2 table3 fig3 fig4 fig14 fig15 fig16 fig17 fig18 fig19
  overheads modelerror ablate verdict all

commands:
  sql "<query>"                 parse, compile and describe a textual query
  diagram <workload>            render a 2-D plan diagram with contours
  dims <workload>               probe per-dimension cost sensitivity (§8)
  compile <workload> -o FILE    compile a bouquet and persist the artifact
  run <workload> -o FILE ...    execute from a persisted artifact
  explain <workload>            compile and describe a bouquet
  run <workload> -qa s1,s2,...  trace one bouquet execution at q_a
  trace <workload> -qa ...      structured span timeline of one run
                                (-nodes: per-operator stats; -concrete:
                                 real engine run of HQ8a)
  list                          list available workloads
  corpus gen|check|bless|stats  plan-regression corpus: generate golden
                                baselines, semantically diff against them,
                                re-bless after intentional changes, or
                                print composition stats
                                (-dir D -seed N -count N -sample N -out F)

flags: -res N -lambda F -workers N -seed N -optimized=BOOL -concrete -nodes`)
}

func run(cmd string, pos []string, res int, lambda float64, workers int, seed int64, qaFlag string, optimized bool, artifact string, concrete, nodes bool) error {
	opts := report.Options{Res: res, Lambda: cost.Ratio(lambda), Workers: workers, SkipOptimized: !optimized}
	switch cmd {
	case "list":
		for _, w := range append(workload.All(2), workload.EQ(2)) {
			fmt.Printf("%-12s %-10s D=%d  %s\n", w.Name, w.Query.JoinGraphShape(), w.Query.Dims(), w.Query)
		}
		return nil

	case "fig3":
		t, err := report.Figure3(res)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil

	case "fig4":
		series, summary, err := report.Figure4(res)
		if err != nil {
			return err
		}
		fmt.Println(series)
		fmt.Println(summary)
		return nil

	case "table3":
		breakdown, summary, err := report.Table3(seed)
		if err != nil {
			return err
		}
		fmt.Println(breakdown)
		fmt.Println(summary)
		return nil

	case "fig19":
		tables, err := report.Figure19(res, workers)
		if err != nil {
			return err
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		return nil

	case "overheads":
		t, err := report.CompileOverheads(res)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil

	case "modelerror":
		w := workload.EQ(res)
		t, err := report.ModelingError(w, 0.4, []uint64{1, 2, 3}, workers)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil

	case "ablate":
		w := workload.DSQ96(res)
		lam, err := report.AblationLambda(w, []float64{-1, 0, 0.1, 0.2, 0.5, 1.0}, workers)
		if err != nil {
			return err
		}
		fmt.Println(lam)
		resTbl, err := report.AblationResolution("3D_DS_Q96", []int{4, 8, 12, 16}, workers)
		if err != nil {
			return err
		}
		fmt.Println(resTbl)
		ratio, err := report.AblationRatio(workload.EQ(res), []float64{1.3, 1.5, 2, 2.5, 3, 4}, workers)
		if err != nil {
			return err
		}
		fmt.Println(ratio)
		foc, err := report.FocusedScaling([]int{10, 20, 40, 80})
		if err != nil {
			return err
		}
		fmt.Println(foc)
		return nil

	case "table1", "table2", "fig14", "fig15", "fig16", "fig17", "fig18", "verdict", "all":
		evals, err := report.EvaluateAll(opts)
		if err != nil {
			return err
		}
		print := func(name string, t *report.Table) {
			if cmd == "all" || cmd == name {
				fmt.Println(t)
			}
		}
		print("table1", report.Table1(evals))
		print("table2", report.Table2(evals))
		print("fig14", report.Figure14(evals))
		print("fig15", report.Figure15(evals))
		for _, ev := range evals {
			if ev.Workload.Name == "5D_DS_Q19" {
				print("fig16", report.Figure16(ev))
			}
		}
		print("fig17", report.Figure17(evals))
		print("fig18", report.Figure18(evals))
		verdict := report.Verdict(evals)
		print("verdict", verdict)
		if cmd == "all" {
			return runRemaining(res, workers, seed)
		}
		if failed := report.Failed(verdict); cmd == "verdict" && len(failed) > 0 {
			return fmt.Errorf("verdict: %d of %d claims do not hold: %s", len(failed), len(verdict.Rows), strings.Join(failed, "; "))
		}
		return nil

	case "compile":
		if len(pos) != 1 || artifact == "" {
			return fmt.Errorf("compile needs a workload name and -o <file>")
		}
		_, b, err := compile(pos[0], res, lambda, workers)
		if err != nil {
			return err
		}
		f, err := os.Create(artifact)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := b.Save(f); err != nil {
			return err
		}
		fmt.Printf("compiled %s: %s -> %s\n", pos[0], b, artifact)
		return nil

	case "dims":
		if len(pos) != 1 {
			return fmt.Errorf("dims needs a workload name (try 'bouquet list')")
		}
		return dimSensitivities(pos[0], res)

	case "diagram":
		if len(pos) != 1 {
			return fmt.Errorf("diagram needs a 2-D workload name (try EQ2D)")
		}
		return renderDiagram(pos[0], res, workers)

	case "sql":
		if len(pos) != 1 {
			return fmt.Errorf(`sql needs one quoted query, e.g. bouquet sql "SELECT * FROM part WHERE part.p_retailprice < sel(0.1)?"`)
		}
		return sqlExplain(pos[0], res, lambda, workers)

	case "explain":
		if len(pos) != 1 {
			return fmt.Errorf("explain needs a workload name (try 'bouquet list')")
		}
		return explain(pos[0], res, lambda, workers)

	case "run":
		if len(pos) != 1 {
			return fmt.Errorf("run needs a workload name (try 'bouquet list')")
		}
		return traceRun(pos[0], res, lambda, workers, qaFlag, artifact)

	case "trace":
		if concrete {
			return traceCmd("", res, lambda, workers, qaFlag, optimized, true, nodes, seed)
		}
		if len(pos) != 1 {
			return fmt.Errorf("trace needs a workload name (try 'bouquet list'), or -concrete")
		}
		return traceCmd(pos[0], res, lambda, workers, qaFlag, optimized, false, nodes, seed)

	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func runRemaining(res, workers int, seed int64) error {
	t3a, t3b, err := report.Table3(seed)
	if err != nil {
		return err
	}
	fmt.Println(t3a)
	fmt.Println(t3b)
	f3, err := report.Figure3(res)
	if err != nil {
		return err
	}
	fmt.Println(f3)
	f4a, f4b, err := report.Figure4(res)
	if err != nil {
		return err
	}
	fmt.Println(f4a)
	fmt.Println(f4b)
	f19, err := report.Figure19(res, workers)
	if err != nil {
		return err
	}
	for _, t := range f19 {
		fmt.Println(t)
	}
	ov, err := report.CompileOverheads(res)
	if err != nil {
		return err
	}
	fmt.Println(ov)
	me, err := report.ModelingError(workload.EQ(res), 0.4, []uint64{1, 2, 3}, workers)
	if err != nil {
		return err
	}
	fmt.Println(me)
	return nil
}

func compile(name string, res int, lambda float64, workers int) (*workload.Workload, *core.Bouquet, error) {
	w, err := workload.ByName(name, res)
	if err != nil {
		return nil, nil, err
	}
	opt := optimizer.New(cost.NewCoster(w.Query, w.Model))
	b, err := core.Compile(opt, w.Space, core.CompileOptions{Lambda: cost.Ratio(lambda), Workers: workers})
	return w, b, err
}

func explain(name string, res int, lambda float64, workers int) error {
	w, b, err := compile(name, res, lambda, workers)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s (%s, model=%s)\n  %s\n", w.Name, w.Query.JoinGraphShape(), w.Model.Name, w.Query)
	describe(b)
	return nil
}

// sqlExplain parses a textual query against the TPC-H-shaped catalog,
// compiles its bouquet, and describes it.
func sqlExplain(text string, res int, lambda float64, workers int) error {
	cat := catalog.TPCHLike(1.0)
	q, err := sqlparse.Parse("sql", cat, text)
	if err != nil {
		return err
	}
	if q.Dims() == 0 {
		return fmt.Errorf("query has no error-prone predicates; mark at least one with a trailing '?'")
	}
	if res <= 0 {
		res = ess.DefaultResolution(q.Dims())
	}
	space, err := ess.NewSpace(q, []int{res})
	if err != nil {
		return err
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	b, err := core.Compile(opt, space, core.CompileOptions{Lambda: cost.Ratio(lambda), Workers: workers})
	if err != nil {
		return err
	}
	fmt.Printf("parsed query (%s): %s\n", q.JoinGraphShape(), q)
	describe(b)
	return nil
}

// dimSensitivities probes each error dimension's cost impact on a coarse
// grid (§8's dimensionality-control analysis) and reports which dimensions
// a threshold of 0.5 would eliminate.
func dimSensitivities(name string, res int) error {
	w, err := workload.ByName(name, res)
	if err != nil {
		return err
	}
	opt := optimizer.New(cost.NewCoster(w.Query, w.Model))
	sens, err := dimreduce.Sensitivities(opt, w.Space, 3)
	if err != nil {
		return err
	}
	keep, drop := dimreduce.Partition(sens, 0.5)
	fmt.Printf("dimension sensitivities for %s (coarse 3-point probe):\n", w.Name)
	for _, sv := range sens {
		fmt.Printf("  dim %d (pred %d: %s)  max cost swing %.2fx\n",
			sv.Dim, sv.PredID, w.Query.Predicate(sv.PredID), sv.MaxRatio)
	}
	fmt.Printf("keep %v, eliminate %v (threshold 1.5x)\n", keep, drop)
	return nil
}

// renderDiagram prints a 2-D workload's plan diagram with the isocost
// contour staircase overlaid.
func renderDiagram(name string, res, workers int) error {
	w, err := workload.ByName(name, res)
	if err != nil {
		return err
	}
	if w.Space.Dims() != 2 {
		return fmt.Errorf("workload %s is %d-D; diagram rendering is 2-D only", name, w.Space.Dims())
	}
	opt := optimizer.New(cost.NewCoster(w.Query, w.Model))
	d := posp.Generate(opt, w.Space, workers)
	st := d.ComputeStats()
	fmt.Printf("region skew: largest %.0f%%, top-5 %.0f%%, gini %.2f\n",
		st.LargestRegion*100, st.Top5Share*100, st.Gini)
	cmin, cmax := d.CostBounds()
	ladder, err := contour.NewLadder(cmin, cmax, 2)
	if err != nil {
		return err
	}
	out, err := d.RenderASCII(nil, ladder.Steps)
	if err != nil {
		return err
	}
	fmt.Printf("%s\nplan diagram (letters = optimal plans, lowercase = isocost contour staircase):\n%s", d, out)
	return nil
}

func describe(b *core.Bouquet) {
	fmt.Printf("%s\n", b)
	fmt.Printf("Eq.8 bound: %.1f   theoretical 4(1+λ)ρ: %.1f\n\n", b.BoundMSO(), b.TheoreticalMSO())
	for _, c := range b.Contours {
		fmt.Printf("IC%-2d budget %-12.4g locations %-6d plans %v\n", c.K, c.Budget, len(c.Flats), c.PlanIDs)
	}
	fmt.Println("\nbouquet plans (costed at the space terminus):")
	sels := cost.Selectivities(b.Space.Sels(b.Space.Terminus()))
	for _, pid := range b.PlanIDs {
		fmt.Printf("P%d:\n%s", pid, b.Coster.Explain(b.Diagram.Plan(pid), sels))
	}
}

func traceRun(name string, res int, lambda float64, workers int, qaFlag, artifact string) error {
	var w *workload.Workload
	var b *core.Bouquet
	var err error
	if artifact != "" {
		// Load a precompiled artifact instead of compiling afresh.
		w, err = workload.ByName(name, res)
		if err != nil {
			return err
		}
		f, ferr := os.Open(artifact)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		b, err = core.Load(f, cost.NewCoster(w.Query, w.Model))
	} else {
		w, b, err = compile(name, res, lambda, workers)
	}
	if err != nil {
		return err
	}
	qa, err := parseQA(w, qaFlag)
	if err != nil {
		return err
	}
	fmt.Printf("running %s at q_a=%v\n\nbasic driver:\n  %s\n", name, qa, b.RunBasic(qa))
	fmt.Printf("\noptimized driver:\n  %s\n", b.RunOptimized(qa))
	return nil
}
