package report

import (
	"context"
	"fmt"
	"time"

	"repro/internal/anorexic"
	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/posp"
	"repro/internal/workload"
)

// Figure3 reproduces the 1-D construction of Figures 2–3: the POSP plans on
// the EQ query's p_retailprice dimension, the PIC, and the isocost ladder
// with the plan associated to each step's PIC intersection — the bouquet.
func Figure3(res int) (*Table, error) {
	w := workload.EQ(res)
	coster := cost.NewCoster(w.Query, w.Model)
	opt := optimizer.New(coster)
	d := posp.Generate(opt, w.Space, 0)

	pic, err := contour.PIC(d)
	if err != nil {
		return nil, err
	}
	cmin, cmax := d.CostBounds()
	ladder, err := contour.NewLadder(cmin, cmax, 2)
	if err != nil {
		return nil, err
	}
	contours, err := contour.Identify(d, ladder)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Caption: "Figure 2/3: EQ 1-D POSP, PIC and isocost-step intersections",
		Header:  []string{"IC step", "budget", "intersection sel", "PIC cost", "bouquet plan", "plan"},
		Notes: []string{
			fmt.Sprintf("POSP: %d plans over %d grid points; Cmin=%.4g Cmax=%.4g", d.NumPlans(), len(pic), cmin, cmax),
			"paper: 5 POSP plans {P1..P5}, bouquet {P1,P2,P3,P5}, doubling ladder with 7 steps",
		},
	}
	for _, c := range contours {
		if len(c.Flats) == 0 {
			t.AddRow(fmt.Sprintf("IC%d", c.K), c.Budget, "-", "-", "-", "-")
			continue
		}
		f := c.Flats[len(c.Flats)-1]
		pid := d.PlanID(f)
		t.AddRow(fmt.Sprintf("IC%d", c.K), c.Budget,
			fmt.Sprintf("%.4g%%", w.Space.PointAt(f)[0]*100), d.Cost(f),
			fmt.Sprintf("P%d", pid+1), d.Plan(pid).String())
	}
	return t, nil
}

// Figure4 reproduces the 1-D bouquet performance profile: per selectivity,
// the PIC cost, the basic and optimized bouquet costs, and the native
// optimizer's worst-case cost (supremum over POSP plan profiles), plus the
// summary sub-optimalities the paper quotes (worst 3.6 / avg 2.4 basic,
// 3.1 / 1.7 optimized, NAT worst ≈ 100).
func Figure4(res int) (*Table, *Table, error) {
	w := workload.EQ(res)
	coster := cost.NewCoster(w.Query, w.Model)
	opt := optimizer.New(coster)
	bq, err := core.Compile(opt, w.Space, core.CompileOptions{Lambda: anorexic.DefaultLambda})
	if err != nil {
		return nil, nil, err
	}
	d := bq.Diagram
	matrix := posp.CostMatrix(d, coster, 0)
	nat, err := metrics.Compute(d, matrix, metrics.NativeAssignment(d))
	if err != nil {
		return nil, nil, err
	}

	n := w.Space.NumPoints()
	series := &Table{
		Caption: "Figure 4: EQ bouquet performance profile (log-log in the paper)",
		Header:  []string{"sel %", "PIC", "BOU basic", "BOU opt", "NAT worst"},
	}
	var worstB, sumB, worstO, sumO float64
	step := n / 20
	if step < 1 {
		step = 1
	}
	for f := 0; f < n; f++ {
		eb := bq.RunBasic(w.Space.PointAt(f))
		eo := bq.RunOptimized(w.Space.PointAt(f))
		sb, so := eb.SubOpt(), eo.SubOpt()
		if sb > worstB {
			worstB = sb
		}
		if so > worstO {
			worstO = so
		}
		sumB += sb
		sumO += so
		if f%step == 0 || f == n-1 {
			series.AddRow(fmt.Sprintf("%.4g", w.Space.PointAt(f)[0]*100),
				d.Cost(f).F(), eb.TotalCost.F(), eo.TotalCost.F(), nat.WorstPerQa[f]*d.Cost(f).F())
		}
	}
	summary := &Table{
		Caption: "Figure 4 summary: EQ sub-optimalities",
		Header:  []string{"strategy", "worst-case", "average"},
		Notes:   []string{"paper: basic 3.6 / 2.4, optimized 3.1 / 1.7, NAT worst ≈ 100, NAT avg 1.8"},
	}
	summary.AddRow("NAT", nat.MSO, nat.ASO)
	summary.AddRow("BOU basic", worstB, sumB/float64(n))
	summary.AddRow("BOU optimized", worstO, sumO/float64(n))
	return series, summary, nil
}

// Table3 reproduces the 2D_H_Q8a run-time experiment: real budgeted
// executions on generated data, contour-wise breakdown for the basic and
// optimized bouquets, against the native choice at the erroneous estimate
// and the oracle plan at the actual location.
func Table3(seed int64) (*Table, *Table, error) {
	rw, err := workload.HQ8a(seed)
	if err != nil {
		return nil, nil, err
	}
	coster := cost.NewCoster(rw.Query, rw.Model)
	opt := optimizer.New(coster)
	bq, err := core.Compile(opt, rw.Space, core.CompileOptions{Lambda: anorexic.DefaultLambda})
	if err != nil {
		return nil, nil, err
	}
	eng, err := exec.NewEngine(rw.Query, rw.DB, rw.Model, rw.Bindings)
	if err != nil {
		return nil, nil, err
	}
	optPlan := opt.Optimize(rw.Space.Sels(rw.Actual))
	optRun := timeRun(eng, optPlan, exec.Options{})
	natPlan := opt.Optimize(rw.Space.Sels(rw.Estimate()))
	natRun := timeRun(eng, natPlan, exec.Options{})

	basic, err := bq.Run(context.Background(), core.Run{Engine: eng})
	if err != nil {
		return nil, nil, err
	}
	optim, err := bq.Run(context.Background(), core.Run{Optimized: true, Engine: eng})
	if err != nil {
		return nil, nil, err
	}

	breakdown := &Table{
		Caption: fmt.Sprintf("Table 3: Bouquet execution for 2D_H_Q8a (q_a=%v, q_e=%v)", rw.Actual, rw.Estimate()),
		Header:  []string{"Contour", "#Exec (basic)", "cost (basic)", "wall (basic)", "#Exec (opt)", "cost (opt)", "wall (opt)"},
		Notes: []string{
			fmt.Sprintf("bouquet: %d plans over %d contours; result rows %d", bq.Cardinality(), len(bq.Contours), basic.ResultRows),
			"paper: basic 19 executions / 116.5 s; optimized 12 / 68.7 s; NAT 579.4 s; optimal 16.1 s",
		},
	}
	maxK := 0
	for _, s := range basic.Steps {
		if s.Contour > maxK {
			maxK = s.Contour
		}
	}
	for _, s := range optim.Steps {
		if s.Contour > maxK {
			maxK = s.Contour
		}
	}
	for k := 1; k <= maxK; k++ {
		nb, cb, wb := contourSlice(basic, k)
		no, co, wo := contourSlice(optim, k)
		breakdown.AddRow(fmt.Sprintf("IC%d", k), nb, cb.F(), wb.Round(time.Microsecond).String(),
			no, co.F(), wo.Round(time.Microsecond).String())
	}

	summary := &Table{
		Caption: "Table 3 summary: NAT vs bouquet vs optimal (actual executions)",
		Header:  []string{"strategy", "cost units", "wall", "executions", "sub-optimality"},
		Notes:   []string{"paper sub-optimality: NAT ≈ 36, basic BOU ≈ 7.2, optimized BOU ≈ 4.3"},
	}
	summary.AddRow("NAT (at q_e)", natRun.cost.F(), natRun.wall.Round(time.Millisecond).String(), 1, natRun.cost.Over(optRun.cost).F())
	summary.AddRow("Basic BOU", basic.TotalCost.F(), basic.Wall.Round(time.Millisecond).String(), basic.NumExecs(), basic.TotalCost.Over(optRun.cost).F())
	summary.AddRow("Opt. BOU", optim.TotalCost.F(), optim.Wall.Round(time.Millisecond).String(), optim.NumExecs(), optim.TotalCost.Over(optRun.cost).F())
	summary.AddRow("Optimal (oracle)", optRun.cost.F(), optRun.wall.Round(time.Millisecond).String(), 1, 1.0)
	return breakdown, summary, nil
}

type runTiming struct {
	cost cost.Cost
	wall time.Duration
	rows int64
}

func timeRun(eng *exec.Engine, res optimizer.Result, opts exec.Options) runTiming {
	t0 := time.Now()
	r := eng.MustRun(res.Plan, opts)
	return runTiming{cost: r.CostUsed, wall: time.Since(t0), rows: r.RowsOut}
}

func contourSlice(e core.Execution, k int) (n int, spent cost.Cost, wall time.Duration) {
	for _, s := range e.Steps {
		if s.Contour == k {
			n++
			spent += s.Spent
			wall += s.Wall
		}
	}
	return n, spent, wall
}

// Figure19 reproduces the commercial-engine evaluation: the same pipeline
// under the independently parameterised commercial cost model, on the
// selection-dimension variants 3D_H_Q5b and 4D_H_Q8b.
func Figure19(res int, workers int) ([]*Table, error) {
	var tables []*Table
	for _, name := range []string{"3D_H_Q5b", "4D_H_Q8b"} {
		w, err := workload.ByName(name, res)
		if err != nil {
			return nil, err
		}
		ev, err := Evaluate(w, Options{Lambda: anorexic.DefaultLambda, Workers: workers})
		if err != nil {
			return nil, err
		}
		t := &Table{
			Caption: fmt.Sprintf("Figure 19: Commercial engine performance (%s, model=%s)", w.Name, w.Model.Name),
			Header:  []string{"metric", "NAT", "SEER", "BOU(basic)", "BOU(opt)"},
			Notes:   []string{"paper: COM shows the same qualitative pattern as PostgreSQL — BOU ≥ 10x better worst case"},
		}
		t.AddRow("MSO", ev.Nat.MSO, ev.Seer.MSO, ev.Basic.MSO, ev.Optimized.MSO)
		t.AddRow("ASO", ev.Nat.ASO, ev.Seer.ASO, ev.Basic.ASO, ev.Optimized.ASO)
		t.AddRow("plan cardinality", ev.POSPSize, ev.Seer.PlanCardinality, ev.Bouquet.Cardinality(), ev.Bouquet.Cardinality())
		t.AddRow("MaxHarm", "-", "≤ λ", ev.MH, ev.MHOpt)
		tables = append(tables, t)
	}
	return tables, nil
}
