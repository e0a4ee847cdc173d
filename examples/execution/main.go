// Execution: the run-time substrate in isolation. Generates real tables
// with controlled selectivities, then demonstrates the three engine
// capabilities the bouquet run-time is built on (§5.4): cost-limited
// partial execution, node-granularity tuple instrumentation, and spilled
// execution that starves everything downstream of the error node. Finally
// a full concrete bouquet run discovers the data's actual selectivities
// from scratch.
//
//	go run ./examples/execution
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/anorexic"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/workload"
)

func main() {
	// 2D_H_Q8a: a part ⋈ lineitem ⋈ orders instance whose two join
	// selectivities are planted at ~34% and ~46% of their legal ranges.
	rw, err := workload.HQ8a(7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %s: actual q_a = %v\n", rw.Name, rw.Actual)

	coster := cost.NewCoster(rw.Query, rw.Model)
	opt := optimizer.New(coster)
	eng, err := exec.NewEngine(rw.Query, rw.DB, rw.Model, rw.Bindings)
	if err != nil {
		log.Fatal(err)
	}

	// A plan optimized assuming tiny selectivities — the classic
	// underestimate — run against the real data.
	wrong := opt.Optimize(rw.Space.Sels(rw.Space.Origin()))
	fmt.Printf("\nplan optimized at the origin:\n%s", wrong.Plan.Render())

	// (a) Cost-limited execution: give it a budget far below its true
	// cost and watch it abort with its instrumentation intact.
	res := eng.MustRun(wrong.Plan, exec.Options{Budget: wrong.Cost * 4})
	fmt.Printf("budgeted run: completed=%v, charged %.4g of budget %.4g\n",
		res.Completed, res.CostUsed, wrong.Cost*4)

	// (b) Instrumentation: per-node tuple counters, in stable label
	// order so two runs print identically.
	nodes := make([]*plan.Node, 0, len(res.Stats))
	for node := range res.Stats {
		nodes = append(nodes, node)
	}
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].Op.String()+"/"+nodes[i].Relation < nodes[j].Op.String()+"/"+nodes[j].Relation
	})
	for _, node := range nodes {
		st := res.Stats[node]
		fmt.Printf("  %-30s in=%-7d out=%-7d matches=%-7d done=%v\n",
			node.Op.String()+"/"+node.Relation, st.InTuples, st.Out, st.Matches, st.Done)
	}

	// (c) Spilled execution: drive only the error node of the first
	// error-prone join, spending the whole budget on learning it.
	errPred := rw.Query.ErrorDims()[0]
	spill := eng.MustRun(wrong.Plan, exec.Options{Budget: wrong.Cost * 4, Spill: true, SpillPred: errPred})
	fmt.Printf("\nspilled run on predicate %d: completed=%v rows=%d\n",
		errPred, spill.Completed, spill.RowsOut)

	// Full concrete bouquet run: selectivities discovered, never
	// estimated.
	bouquet, err := core.Compile(opt, rw.Space, core.CompileOptions{Lambda: anorexic.DefaultLambda})
	if err != nil {
		log.Fatal(err)
	}
	out, err := bouquet.Run(context.Background(), core.Run{Optimized: true, Engine: eng})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimized bouquet execution (discovered q_run=%v):\n%s", out.Learned, out.Explain())

	oracle := opt.Optimize(rw.Space.Sels(rw.Actual))
	oracleRun := eng.MustRun(oracle.Plan, exec.Options{})
	fmt.Printf("oracle plan cost %.4g → bouquet sub-optimality %.2f\n",
		oracleRun.CostUsed, out.TotalCost/oracleRun.CostUsed)
}
