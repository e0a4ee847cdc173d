package core_test

import (
	"context"
	"fmt"

	"repro/internal/anorexic"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/query"
)

// Example walks the full pipeline: define a query with an error-prone
// selectivity, compile its plan bouquet, and execute it at an actual
// location the compile phase never saw — all without estimating anything.
func Example() {
	cat := catalog.TPCHLike(0.1)
	q := query.NewBuilder("demo", cat).
		Relation("part").Relation("lineitem").
		SelectionPred("part", "p_retailprice", 0.10, true). // error-prone
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), false).
		MustBuild()

	space, err := ess.NewSpace(q, []int{50})
	if err != nil {
		panic(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	bouquet, err := core.Compile(opt, space, core.CompileOptions{Lambda: anorexic.DefaultLambda})
	if err != nil {
		panic(err)
	}

	// The compile-time guarantee holds for any actual selectivity.
	fmt.Printf("guarantee holds: %v\n", bouquet.BoundMSO() <= bouquet.TheoreticalMSO())

	e := bouquet.RunBasic(ess.Point{0.05})
	fmt.Printf("completed: %v, within guarantee: %v\n",
		e.Completed, e.SubOpt() <= bouquet.BoundMSO().F())
	// Output:
	// guarantee holds: true
	// completed: true, within guarantee: true
}

// ExampleBouquet_Run shows the §8 seeded start: when an estimate is known
// to be an underestimate, the run skips the contours below it without
// losing the guarantee.
func ExampleBouquet_Run() {
	cat := catalog.TPCHLike(0.1)
	q := query.NewBuilder("seeded", cat).
		Relation("part").Relation("lineitem").
		SelectionPred("part", "p_retailprice", 0.10, true).
		JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), false).
		MustBuild()
	space, _ := ess.NewSpace(q, []int{50})
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
	bouquet, _ := core.Compile(opt, space, core.CompileOptions{Lambda: 0.2})

	qa := ess.Point{0.3}
	plain := bouquet.RunOptimized(qa)
	// Seeded at a guaranteed underestimate; no trace recorder.
	seeded, _ := bouquet.Run(context.Background(), core.Run{Optimized: true, QA: qa, Seed: ess.Point{0.15}})
	fmt.Printf("seeded run is no worse: %v\n", seeded.TotalCost <= plain.TotalCost)
	// Output:
	// seeded run is no worse: true
}
