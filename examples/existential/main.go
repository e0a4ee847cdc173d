// Existential: the paper's §2 exception case, handled the way the paper
// prescribes. Queries with NOT EXISTS operators make plan costs *decrease*
// in the underlying match selectivity — breaking the Plan Cost Monotonicity
// the bouquet needs. The remedy is the (1−s) axis flip: parameterise the
// error dimension by the *surviving* fraction of outer rows, restoring
// monotonicity. This example builds such a query from its SQL text, shows
// PCM holding on the flipped axis, and runs the bouquet across the
// existential dimension — including on real rows, where the pass fraction
// is discovered from tuple counters.
//
//	go run ./examples/existential
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/anorexic"
	"repro/internal/catalog"
	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/posp"
	"repro/internal/sqlparse"
)

func main() {
	cat := catalog.TPCHLike(0.02)

	// Orders whose line items reference no indexed part: a NOT EXISTS
	// whose pass fraction is error-prone. Written as text, parsed into
	// the query model.
	q, err := sqlparse.Parse("existential", cat, `
		SELECT * FROM orders, lineitem, part
		WHERE orders.o_orderkey = lineitem.l_orderkey
		  AND NOT EXISTS (lineitem.l_partkey = part.p_partkey) sel(0.3)?`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query:", q)

	space, err := ess.NewSpace(q, []int{40})
	if err != nil {
		log.Fatal(err)
	}
	opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))

	// PCM survives the axis flip: the optimal-cost curve over the pass
	// fraction is monotone, so contours and guarantees work unchanged.
	diagram := posp.Generate(opt, space, 0)
	if err := contour.CheckPCM(diagram); err != nil {
		log.Fatalf("PCM violated despite the axis flip: %v", err)
	}
	cmin, cmax := diagram.CostBounds()
	fmt.Printf("PCM holds on the pass-fraction axis: Cmin=%.4g → Cmax=%.4g (monotone)\n", cmin, cmax)

	bouquet, err := core.Compile(opt, space, core.CompileOptions{Lambda: anorexic.DefaultLambda, Diagram: diagram})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s — guaranteed MSO %.1f\n\n", bouquet, bouquet.BoundMSO())

	for _, qa := range []ess.Point{{0.002}, {0.4}} {
		e := bouquet.RunBasic(qa)
		fmt.Printf("pass fraction %v: %s\n", qa, e)
	}

	// And on real rows: a small instance where ~40%% of customers are
	// "blocked"; the engine discovers the surviving fraction from its
	// anti-join pass counters.
	rcat := catalog.NewCatalog()
	rcat.AddRelation(&catalog.Relation{
		Name: "orders", Card: 4000, TupleWidth: 24,
		Columns: []catalog.Column{
			{Name: "o_id", Type: catalog.TypeKey, DistinctCount: 4000},
			{Name: "o_cust", Type: catalog.TypeInt, DistinctCount: 500},
		},
	})
	rcat.AddRelation(&catalog.Relation{
		Name: "blocked", Card: 260, TupleWidth: 16,
		Columns: []catalog.Column{{Name: "b_cust", Type: catalog.TypeInt, DistinctCount: 500}},
	})
	rcat.IndexAllColumns()
	db := data.Generate(rcat, nil, nil, 11)

	rq, err := sqlparse.Parse("blockedOrders", rcat, `
		SELECT * FROM orders, blocked
		WHERE NOT EXISTS (orders.o_cust = blocked.b_cust) sel(0.5)?`)
	if err != nil {
		log.Fatal(err)
	}
	rspace, err := ess.NewSpaceWithDims(rq, []ess.Dim{{PredID: 0, Lo: 0.01, Hi: 1, Res: 20}})
	if err != nil {
		log.Fatal(err)
	}
	ropt := optimizer.New(cost.NewCoster(rq, cost.Postgres()))
	rb, err := core.Compile(ropt, rspace, core.CompileOptions{Lambda: anorexic.DefaultLambda})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := exec.NewEngine(rq, db, cost.Postgres(), nil)
	if err != nil {
		log.Fatal(err)
	}
	out, err := rb.Run(context.Background(), core.Run{Optimized: true, Engine: eng})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconcrete NOT EXISTS run: %d surviving orders discovered (learned pass fraction %v)\n%s",
		out.ResultRows, out.Learned, out.Explain())
}
