package main

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/query"
)

// table3Exec is the table3_exec workload: the paper's Table 3 — 2D_H_Q8a,
// and its 3-D sibling 3D_H_Q5a — rebuilt from public API at a scale where
// a step scans hundreds of thousands of rows, and run in-process at every
// engine configuration under both drivers against the optimal plan at the
// realized location. Scan, build and probe kernels and morsel parallelism
// dominate; server and driver overhead are nil. An exec kernel or meter
// change must show here and should barely move corpus_exec.
type table3Exec struct {
	cfg     config
	cfgs    []execConfig
	targets []*execTarget
	names   []string
	rows    float64
	// genSeconds is the data.Generate wall of the last set-up, which the
	// traced pass reports as data.generate_ms.
	genSeconds float64
}

// table3Scale is the TPC-H-shaped scale factor: 0.1 gives a 600k-row
// lineitem (146 morsels), the largest at which a round of all twelve
// (query, configuration, driver) runs stays near two seconds on two cores.
const table3Scale = 0.1

func (w *table3Exec) name() string { return "table3_exec" }

// table3Query describes one run-time workload: its relations, the match
// fractions planted in the generated foreign keys (which position q_a
// inside each join dimension), and how to build the query.
type table3Query struct {
	name      string
	rels      []string
	specs     map[string]data.Spec
	res       int
	build     func(cat *catalog.Catalog, db *data.Database) (*query.Query, map[int]int64, error)
	joinPairs [][4]string // (left rel, left col, right rel, right col) per error dimension
}

// table3Queries mirrors workload.HQ8a and workload.HQ5a (same relations,
// MatchFrac specs, predicates and resolutions), which hard-code their own
// scale factor.
func table3Queries() []table3Query {
	return []table3Query{
		{
			name: "2D_H_Q8a", rels: []string{"part", "lineitem", "orders"}, res: 30,
			specs: map[string]data.Spec{"lineitem": {MatchFrac: map[string]float64{"l_partkey": 0.337, "l_orderkey": 0.456}}},
			joinPairs: [][4]string{
				{"part", "p_partkey", "lineitem", "l_partkey"},
				{"lineitem", "l_orderkey", "orders", "o_orderkey"},
			},
			build: func(cat *catalog.Catalog, db *data.Database) (*query.Query, map[int]int64, error) {
				bound, realized := db.SelectionBound("part", "p_retailprice", 0.20)
				q, err := query.NewBuilder("2D_H_Q8a", cat).
					Relation("part").Relation("lineitem").Relation("orders").
					SelectionPred("part", "p_retailprice", realized, false).
					JoinPred("part", "p_partkey", "lineitem", "l_partkey", query.PKFKSel(cat, "part"), true).
					JoinPred("lineitem", "l_orderkey", "orders", "o_orderkey", query.PKFKSel(cat, "orders"), true).
					Build()
				if err != nil {
					return nil, nil, err
				}
				bindings := map[int]int64{}
				for _, p := range q.Predicates() {
					if p.Kind == query.Selection {
						bindings[p.ID] = bound
					}
				}
				return q, bindings, nil
			},
		},
		{
			name: "3D_H_Q5a", rels: []string{"customer", "orders", "lineitem", "supplier"}, res: 12,
			specs: map[string]data.Spec{
				"orders":   {MatchFrac: map[string]float64{"o_custkey": 0.42}},
				"lineitem": {MatchFrac: map[string]float64{"l_orderkey": 0.23, "l_suppkey": 0.61}},
			},
			joinPairs: [][4]string{
				{"customer", "c_custkey", "orders", "o_custkey"},
				{"orders", "o_orderkey", "lineitem", "l_orderkey"},
				{"lineitem", "l_suppkey", "supplier", "s_suppkey"},
			},
			build: func(cat *catalog.Catalog, db *data.Database) (*query.Query, map[int]int64, error) {
				q, err := query.NewBuilder("3D_H_Q5a", cat).
					Relation("customer").Relation("orders").Relation("lineitem").Relation("supplier").
					JoinPred("customer", "c_custkey", "orders", "o_custkey", query.PKFKSel(cat, "customer"), true).
					JoinPred("orders", "o_orderkey", "lineitem", "l_orderkey", query.PKFKSel(cat, "orders"), true).
					JoinPred("lineitem", "l_suppkey", "supplier", "s_suppkey", query.PKFKSel(cat, "supplier"), true).
					Build()
				return q, map[int]int64{}, err
			},
		},
	}
}

func (w *table3Exec) setup() error {
	w.cfgs = execConfigs(w.cfg.clients)
	sf := catalog.ScaleFactor(table3Scale)
	if w.cfg.smoke {
		sf = 0.004
	}
	cat := catalog.TPCHLike(sf)
	w.targets, w.names, w.rows, w.genSeconds = nil, nil, 0, 0
	for i, tq := range table3Queries() {
		start := time.Now()
		db := data.Generate(cat, tq.rels, tq.specs, w.cfg.seed+int64(i))
		w.genSeconds += time.Since(start).Seconds()
		for _, rel := range tq.rels {
			w.rows += float64(db.Table(rel).NumRows())
		}
		q, bindings, err := tq.build(cat, db)
		if err != nil {
			return fmt.Errorf("build %s: %w", tq.name, err)
		}
		dims := make([]ess.Dim, q.Dims())
		actual := make(ess.Point, q.Dims())
		for d, predID := range q.ErrorDims() {
			hi := query.MaxLegalSel(cat, q.Predicate(predID))
			dims[d] = ess.Dim{PredID: predID, Lo: hi * ess.DefaultLoFraction, Hi: hi, Res: tq.res}
			jp := tq.joinPairs[d]
			actual[d] = db.JoinSelectivity(jp[0], jp[1], jp[2], jp[3])
		}
		space, err := ess.NewSpaceWithDims(q, dims)
		if err != nil {
			return fmt.Errorf("space for %s: %w", tq.name, err)
		}
		opt := newOptimizer(q)
		b, err := core.Compile(opt, space, core.CompileOptions{Lambda: lambda})
		if err != nil {
			return fmt.Errorf("compile %s: %w", tq.name, err)
		}
		eng, err := exec.NewEngine(q, db, opt.Coster().Model(), bindings)
		if err != nil {
			return fmt.Errorf("engine for %s: %w", tq.name, err)
		}
		t := &execTarget{name: tq.name, b: b, eng: eng}
		if err := t.setReference(opt, actual); err != nil {
			return err
		}
		w.targets = append(w.targets, t)
		w.names = append(w.names, tq.name)
	}
	// Warm-up: the basic driver and the optimal plan once per query and
	// configuration, so the lazy table indexes exist before the clock runs.
	for _, t := range w.targets {
		for _, c := range w.cfgs {
			t.runBouquet(c, false, true)
			if _, _, err := t.runReference(c); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *table3Exec) close() {}

func (w *table3Exec) round(p *pass) error {
	for _, t := range w.targets {
		for _, c := range w.cfgs {
			for _, optimized := range []bool{false, true} {
				kind := c.tag
				if optimized {
					kind += "_opt"
				}
				p.clock(func() time.Duration {
					e, wall := t.runBouquet(c, optimized, true)
					p.sample("run."+kind, wall)
					p.sample("op", wall)
					if kind == "w0" {
						p.sample("bouquet.w0."+t.name, wall)
					}
					p.op(t.name+" "+kind, t.checkConcrete(e.Completed, e.ResultRows))
					return wall
				})
				if kind != "w0" {
					continue
				}
				// The optimal plan alone, straight after the run it is the
				// reference for: the denominator of wall_ratio_gmean.
				_, wall, err := t.runReference(c)
				if err != nil {
					return err
				}
				p.sample("optimal.w0."+t.name, wall)
			}
		}
	}
	if p.tr == nil {
		return nil
	}
	for _, t := range w.targets {
		if err := probeConcrete(p, p.tr.newReq(), t, w.cfgs); err != nil {
			return err
		}
	}
	return nil
}

func (w *table3Exec) endToEnd(p *pass) []metric {
	// The two bouquets' Eq. 8 guarantees: the catalog and the queries are
	// fixed, so the seed (which draws the rows) does not move them.
	var bounds []float64
	for _, t := range w.targets {
		bounds = append(bounds, t.b.BoundMSO().F())
	}
	return []metric{
		p.p50("run_concrete_w0_p50_ms", "run.w0"),
		p.p50("run_concrete_wN_p50_ms", "run.wN"),
		{Name: "wall_ratio_gmean", Unit: "ratio", Value: wallRatioGmean(p, w.names, "bouquet.w0.", "optimal.w0."), N: len(w.names)},
		{Name: "mso_gmean", Unit: "ratio", Value: gmean(bounds), N: len(bounds)},
	}
}

func (w *table3Exec) perLayer(p *pass, ly layerIndex) []metric {
	return append(execLayerMetrics(p, ly, w.names),
		metric{Name: "data.generate_ms", Value: w.genSeconds * 1e3},
		metric{Name: "data.rows", Value: w.rows},
		metric{Name: "data.rows_per_s", Value: ratio(w.rows, w.genSeconds)},
	)
}
