package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/corpus"
	"repro/internal/data"
	"repro/internal/ess"
	"repro/internal/server"
)

// corpusExec is the corpus_exec workload: a sample of the corpus compiled
// cold through HTTP and then run on generated rows — the SQL-text-to-rows
// path — at every engine configuration, with the optimal plan run beside
// each as the wall-clock reference. The tables are small (1e3–2e5 rows)
// and a run takes 5–40 steps, so the time goes to per-step set-up, the
// driver loop, reuse and the engine cache rather than to scan kernels.
type corpusExec struct {
	cfg     config
	lb      *loopback
	cfgs    []execConfig
	queries []*execQuery
	names   []string
}

// execQuery is one sampled corpus query: the HTTP side (its own server)
// and the in-process side (twin bouquet, engine, oracle).
type execQuery struct {
	*corpusQuery
	target execTarget
	// firstRun is the concrete /run at server defaults; runs are the four
	// steady-state requests in the order they are sent.
	firstRun []byte
	runs     []concreteRunCase
}

type concreteRunCase struct {
	cfg       execConfig
	optimized bool
	body      []byte
}

// corpusExecStride samples every 3rd corpus query, of which the two caps
// below keep about a quarter (41 of 167 on the blessed corpus).
const corpusExecStride = 3

// maxQueryRows drops a sampled query whose relations total more rows than
// this: the workload is about small tables, and each kept query holds two
// engines' worth of generated rows and lazy indexes in memory.
const maxQueryRows = 100000

// maxSimRunCost drops a sampled query whose basic run, simulated at the
// location the generated data will realize, charges more than this many
// model cost units. Such a run spends its time in join kernels, which is
// table3_exec's subject; here one of them (the corpus has small-table
// queries that run for seconds) would outweigh all the others in every
// sum.
const maxSimRunCost = 40000

func (w *corpusExec) name() string { return "corpus_exec" }

// dataSeed is the seed the generated rows derive from: the benchmark
// seed, except that the server reads 0 as 1.
func (w *corpusExec) dataSeed() int64 {
	if w.cfg.seed == 0 {
		return 1
	}
	return w.cfg.seed
}

// realizedPoint is where generated data puts the query in its ESS: every
// error-prone predicate at its declared selectivity, which is what the
// engine's bindings and the uniform PK-FK columns realize.
func realizedPoint(tw *twin) ess.Point {
	qa := make(ess.Point, tw.space.Dims())
	for d := range qa {
		dim := tw.space.Dim(d)
		qa[d] = min(max(tw.q.Predicate(dim.PredID).DefaultSel, dim.Lo), dim.Hi)
	}
	return qa
}

// specRows totals the cardinalities of a spec's relations.
func specRows(spec corpus.Spec) int64 {
	var rows int64
	for _, rel := range spec.Catalog.Relations() {
		rows += rel.Card
	}
	return rows
}

func (w *corpusExec) setup() error {
	w.cfgs = execConfigs(w.cfg.clients)
	stride := w.cfg.pick(corpusExecStride, 45)
	seed := w.dataSeed()
	w.queries, w.names = nil, nil
	for i := 0; i < 500; i += stride {
		if specRows(corpus.GenerateSpec(corpusSeed, i)) > maxQueryRows {
			continue
		}
		cq, err := newCorpusQuery(i, nil)
		if err != nil {
			return err
		}
		if cq.tw.b.RunBasic(realizedPoint(cq.tw)).TotalCost > maxSimRunCost {
			continue
		}
		eq := &execQuery{corpusQuery: cq, target: execTarget{name: cq.spec.ID, b: cq.tw.b}}
		t := &eq.target
		if t.eng, err = buildEngine(cq.spec.Catalog, cq.tw.b, seed); err != nil {
			return fmt.Errorf("engine for %s: %w", cq.spec.ID, err)
		}
		// The realized location is what the optimized driver learns on
		// the data; the optimal plan there is the reference.
		learned, _ := t.runBouquet(w.cfgs[0], true, true)
		if learned.Learned == nil {
			return fmt.Errorf("%s: optimized run learned no location", cq.spec.ID)
		}
		if err := t.setReference(cq.tw.opt, learned.Learned); err != nil {
			return err
		}
		// Warm the in-process engine the way the cold phase warms the
		// server's: data.Table builds its sort and hash indexes on first
		// use, and each configuration's plans touch their own.
		for _, c := range w.cfgs {
			t.runBouquet(c, false, true)
			if _, _, err := t.runReference(c); err != nil {
				return err
			}
		}

		eq.firstRun = mustJSON(runReq{ID: firstBouquetID, Concrete: true, DataSeed: seed})
		yes := true
		wN := w.cfgs[len(w.cfgs)-1]
		for _, c := range []struct {
			cfg       execConfig
			optimized bool
		}{{w.cfgs[0], false}, {w.cfgs[1], false}, {wN, false}, {wN, true}} {
			workers := c.cfg.workers
			eq.runs = append(eq.runs, concreteRunCase{cfg: c.cfg, optimized: c.optimized,
				body: mustJSON(runReq{ID: firstBouquetID, Concrete: true, DataSeed: seed,
					Optimized: c.optimized, Parallelism: &workers, Reuse: &yes})})
		}
		w.queries = append(w.queries, eq)
	}
	if len(w.queries) == 0 {
		return fmt.Errorf("corpus_exec: no corpus query passed the cost cap")
	}
	r := newRNG(w.cfg.seed, 2)
	r.shuffle(len(w.queries), func(i, j int) { w.queries[i], w.queries[j] = w.queries[j], w.queries[i] })
	for _, eq := range w.queries {
		w.names = append(w.names, eq.spec.ID)
	}

	lb, err := serveLoopback(1)
	if err != nil {
		return err
	}
	w.lb = lb
	return nil
}

func (w *corpusExec) close() {
	if w.lb != nil {
		w.lb.close()
	}
}

// concreteRun sends one concrete /run and checks it against the oracle.
func (w *corpusExec) concreteRun(tr *tracer, req int64, spanName string, eq *execQuery, body []byte) (runResp, reply, []string) {
	var rep reply
	var err error
	tr.timed(req, 0, spanName, func(int64) { rep, err = w.lb.post(eq.prefix+"/run", body) })
	if err != nil {
		return runResp{}, rep, []string{err.Error()}
	}
	if !rep.ok() {
		return runResp{}, rep, []string{fmt.Sprintf("concrete /run answered %d: %s", rep.status, rep.body)}
	}
	var got runResp
	if err := json.Unmarshal(rep.body, &got); err != nil {
		return got, rep, []string{"decode /run: " + err.Error()}
	}
	return got, rep, eq.target.checkConcrete(got.completed(), got.ResultRows)
}

// coldPhase opens every round: fresh servers, so each query pays its
// compile and its engine build — the SQL-text-to-rows latency — and then
// one untimed run per remaining configuration to build the lazy table
// indexes the steady runs should not be charged for.
func (w *corpusExec) coldPhase(p *pass) {
	cqs := make([]*corpusQuery, len(w.queries))
	for i, eq := range w.queries {
		cqs[i] = eq.corpusQuery
	}
	mountFresh(w.lb, cqs, server.Config{ExecReuse: true})
	for _, eq := range w.queries {
		req := p.tr.newReq()
		p.clock(func() time.Duration {
			_, rep, errs := coldCompile(p, w.lb, req, eq.corpusQuery)
			_, first, runErrs := w.concreteRun(p.tr, req, "http.run_first", eq, eq.firstRun)
			p.sample("op", first.latency)
			p.sample("sql_to_rows", rep.latency+first.latency)
			p.op(eq.spec.ID+" cold", append(errs, runErrs...))
			return rep.latency + first.latency
		})
		for _, c := range eq.runs[1:] {
			if _, _, errs := w.concreteRun(nil, req, "", eq, c.body); len(errs) > 0 {
				p.op(eq.spec.ID+" warm-up "+c.cfg.tag, errs)
			}
		}
	}
}

func (w *corpusExec) round(p *pass) error {
	w.coldPhase(p)
	for _, eq := range w.queries {
		req := p.tr.newReq()
		for _, c := range eq.runs {
			p.clock(func() time.Duration {
				kind := c.cfg.tag
				if c.optimized {
					kind += "_opt"
				}
				_, rep, errs := w.concreteRun(p.tr, req, "http.run_concrete."+kind, eq, c.body)
				p.sample("run."+kind, rep.latency)
				p.sample("op", rep.latency)
				if kind == "w0" && len(errs) == 0 {
					p.sample("served.w0."+eq.spec.ID, rep.latency)
				}
				p.op(eq.spec.ID+" "+kind, errs)
				return rep.latency
			})
			if c.cfg.workers != 0 {
				continue
			}
			// The optimal plan alone, in-process on the twin engine,
			// straight after the w0 run it is the reference for: the
			// denominator of wall_ratio_gmean.
			_, wall, err := eq.target.runReference(c.cfg)
			if err != nil {
				return err
			}
			p.sample("optimal.w0."+eq.spec.ID, wall)
		}
	}
	if p.tr == nil {
		return nil
	}
	for _, eq := range w.queries {
		req := p.tr.newReq()
		if p.rounds == 0 {
			var db *data.Database
			p.tr.timed(req, 0, "data.generate", func(int64) {
				db = data.Generate(eq.spec.Catalog, eq.tw.q.Relations(), nil, w.dataSeed())
			})
			for _, rel := range eq.tw.q.Relations() {
				p.tr.count("data.rows", float64(db.Table(rel).NumRows()))
			}
		}
		if err := probeConcrete(p, req, &eq.target, w.cfgs); err != nil {
			return err
		}
	}
	return nil
}

func (w *corpusExec) endToEnd(p *pass) []metric {
	// compile_cold_p95_ms is per-layer here (server.compile_cold_p95_ms):
	// 41 compiles a round leave a tail too thin to repeat.
	return []metric{
		p.p50("compile_cold_p50_ms", "compile_cold"),
		p.p50("sql_to_rows_p50_ms", "sql_to_rows"),
		p.p50("run_concrete_w0_p50_ms", "run.w0"),
		p.p50("run_concrete_wN_p50_ms", "run.wN"),
		p.tail("run_concrete_wN_p95_ms", "run.wN", 95),
		{Name: "wall_ratio_gmean", Unit: "ratio", Value: wallRatioGmean(p, w.names, "served.w0.", "optimal.w0."), N: len(w.names)},
		boundMSOGmean(p),
	}
}

func (w *corpusExec) perLayer(p *pass, ly layerIndex) []metric {
	out := execLayerMetrics(p, ly, w.names)
	perCall := func(name string) float64 { return ratio(ly.ms(name), ly.calls(name)) }
	return append(out,
		metric{Name: "data.generate_ms", Value: ly.ms("data.generate"), N: ly["data.generate"].Calls},
		metric{Name: "data.rows", Value: p.tr.counter("data.rows")},
		metric{Name: "data.rows_per_s", Value: ratio(p.tr.counter("data.rows"), ly.ms("data.generate")/1e3)},
		metric{Name: "server.run_concrete_overhead_ms", Value: perCall("http.run_concrete.w0") - perCall("core.concrete_run.w0"), N: ly["http.run_concrete.w0"].Calls},
		metric{Name: "server.engine_build_ms", Value: perCall("http.run_first") - perCall("http.run_concrete.w0"), N: ly["http.run_first"].Calls},
		p.tail("server.compile_cold_p95_ms", "compile_cold", 95),
	)
}
