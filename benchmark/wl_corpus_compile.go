package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ess"
	"repro/internal/server"
	"repro/internal/sqlparse"
)

// corpusDir holds the golden corpus baselines the compile answers are
// also checked against.
const corpusDir = "testdata/corpus"

// corpusSeed is the seed of the blessed corpus under testdata/corpus, the
// one both corpus workloads replay. The benchmark seed does not re-draw
// it: a new corpus is a different workload, not a repetition (README
// "Seeds"), and corpus_exec's size caps were set on this one.
const corpusSeed = 20140622

// corpusCompile is the corpus_compile workload: every query of the
// generated corpus, each against a server over its own catalog, compiled
// cold and run four times on the simulated drivers. 500 tiny grids make
// the fixed per-query costs — optimizer.New, sqlparse, JSON, the cache
// insert — visible; exec and data do nothing here.
type corpusCompile struct {
	cfg     config
	lb      *loopback
	queries []*corpusQuery
	// refs names the queries that are also compiled in-process beside
	// their served compile: the denominator of wall_ratio_gmean.
	refs []string
}

// inprocRefStride picks every 5th corpus query (by corpus index, so the
// subset is the same for every seed) for the in-process reference compile:
// a hundred ratios are plenty for a geometric mean, and all 500 would
// double the round.
const inprocRefStride = 5

// corpusQuery is one corpus spec with its in-process oracle.
type corpusQuery struct {
	index  int // position in the corpus
	spec   corpus.Spec
	prefix string // mount point of the query's server, "/q0007"
	tw     *twin
	golden *corpus.Baseline // nil unless the blessed corpus covers it
	// compileBody and runs are the prebuilt requests; the bouquet id a
	// fresh server assigns its first compile is always "b1".
	compileBody []byte
	runs        []simRunCase
}

// simRunCase is one simulated /run request with its expected outcome.
type simRunCase struct {
	qa        ess.Point
	optimized bool
	body      []byte
	want      core.Execution
}

// firstBouquetID is the id a fresh server gives its first compile.
const firstBouquetID = "b1"

func (w *corpusCompile) name() string { return "corpus_compile" }

// loadGolden returns the blessed baselines keyed by query id, or nil when
// they are absent (they live outside the benchmark's directory) or were
// blessed from another seed.
func loadGolden() map[string]*corpus.Baseline {
	m, baselines, err := corpus.Load(corpusDir)
	if err != nil || m.Seed != corpusSeed {
		return nil
	}
	out := make(map[string]*corpus.Baseline, len(baselines))
	for i := range baselines {
		out[baselines[i].ID] = &baselines[i]
	}
	return out
}

// newCorpusQuery generates corpus query i and compiles its oracle.
func newCorpusQuery(i int, golden map[string]*corpus.Baseline) (*corpusQuery, error) {
	spec := corpus.GenerateSpec(corpusSeed, i)
	tw, err := compileTwin(spec.ID, spec.Catalog, spec.SQL, spec.Res)
	if err != nil {
		return nil, err
	}
	cq := &corpusQuery{
		index:       i,
		spec:        spec,
		prefix:      "/" + spec.ID,
		tw:          tw,
		compileBody: mustJSON(compileReq{SQL: spec.SQL, Res: spec.Res, Lambda: lambda.F()}),
	}
	// The baselines were blessed under each spec's own cost model; the
	// server always prices with the postgres one, so only those compare.
	if g := golden[spec.ID]; g != nil && spec.Model == "postgres" && g.SQL == spec.SQL {
		cq.golden = g
	}
	return cq, nil
}

func (w *corpusCompile) setup() error {
	golden := loadGolden()
	n := w.cfg.pick(500, 12)
	w.queries, w.refs = make([]*corpusQuery, 0, n), nil
	for i := 0; i < n; i++ {
		cq, err := newCorpusQuery(i, golden)
		if err != nil {
			return err
		}
		space, b := cq.tw.space, cq.tw.b
		for _, qa := range []ess.Point{space.Terminus(), space.Origin()} {
			for _, optimized := range []bool{false, true} {
				c := simRunCase{qa: qa, optimized: optimized,
					body: mustJSON(runReq{ID: firstBouquetID, QA: qa, Optimized: optimized})}
				if optimized {
					c.want = b.RunOptimized(qa)
				} else {
					c.want = b.RunBasic(qa)
				}
				cq.runs = append(cq.runs, c)
			}
		}
		w.queries = append(w.queries, cq)
		if i%inprocRefStride == 0 {
			w.refs = append(w.refs, cq.spec.ID)
		}
	}
	// The seed decides the order the corpus is replayed in.
	r := newRNG(w.cfg.seed, 1)
	r.shuffle(len(w.queries), func(i, j int) { w.queries[i], w.queries[j] = w.queries[j], w.queries[i] })

	lb, err := serveLoopback(1)
	if err != nil {
		return err
	}
	w.lb = lb
	return nil
}

func (w *corpusCompile) close() {
	if w.lb != nil {
		w.lb.close()
	}
}

// mountFresh puts a new server per query behind the listener, so every
// compile of the coming round misses.
func mountFresh(lb *loopback, queries []*corpusQuery, cfg server.Config) {
	mux := http.NewServeMux()
	for _, cq := range queries {
		h := server.NewWithConfig(cq.spec.Catalog, cfg).Handler()
		mux.Handle(cq.prefix+"/", http.StripPrefix(cq.prefix, h))
	}
	lb.mount(mux)
}

// checkGolden compares a /compile answer with the blessed baseline.
func checkGolden(got compileResp, g *corpus.Baseline) []string {
	var errs []string
	if got.Plans != g.BouquetSize {
		errs = append(errs, fmt.Sprintf("plans %d, golden bouquetSize %d", got.Plans, g.BouquetSize))
	}
	if got.Contours != len(g.Contours) {
		errs = append(errs, fmt.Sprintf("contours %d, golden %d", got.Contours, len(g.Contours)))
	}
	if !near(got.BoundMSO, g.MSO) {
		errs = append(errs, fmt.Sprintf("boundMso %g, golden mso %g", got.BoundMSO, g.MSO))
	}
	return errs
}

// coldCompile sends cq's /compile to its (fresh) server and checks the
// answer against every oracle.
func coldCompile(p *pass, lb *loopback, req int64, cq *corpusQuery) (compileResp, reply, []string) {
	var rep reply
	var err error
	p.tr.timed(req, 0, "http.compile", func(int64) { rep, err = lb.post(cq.prefix+"/compile", cq.compileBody) })
	if err != nil {
		return compileResp{}, rep, []string{err.Error()}
	}
	p.sample("compile_cold", rep.latency)
	if !rep.ok() {
		return compileResp{}, rep, []string{fmt.Sprintf("/compile answered %d: %s", rep.status, rep.body)}
	}
	var got compileResp
	if err := json.Unmarshal(rep.body, &got); err != nil {
		return got, rep, []string{"decode /compile: " + err.Error()}
	}
	var errs []string
	if got.Cached {
		errs = append(errs, "cold compile answered cached:true")
	}
	if got.ID != firstBouquetID {
		errs = append(errs, "fresh server assigned id "+got.ID)
	}
	errs = append(errs, checkSummary(got, cq.tw.b)...)
	if cq.golden != nil {
		errs = append(errs, checkGolden(got, cq.golden)...)
	}
	if len(errs) == 0 {
		p.series("bound_mso", got.BoundMSO)
	}
	return got, rep, errs
}

// boundMSOGmean is mso_gmean on the workloads that compile the corpus over
// HTTP: the geometric mean of the Eq. 8 guarantee (boundMso) the served
// compiles reported. The corpus is fixed, so it is the same for every
// seed.
func boundMSOGmean(p *pass) metric {
	return metric{Name: "mso_gmean", Unit: "ratio", Value: gmean(p.samples["bound_mso"]), N: len(p.samples["bound_mso"])}
}

func (w *corpusCompile) round(p *pass) error {
	mountFresh(w.lb, w.queries, server.Config{})
	for _, cq := range w.queries {
		p.clock(func() (waited time.Duration) {
			req := p.tr.newReq()
			_, rep, errs := coldCompile(p, w.lb, req, cq)
			waited = rep.latency
			if len(errs) == 0 {
				p.sample("served."+cq.spec.ID, rep.latency)
			}
			for _, c := range cq.runs {
				var rr reply
				var err error
				p.tr.timed(req, 0, "http.run_sim", func(int64) { rr, err = w.lb.post(cq.prefix+"/run", c.body) })
				if err != nil {
					errs = append(errs, err.Error())
					continue
				}
				waited += rr.latency
				p.sample("run_sim", rr.latency)
				var run runResp
				if !rr.ok() {
					errs = append(errs, fmt.Sprintf("/run answered %d: %s", rr.status, rr.body))
				} else if err := json.Unmarshal(rr.body, &run); err != nil {
					errs = append(errs, "decode /run: "+err.Error())
				} else {
					errs = append(errs, checkSimRun(run, c.want, cq.tw.b, c.optimized)...)
				}
			}
			p.sample("op", waited)
			p.op(cq.spec.ID, errs)
			return waited
		})
		if cq.index%inprocRefStride != 0 {
			continue
		}
		// The same text through the same pipeline with no server around it,
		// moments after the served compile: the reference of
		// wall_ratio_gmean.
		start := time.Now()
		if _, err := compileTwin(cq.spec.ID, cq.spec.Catalog, cq.spec.SQL, cq.spec.Res); err != nil {
			return err
		}
		p.sample("inproc."+cq.spec.ID, time.Since(start))
	}
	if p.tr == nil {
		return nil
	}
	// Layer probes: the same queries through the same layers in-process.
	for i, cq := range w.queries {
		req := p.tr.newReq()
		parse := p.tr.timed(req, 0, "sqlparse.parse", func(int64) {
			_, _ = sqlparse.Parse(cq.spec.ID, cq.spec.Catalog, cq.spec.SQL) // parsed once in setup; this call is only timed
		})
		p.tr.count("sqlparse.bytes", float64(len(cq.spec.SQL)))
		space := p.tr.timed(req, 0, "ess.new_space", func(int64) {
			_, _ = ess.NewSpace(cq.tw.q, []int{cq.spec.Res}) // built once in setup; this call is only timed
		})
		if err := probeStages(p, req, cq.tw.q, cq.tw.space, (i+p.rounds)%2 == 0); err != nil {
			return err
		}
		p.add("inproc_front_ms", ms(parse+space))
		for _, c := range cq.runs {
			simRun(p, req, 0, cq.tw.b, c.qa, c.optimized)
		}
	}
	return nil
}

func (w *corpusCompile) endToEnd(p *pass) []metric {
	return []metric{
		p.p50("compile_cold_p50_ms", "compile_cold"),
		p.tail("compile_cold_p95_ms", "compile_cold", 95),
		p.p50("run_sim_p50_ms", "run_sim"),
		p.tail("run_sim_p95_ms", "run_sim", 95),
		// Served cold compile over the in-process pipeline for the same
		// text: what the server adds to a compile.
		{Name: "wall_ratio_gmean", Unit: "ratio", Value: wallRatioGmean(p, w.refs, "served.", "inproc."), N: len(w.refs)},
		boundMSOGmean(p),
	}
}

func (w *corpusCompile) perLayer(p *pass, ly layerIndex) []metric {
	out := compileLayerMetrics(p, ly)
	out = append(out, simLayerMetrics(p, ly)...)
	// The in-process pipeline for one query is parse + space + optimizer.New
	// + the whole compile; what the HTTP path adds per query is overhead.
	inproc := p.values["inproc_front_ms"] + ly.ms("optimizer.new") + ly.ms("core.compile")
	queries := ly.calls("http.compile")
	sims := ly.ms("core.run_basic") + ly.ms("core.run_optimized")
	return append(out,
		metric{Name: "sqlparse.parse_ms", Value: ly.ms("sqlparse.parse"), N: ly["sqlparse.parse"].Calls},
		metric{Name: "sqlparse.mb_per_s", Value: ratio(p.tr.counter("sqlparse.bytes")/1e6, ly.ms("sqlparse.parse")/1e3)},
		metric{Name: "ess.new_space_ms", Value: ly.ms("ess.new_space"), N: ly["ess.new_space"].Calls},
		metric{Name: "server.compile_overhead_ms", Value: ratio(ly.ms("http.compile")-inproc, queries), N: int(queries)},
		metric{Name: "server.run_sim_overhead_us", Value: ratio((ly.ms("http.run_sim")-sims)*1e3, ly.calls("http.run_sim")), N: ly["http.run_sim"].Calls},
	)
}
