package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ess"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/trace"
)

// serveMix is the serve_mix workload: one server over the catalog
// bouquetd serves, a resident set of compiled bouquets smaller than the
// compile cache, and a seeded request mix driven closed-loop by one
// keep-alive client per core. The cache and registry the other workloads
// only write are here read under concurrency beside writes and
// evictions; a simulated run is ~90 % server overhead, so JSON, mutex and
// metrics work shows here and nowhere else.
type serveMix struct {
	cfg      config
	cat      *catalog.Catalog
	lb       *loopback
	srv      *server.Server
	resident []*residentQuery
	anchors  int        // the first so many residents are the same for every seed
	spare    []genQuery // never pre-compiled: the stock compile misses are varied from
	misses   int        // compile-miss variants issued so far
	rounds   uint64     // schedules generated so far
}

// residentQuery is one pre-compiled query with its in-process twin.
type residentQuery struct {
	g           genQuery
	tw          *twin
	id          string
	compileBody []byte
}

// requestKind is one entry of the traffic mix.
type requestKind int

const (
	kindRunSim requestKind = iota
	kindCompileHit
	kindCompileMiss
	kindGetBouquet
	kindRunTraced
	kindMetrics
)

// mix is the request mix in percent of schedule slots, in requestKind
// order: simulated runs, resident compiles (hits), never-seen compiles
// (miss → insert → eviction), bouquet reads, traced run + trace fetch,
// metrics scrapes.
var mix = [...]int{kindRunSim: 55, kindCompileHit: 25, kindCompileMiss: 1, kindGetBouquet: 10, kindRunTraced: 4, kindMetrics: 5}

// request is one scheduled slot, fully built before the clock starts.
type request struct {
	kind      requestKind
	q         *residentQuery
	miss      genQuery
	path      string
	body      []byte
	qa        ess.Point
	optimized bool
	want      core.Execution
}

const (
	// The pool is 160 distinct cache keys (a fifth of them anchors, see
	// serveMixSQL), of which the first 96 are resident — under the default
	// cache size of 128, so hits stay hits while the 32 free slots churn
	// through the misses.
	serveMixPool     = 160
	serveMixResident = 96
	// serveMixRoundRequests sizes one round at under two seconds on two
	// cores.
	serveMixRoundRequests = 8000
)

func (w *serveMix) name() string { return "serve_mix" }

func (w *serveMix) setup() error {
	w.cat = catalog.TPCHLike(1.0)
	pool, anchors, err := serveMixSQL(w.cat, w.cfg.seed, w.cfg.pick(serveMixPool, 20))
	if err != nil {
		return err
	}
	w.anchors = anchors
	nResident := w.cfg.pick(serveMixResident, 10)
	w.spare = pool[nResident:]
	w.resident = nil
	for i, g := range pool[:nResident] {
		// A fresh server numbers its compiles b1, b2, …, so the resident
		// ids are known before any server exists.
		rq := &residentQuery{g: g, id: fmt.Sprintf("b%d", i+1),
			compileBody: mustJSON(compileReq{SQL: g.sql, Res: g.res, Lambda: lambda.F()})}
		if rq.tw, err = compileTwin(rq.id, w.cat, g.sql, g.res); err != nil {
			return err
		}
		w.resident = append(w.resident, rq)
	}
	if w.lb, err = serveLoopback(w.cfg.clients); err != nil {
		return err
	}
	if err := w.freshServer(); err != nil {
		return err
	}
	// Warm-up: a short untimed schedule opens the keep-alive connections
	// and touches every handler once.
	warm := newPass(w.cfg, nil)
	w.play(warm, w.schedule(warm, w.cfg.pick(1000, 60)))
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.failures[0])
	}
	return nil
}

// freshServer mounts a new server and pre-compiles the resident set on
// it. Every round starts from one: the server's request metrics keep one
// label set (and one latency histogram) per distinct /runs/{id}/trace
// path, so a /metrics scrape slows with every trace ever fetched; a round
// on a fresh server costs the same as the round before it.
func (w *serveMix) freshServer() error {
	w.srv = server.NewWithConfig(w.cat, server.Config{})
	w.lb.mount(w.srv.Handler())
	for _, rq := range w.resident {
		rep, err := w.lb.post("/compile", rq.compileBody)
		if err != nil {
			return err
		}
		var got compileResp
		if err := json.Unmarshal(rep.body, &got); err != nil || !rep.ok() {
			return fmt.Errorf("pre-compile %s answered %d: %s", rq.id, rep.status, rep.body)
		}
		if got.Cached || got.ID != rq.id {
			return fmt.Errorf("pre-compile %s answered id %s cached:%t — the generator repeated a cache key", rq.id, got.ID, got.Cached)
		}
		if errs := checkSummary(got, rq.tw.b); len(errs) > 0 {
			return fmt.Errorf("pre-compile %s: %s", rq.id, errs[0])
		}
	}
	return nil
}

func (w *serveMix) close() {
	if w.lb != nil {
		w.lb.close()
	}
}

// schedule builds the next n-slot request schedule from the seed and the
// count of schedules built so far, so every round of every pass sees new
// locations and the sequence repeats exactly for a seed. Expected run
// outcomes are computed here, in-process — under spans when p is traced,
// which is where the simulated-driver layer numbers come from.
func (w *serveMix) schedule(p *pass, n int) []request {
	r := newRNG(w.cfg.seed, 1000+w.rounds)
	w.rounds++
	out := make([]request, 0, n)
	for len(out) < n {
		roll := r.intn(100)
		kind := requestKind(0)
		for acc := 0; ; kind++ {
			if acc += mix[kind]; roll < acc {
				break
			}
		}
		rq := w.resident[r.intn(len(w.resident))]
		req := request{kind: kind, q: rq}
		switch kind {
		case kindRunSim, kindRunTraced:
			space := rq.tw.space
			req.qa = space.PointAt(r.intn(space.NumPoints()))
			req.optimized = r.intn(2) == 0
			req.path = "/run"
			req.body = mustJSON(runReq{ID: rq.id, QA: req.qa, Optimized: req.optimized, Trace: kind == kindRunTraced})
			req.want = simRun(p, p.tr.newReq(), 0, rq.tw.b, req.qa, req.optimized)
			if kind == kindRunTraced && p.tr != nil {
				// What the server does after a traced run, alone: fold
				// the run's spans into an aggregate.
				rec := trace.New(0)
				if _, err := rq.tw.b.RunBasicTraced(context.Background(), req.qa, nil, rec); err == nil {
					spans := rec.Spans()
					p.tr.timed(0, 0, "metrics.aggregate", func(int64) { metrics.Aggregate(spans) })
				}
			}
		case kindCompileHit:
			req.path, req.body = "/compile", rq.compileBody
		case kindCompileMiss:
			// A never-seen variant: a spare query under a lambda no
			// request has carried before. Lambda is part of the cache
			// key, and a nudge in the ninth decimal leaves the compile's
			// cost and outcome alone.
			req.miss = w.spare[w.misses%len(w.spare)]
			w.misses++
			req.path = "/compile"
			req.body = mustJSON(compileReq{SQL: req.miss.sql, Res: req.miss.res, Lambda: lambda.F() + float64(w.misses)*1e-9})
		case kindGetBouquet:
			req.path = "/bouquets/" + rq.id
		case kindMetrics:
			req.path = "/metrics"
		}
		out = append(out, req)
	}
	return out
}

// play drives one schedule closed-loop: cfg.clients clients, each on its
// own keep-alive connection, each sending its next request when the
// previous answer has arrived. It returns, when every client is done, the
// mean time a client spent not waiting on the server.
func (w *serveMix) play(p *pass, sched []request) (think time.Duration) {
	clients := w.cfg.clients
	locals := make([]*pass, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		local := newPass(p.cfg, p.tr)
		locals[c] = local
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start := time.Now()
			var inFlight time.Duration
			for i := c; i < len(sched); i += clients {
				inFlight += w.send(local, &sched[i])
			}
			local.think = time.Since(start) - inFlight
		}(c)
	}
	wg.Wait()

	for _, local := range locals {
		p.merge(local)
		think += local.think
	}
	return think / time.Duration(clients)
}

// send issues one scheduled request (two for a traced run: the run, then
// its trace), checks the answers, and returns the time spent waiting on
// the server.
func (w *serveMix) send(p *pass, r *request) time.Duration {
	req := p.tr.newReq()
	exchange := func(span, method, path string, body []byte) (reply, []string) {
		var rep reply
		var err error
		p.tr.timed(req, 0, span, func(int64) { rep, err = w.lb.do(method, path, body) })
		if err != nil {
			return rep, []string{err.Error()}
		}
		p.sample("op", rep.latency)
		p.add("resp_bytes", float64(len(rep.body)))
		if !rep.ok() {
			p.add("http_errors", 1)
			return rep, []string{fmt.Sprintf("%s %s answered %d: %s", method, path, rep.status, rep.body)}
		}
		return rep, nil
	}
	decode := func(rep reply, errs []string, into any) []string {
		if len(errs) == 0 {
			if err := json.Unmarshal(rep.body, into); err != nil {
				errs = append(errs, "decode: "+err.Error())
			}
		}
		return errs
	}

	switch r.kind {
	case kindRunSim, kindRunTraced:
		span, sampleName := "http.run_sim", "run_sim"
		if r.kind == kindRunTraced {
			span, sampleName = "http.run_traced", "run_traced"
		}
		rep, errs := exchange(span, "POST", r.path, r.body)
		var got runResp
		if errs = decode(rep, errs, &got); len(errs) == 0 {
			p.sample(sampleName, rep.latency)
			p.sample(sampleName+"."+r.q.id, rep.latency)
			errs = checkSimRun(got, r.want, r.q.tw.b, r.optimized)
		}
		waited := rep.latency
		if r.kind == kindRunTraced {
			if len(errs) == 0 && got.RunID == "" {
				errs = append(errs, "traced run carried no runId")
			}
			p.op("POST /run traced", errs)
			if got.RunID == "" {
				return waited
			}
			tr, terrs := exchange("http.get_trace", "GET", "/runs/"+got.RunID+"/trace", nil)
			if len(terrs) == 0 && !bytes.Contains(tr.body, []byte(`"spans"`)) {
				terrs = append(terrs, "trace body has no spans")
			}
			p.op("GET /runs/{id}/trace", terrs)
			return waited + tr.latency
		}
		p.op("POST /run", errs)
		return waited

	case kindCompileHit:
		rep, errs := exchange("http.compile_resident", "POST", r.path, r.body)
		var got compileResp
		if errs = decode(rep, errs, &got); len(errs) == 0 {
			// An unlucky resident can have been evicted between two of
			// its hits; either answer is right, and each is timed as what
			// it was.
			if got.Cached {
				p.sample("compile_cached", rep.latency)
			} else {
				p.sample("compile_cold", rep.latency)
			}
			errs = checkSummary(got, r.q.tw.b)
		}
		p.op("POST /compile resident", errs)
		return rep.latency

	case kindCompileMiss:
		rep, errs := exchange("http.compile_miss", "POST", r.path, r.body)
		var got compileResp
		if errs = decode(rep, errs, &got); len(errs) == 0 {
			p.sample("compile_cold", rep.latency)
			switch {
			case got.Cached:
				errs = append(errs, "never-seen compile answered cached:true")
			case got.Dims != r.miss.dims || got.Plans < 1 || got.Contours < 1 || got.BoundMSO < 1:
				errs = append(errs, fmt.Sprintf("implausible summary %+v", got))
			}
		}
		p.op("POST /compile miss", errs)
		return rep.latency

	case kindGetBouquet:
		rep, errs := exchange("http.get_bouquet", "GET", r.path, nil)
		var got struct {
			Summary compileResp `json:"summary"`
		}
		if errs = decode(rep, errs, &got); len(errs) == 0 {
			errs = checkSummary(got.Summary, r.q.tw.b)
		}
		p.op("GET /bouquets/{id}", errs)
		return rep.latency

	default: // kindMetrics
		rep, errs := exchange("http.metrics", "GET", r.path, nil)
		if len(errs) == 0 && !bytes.Contains(rep.body, []byte("bouquetd_")) {
			errs = append(errs, "/metrics body has no bouquetd_ series")
		}
		p.op("GET /metrics", errs)
		return rep.latency
	}
}

func (w *serveMix) round(p *pass) error {
	if err := w.freshServer(); err != nil {
		return err
	}
	before := w.srv.CacheStats()
	sched := w.schedule(p, w.cfg.pick(serveMixRoundRequests, 300))
	p.clock(func() time.Duration {
		start := time.Now()
		think := w.play(p, sched)
		return time.Since(start) - think
	})
	after := w.srv.CacheStats()
	p.add("cache.hits", float64(after.Hits-before.Hits))
	p.add("cache.misses", float64(after.Misses-before.Misses))
	p.add("cache.evictions", float64(after.Evictions-before.Evictions))
	return nil
}

func (w *serveMix) endToEnd(p *pass) []metric {
	// The anchors' Eq. 8 guarantees, which every pre-compile answer was
	// checked against.
	var bounds []float64
	var ids []string
	for i, rq := range w.resident {
		ids = append(ids, rq.id)
		if i < w.anchors {
			bounds = append(bounds, rq.tw.b.BoundMSO().F())
		}
	}
	return []metric{
		p.p50("compile_cold_p50_ms", "compile_cold"),
		p.tail("compile_cold_p95_ms", "compile_cold", 95),
		p.p50("compile_cached_p50_ms", "compile_cached"),
		p.p50("run_sim_p50_ms", "run_sim"),
		p.tail("run_sim_p95_ms", "run_sim", 95),
		// A simulated /run with "trace":true over a plain one on the same
		// bouquet: what recording a run's spans costs.
		{Name: "wall_ratio_gmean", Unit: "ratio", Value: wallRatioGmean(p, ids, "run_traced.", "run_sim."), N: len(ids)},
		{Name: "mso_gmean", Unit: "ratio", Value: gmean(bounds), N: len(bounds)},
	}
}

func (w *serveMix) perLayer(p *pass, ly layerIndex) []metric {
	perCallUs := func(name string) float64 { return ratio(ly.ms(name)*1e3, ly.calls(name)) }
	sims := ly.ms("core.run_basic") + ly.ms("core.run_optimized")
	simCalls := ly.calls("core.run_basic") + ly.calls("core.run_optimized")
	served := ly.ms("http.run_sim") + ly.ms("http.run_traced")
	servedCalls := ly.calls("http.run_sim") + ly.calls("http.run_traced")
	hits, misses := p.values["cache.hits"], p.values["cache.misses"]
	return append(simLayerMetrics(p, ly),
		metric{Name: "server.run_sim_overhead_us", Value: (ratio(served, servedCalls) - ratio(sims, simCalls)) * 1e3, N: int(servedCalls)},
		metric{Name: "server.cache_hits", Value: hits},
		metric{Name: "server.cache_misses", Value: misses},
		metric{Name: "server.cache_evictions", Value: p.values["cache.evictions"]},
		metric{Name: "server.cache_hit_share", Value: ratio(hits, hits+misses)},
		metric{Name: "server.get_bouquet_us", Value: perCallUs("http.get_bouquet"), N: ly["http.get_bouquet"].Calls},
		metric{Name: "server.metrics_scrape_us", Value: perCallUs("http.metrics"), N: ly["http.metrics"].Calls},
		metric{Name: "server.resp_bytes", Value: p.values["resp_bytes"]},
		metric{Name: "server.http_errors", Value: p.values["http_errors"]},
		metric{Name: "trace.traced_run_overhead_share", Value: ratio(median(p.samples["run_traced"]), median(p.samples["run_sim"])) - 1, N: len(p.samples["run_traced"])},
		metric{Name: "trace.get_trace_us", Value: perCallUs("http.get_trace"), N: ly["http.get_trace"].Calls},
		metric{Name: "metrics.aggregate_us", Value: perCallUs("metrics.aggregate"), N: ly["metrics.aggregate"].Calls},
	)
}
