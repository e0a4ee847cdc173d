package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/trace"
)

// newConcreteServer serves a small catalog so concrete runs generate
// modest row counts.
func newConcreteServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewWithConfig(catalog.TPCHLike(0.01), cfg).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func runConcrete(t *testing.T, srv *httptest.Server, req runRequest) runResponse {
	t.Helper()
	resp, raw := postJSON(t, srv.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("concrete run status %d: %v", resp.StatusCode, raw)
	}
	var out runResponse
	reencode(t, raw, &out)
	return out
}

func TestRunConcreteVolcanoAndVectorizedAgree(t *testing.T) {
	srv := newConcreteServer(t, Config{})
	sum := compileOne(t, srv, apiEQ2D, 12)

	vol := runConcrete(t, srv, runRequest{ID: sum.ID, Concrete: true})
	if !vol.Concrete || vol.Execs == 0 || len(vol.Steps) != vol.Execs {
		t.Fatalf("volcano concrete run = %+v", vol)
	}
	if vol.Workers != 0 {
		t.Fatalf("default workers = %d, want 0 (tuple-at-a-time)", vol.Workers)
	}
	if last := vol.Steps[len(vol.Steps)-1]; !last.Completed {
		t.Fatalf("final step did not complete: %+v", last)
	}

	eight := 8
	vec := runConcrete(t, srv, runRequest{ID: sum.ID, Concrete: true, Parallelism: &eight})
	if vec.Workers != 8 {
		t.Fatalf("workers = %d, want 8", vec.Workers)
	}
	// Same bouquet, same cached engine: the vectorized run must land on
	// the same final result cardinality.
	if vec.ResultRows != vol.ResultRows {
		t.Fatalf("vectorized resultRows %d != volcano %d", vec.ResultRows, vol.ResultRows)
	}
	// The optimized driver completes too, on both engines.
	volOpt := runConcrete(t, srv, runRequest{ID: sum.ID, Concrete: true, Optimized: true})
	vecOpt := runConcrete(t, srv, runRequest{ID: sum.ID, Concrete: true, Optimized: true, Parallelism: &eight})
	if volOpt.ResultRows != vol.ResultRows || vecOpt.ResultRows != vol.ResultRows {
		t.Fatalf("optimized rows volcano=%d vectorized=%d, want %d", volOpt.ResultRows, vecOpt.ResultRows, vol.ResultRows)
	}
}

func TestRunConcreteDefaultsToConfiguredWorkers(t *testing.T) {
	srv := newConcreteServer(t, Config{ExecWorkers: 4})
	sum := compileOne(t, srv, apiEQ2D, 12)
	out := runConcrete(t, srv, runRequest{ID: sum.ID, Concrete: true})
	if out.Workers != 4 {
		t.Fatalf("workers = %d, want config default 4", out.Workers)
	}
	// An explicit 0 overrides the default back to the Volcano engine.
	zero := 0
	out = runConcrete(t, srv, runRequest{ID: sum.ID, Concrete: true, Parallelism: &zero})
	if out.Workers != 0 {
		t.Fatalf("workers = %d, want explicit 0", out.Workers)
	}
}

func TestRunConcreteTraceRetained(t *testing.T) {
	srv := newConcreteServer(t, Config{ExecWorkers: 2})
	sum := compileOne(t, srv, apiEQ2D, 12)
	out := runConcrete(t, srv, runRequest{ID: sum.ID, Concrete: true, Trace: true})
	if out.RunID == "" {
		t.Fatal("traced concrete run returned no runId")
	}
	resp, err := http.Get(srv.URL + "/runs/" + out.RunID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status %d", resp.StatusCode)
	}

	// Concrete runs count toward the run telemetry even though they
	// carry no SubOpt.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "bouquetd_runs_total 1") {
		t.Error("concrete run not counted in bouquetd_runs_total")
	}
	if !strings.Contains(string(body), "bouquetd_traced_runs_total 1") {
		t.Error("concrete traced run not counted in bouquetd_traced_runs_total")
	}
}

func TestRunConcreteValidation(t *testing.T) {
	s := NewWithConfig(catalog.TPCHLike(0.01), Config{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	sum := compileOne(t, srv, apiEQ2D, 12)

	neg, huge, two := -1, exec.MaxParallelism+1, 2
	qa := []float64{0.05, 2e-6}
	for _, c := range []struct {
		name string
		req  runRequest
	}{
		{"negative parallelism", runRequest{ID: sum.ID, Concrete: true, Parallelism: &neg}},
		// The engine's shared upper bound stops a hostile worker count
		// before it becomes that many goroutines.
		{"parallelism past the bound", runRequest{ID: sum.ID, Concrete: true, Parallelism: &huge}},
		// A concrete run learns q_a from the data and starts at IC1.
		{"concrete run with qa", runRequest{ID: sum.ID, Concrete: true, QA: qa}},
		{"concrete run with seed", runRequest{ID: sum.ID, Concrete: true, Seed: qa}},
		// A simulated run generates no data and runs no engine.
		{"simulated run with parallelism", runRequest{ID: sum.ID, QA: qa, Parallelism: &two}},
		{"simulated run with dataSeed", runRequest{ID: sum.ID, QA: qa, DataSeed: 7}},
	} {
		if resp, raw := postJSON(t, srv.URL+"/run", c.req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, resp.StatusCode, raw["error"])
		}
	}
	// Each 400 is answered before an engine is built, so none of them
	// paid for generating the bouquet's tables.
	s.engines.mu.Lock()
	built := len(s.engines.entries)
	s.engines.mu.Unlock()
	if built != 0 {
		t.Fatalf("%d engines built for requests answered 400, want 0", built)
	}
}

// runMetrics is what one /run feeds the bouquetd_* run series.
type runMetrics struct {
	runs, steps, subOpts, reuseHits, traced int64
	cost, optCost, subOpt, salvaged         float64
}

func (m *serverMetrics) runSnapshot() runMetrics {
	m.runSubOpt.mu.Lock()
	subOpts := m.runSubOpt.set("").count
	m.runSubOpt.mu.Unlock()
	return runMetrics{
		runs: m.runsTotal.Value(), steps: m.runSteps.Value(), subOpts: subOpts,
		reuseHits: m.reuseHits.Value(), traced: m.tracedRuns.Value(),
		cost: m.lastRunCost.Value(), optCost: m.lastRunOptCost.Value(),
		subOpt: m.lastRunSubOpt.Value(), salvaged: m.lastSalvagedCost.Value(),
	}
}

// TestRunAnswersWhatBouquetRunReturns holds the one /run path to the
// in-process Bouquet.Run it serves, on both substrates: every response
// field is the Execution's (a concrete run's optCost and subOpt stay 0),
// and every request feeds the run metrics its substrate feeds — a
// simulated run its SubOpt, a concrete one its reuse figures and never a
// SubOpt.
func TestRunAnswersWhatBouquetRunReturns(t *testing.T) {
	s := NewWithConfig(catalog.TPCHLike(0.01), Config{})
	h := s.Handler()
	id := handlerCompile(t, h, apiEQ2D, 12)
	b, _ := s.lookup(id)
	qa := []float64{0.05, 2e-6}
	zero, two, yes := 0, 2, true
	for _, c := range []struct {
		name string
		req  runRequest
	}{
		{"simulated basic", runRequest{ID: id, QA: qa}},
		{"simulated optimized", runRequest{ID: id, QA: qa, Optimized: true}},
		{"simulated traced", runRequest{ID: id, QA: qa, Optimized: true, Trace: true}},
		{"concrete w0", runRequest{ID: id, Concrete: true, Parallelism: &zero}},
		{"concrete w2 optimized", runRequest{ID: id, Concrete: true, Optimized: true, Parallelism: &two}},
		{"concrete w2 reuse traced", runRequest{ID: id, Concrete: true, Parallelism: &two, Reuse: &yes, Trace: true}},
	} {
		before := s.metrics.runSnapshot()
		rec := serve(h, "POST", "/run", c.req)
		var got runResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s): %v", c.name, rec.Code, rec.Body, err)
		}
		if (got.RunID != "") != c.req.Trace {
			t.Errorf("%s: runId %q for trace=%v", c.name, got.RunID, c.req.Trace)
		}
		got.RunID = ""

		run := core.Run{Optimized: c.req.Optimized}
		if c.req.Concrete {
			eng, err := s.engineFor(id, b, 1)
			if err != nil {
				t.Fatal(err)
			}
			run.Engine, run.Parallelism = eng, *c.req.Parallelism
			run.Reuse = c.req.Reuse != nil && *c.req.Reuse
		} else {
			run.QA = qa
		}
		e, err := b.Run(context.Background(), run)
		if err != nil {
			t.Fatal(err)
		}
		want := runResponse{
			TotalCost: e.TotalCost.F(), Execs: e.NumExecs(),
			Concrete: c.req.Concrete, ResultRows: e.ResultRows, Workers: run.Parallelism,
			Reuse: run.Reuse, ReuseHits: e.ReuseHits, SalvagedCost: e.SalvagedCost.F(),
		}
		if !c.req.Concrete {
			want.OptCost, want.SubOpt = e.OptCost.F(), e.SubOpt()
		}
		for _, st := range e.Steps {
			want.Steps = append(want.Steps, runStep{
				Contour: st.Contour, Plan: st.PlanID, Dim: st.Dim,
				Budget: trace.SafeCost(st.Budget.F()), Spent: st.Spent.F(), Completed: st.Completed,
			})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: /run answered\n%+v\nBouquet.Run returns\n%+v", c.name, got, want)
		}
		if c.req.Concrete && (got.OptCost != 0 || got.SubOpt != 0) {
			t.Errorf("%s: concrete run answered optCost %g subOpt %g, want 0", c.name, got.OptCost, got.SubOpt)
		}

		wantM := before
		wantM.runs++
		wantM.steps += int64(e.NumExecs())
		wantM.cost = e.TotalCost.F()
		if c.req.Trace {
			wantM.traced++
		}
		if c.req.Concrete {
			wantM.reuseHits += int64(e.ReuseHits)
			wantM.salvaged = e.SalvagedCost.F()
		} else {
			wantM.subOpts++
			wantM.optCost, wantM.subOpt = e.OptCost.F(), e.SubOpt()
		}
		if gotM := s.metrics.runSnapshot(); gotM != wantM {
			t.Errorf("%s: run metrics %+v, want %+v", c.name, gotM, wantM)
		}
	}
}

// TestRunConcreteUngenerableCatalog checks that a concrete /run over a
// catalog whose tables int32 columns cannot hold answers 422, not a
// recovered panic, and that the server checks before it generates.
func TestRunConcreteUngenerableCatalog(t *testing.T) {
	wide := catalog.TPCHLike(0.01)
	wide.MustRelation("part").Column("p_retailprice").DistinctCount = math.MaxInt32 + 1
	cases := []struct {
		name string
		cat  *catalog.Catalog
		want int
	}{
		{"fits", catalog.TPCHLike(0.01), http.StatusOK},
		{"rows past int32", catalog.TPCHLike(400), http.StatusUnprocessableEntity},
		{"domain past int32", wide, http.StatusUnprocessableEntity},
	}
	rels := []string{"part", "lineitem", "orders"} // apiEQ2D's
	for _, c := range cases {
		// Were the check missing, the run would generate billions of rows.
		if err := data.Check(c.cat, rels, nil); (err == nil) != (c.want == http.StatusOK) {
			t.Fatalf("%s: data.Check = %v", c.name, err)
		}
		srv := httptest.NewServer(NewWithConfig(c.cat, Config{}).Handler())
		sum := compileOne(t, srv, apiEQ2D, 6)
		resp, raw := postJSON(t, srv.URL+"/run", runRequest{ID: sum.ID, Concrete: true})
		srv.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: concrete run status %d (%s), want %d", c.name, resp.StatusCode, raw["error"], c.want)
		}
		if c.want != http.StatusOK && !strings.Contains(string(raw["error"]), "building execution engine: data:") {
			t.Errorf("%s: error %s does not name the data check", c.name, raw["error"])
		}
	}
}

// serveRun posts a /run request straight into the handler under ctx and
// fails the test if it does not answer — the symptom of an earlier run on
// the same (bouquet, dataSeed) leaving its engine wedged.
func serveRun(t *testing.T, ctx context.Context, h http.Handler, req runRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/run", bytes.NewReader(body)).WithContext(ctx))
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("/run did not return: the engine is wedged")
	}
	return rec
}

// concreteHandler compiles one bouquet and returns the server, its handler
// and a concrete /run request for the bouquet.
func concreteHandler(t *testing.T) (*Server, http.Handler, runRequest) {
	t.Helper()
	s := NewWithConfig(catalog.TPCHLike(0.01), Config{})
	h := s.Handler()
	srv := httptest.NewServer(h)
	defer srv.Close()
	return s, h, runRequest{ID: compileOne(t, srv, apiEQ2D, 12).ID, Concrete: true}
}

// TestRunConcreteEngineErrorReleasesEngine is the regression test for the
// engine wedge: a concrete run that ends in an engine error answers 500
// and leaves the engine usable, so the next run on the same (bouquet,
// dataSeed) answers too.
func TestRunConcreteEngineErrorReleasesEngine(t *testing.T) {
	s, h, req := concreteHandler(t)
	// Make the first step fail inside the engine: the first plan the basic
	// algorithm executes gets an operator the engine does not know.
	b, _ := s.lookup(req.ID)
	first := b.Diagram.Plan(b.Contours[0].PlanIDs[0])
	op := first.Op
	first.Op = plan.Op(-1)
	if rec := serveRun(t, context.Background(), h, req); rec.Code != http.StatusInternalServerError {
		t.Fatalf("failing run status %d (%s), want 500", rec.Code, rec.Body)
	}
	first.Op = op
	if rec := serveRun(t, context.Background(), h, req); rec.Code != http.StatusOK {
		t.Fatalf("run after an engine error status %d (%s), want 200", rec.Code, rec.Body)
	}
}

// TestRunConcreteCancelled checks a concrete run observes its request's
// context between steps: 503 and the timeouts counter, as on the simulated
// branch, and the engine free for the next run.
func TestRunConcreteCancelled(t *testing.T) {
	s, h, req := concreteHandler(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rec := serveRun(t, ctx, h, req); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled run status %d (%s), want 503", rec.Code, rec.Body)
	}
	if n := s.metrics.timeouts.Value(); n != 1 {
		t.Fatalf("timeouts counter = %d after one abandoned run, want 1", n)
	}
	if rec := serveRun(t, context.Background(), h, req); rec.Code != http.StatusOK {
		t.Fatalf("run after a cancelled one status %d (%s), want 200", rec.Code, rec.Body)
	}
}

// concreteRunsRetain compiles k bouquets of one SQL text at distinct
// resolutions on a fresh server, runs each once concretely at one data
// seed, and returns what the runs left on the live heap: the engine cache's
// entries and the tables under them.
func concreteRunsRetain(t *testing.T, k int) int64 {
	t.Helper()
	srv := newConcreteServer(t, Config{})
	defer srv.Close()
	ids := make([]string, k)
	for i := range ids {
		ids[i] = compileOne(t, srv, apiEQ2D, 8+2*i).ID
	}
	before := liveHeap()
	for _, id := range ids {
		runConcrete(t, srv, runRequest{ID: id, Concrete: true})
	}
	return liveHeap() - before
}

// liveHeap returns the heap in use after a full collection. The second
// collection empties what sync.Pool's victim cache kept through the first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestEngineCacheHoldsOneCopyOfEachTable pins that the engine cache holds
// each table once, however many bouquets over the catalog it caches: four
// bouquets' concrete runs over the same relations and seed retain within
// 10 % of what one bouquet's run does, where a database per engine would
// retain four times as much.
func TestEngineCacheHoldsOneCopyOfEachTable(t *testing.T) {
	// The first runs in a process also grow process-wide state: the
	// shared row-id vector and the pools. Neither is per table.
	concreteRunsRetain(t, 1)
	one := concreteRunsRetain(t, 1)
	four := concreteRunsRetain(t, DefaultEngineCacheSize)
	t.Logf("retained by concrete runs: 1 bouquet %d B, %d bouquets %d B", one, DefaultEngineCacheSize, four)
	if one <= 0 || float64(four) > 1.1*float64(one) {
		t.Fatalf("%d bouquets' runs retain %d B, one bouquet's %d B: want within 10 %%", DefaultEngineCacheSize, four, one)
	}
}
