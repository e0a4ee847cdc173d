package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestRunTraceRoundTrip pins the tentpole acceptance criterion: a traced
// run's full span sequence round-trips through /runs/{id}/trace JSON with
// per-node operator stats present for every executed step.
func TestRunTraceRoundTrip(t *testing.T) {
	srv := newTestServer(t)
	sum := compileOne(t, srv, apiEQ2D, 12)

	resp, raw := postJSON(t, srv.URL+"/run", runRequest{
		ID: sum.ID, QA: []float64{0.05, 2e-6}, Optimized: true, Trace: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %v", resp.StatusCode, raw)
	}
	var run runResponse
	reencode(t, raw, &run)
	if run.RunID == "" {
		t.Fatal("traced run returned no runId")
	}

	tresp, err := http.Get(srv.URL + "/runs/" + run.RunID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", tresp.StatusCode)
	}
	var rr struct {
		RunID     string               `json:"runId"`
		BouquetID string               `json:"bouquetId"`
		Aggregate metrics.RunAggregate `json:"aggregate"`
		Spans     []trace.Span         `json:"spans"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&rr); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if rr.RunID != run.RunID || rr.BouquetID != sum.ID {
		t.Fatalf("trace identity = %s/%s, want %s/%s", rr.RunID, rr.BouquetID, run.RunID, sum.ID)
	}

	var execs []trace.Span
	for _, s := range rr.Spans {
		if s.Kind == trace.KindExec {
			execs = append(execs, s)
		}
	}
	if len(execs) != len(run.Steps) {
		t.Fatalf("%d exec spans for %d run steps", len(execs), len(run.Steps))
	}
	for i, s := range execs {
		st := run.Steps[i]
		if s.Contour != st.Contour || s.PlanID != st.Plan || s.Completed != st.Completed {
			t.Fatalf("exec span %d = %+v does not mirror step %+v", i, s, st)
		}
		// The acceptance criterion: per-node operator stats for every
		// executed step, surviving the JSON round trip.
		if len(s.Nodes) == 0 {
			t.Fatalf("exec span %d lost its node stats over the wire", i)
		}
		for _, n := range s.Nodes {
			if n.Op == "" {
				t.Fatalf("exec span %d node with empty op: %+v", i, n)
			}
		}
	}
	if rr.Aggregate.Execs != len(execs) || rr.Aggregate.Completed == 0 {
		t.Fatalf("aggregate %+v inconsistent with %d exec spans", rr.Aggregate, len(execs))
	}

	// An untraced run must not mint a run ID.
	_, rawPlain := postJSON(t, srv.URL+"/run", runRequest{ID: sum.ID, QA: []float64{0.05, 2e-6}})
	if _, ok := rawPlain["runId"]; ok {
		t.Fatal("untraced run minted a runId")
	}

	// Unknown run IDs 404.
	missing, err := http.Get(srv.URL + "/runs/r999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("missing trace status %d, want 404", missing.StatusCode)
	}
}

// TestTraceMetricsExported pins the new bouquetd_trace_* Prometheus series.
func TestTraceMetricsExported(t *testing.T) {
	srv := newTestServer(t)
	sum := compileOne(t, srv, apiEQ2D, 12)
	resp, _ := postJSON(t, srv.URL+"/run", runRequest{ID: sum.ID, QA: []float64{0.05, 2e-6}, Optimized: true, Trace: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	data, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, want := range []string{
		"bouquetd_traced_runs_total 1",
		"bouquetd_trace_exec_steps_total",
		"bouquetd_trace_budget_aborts_total",
		"bouquetd_trace_spills_total",
		"bouquetd_trace_learns_total",
		"bouquetd_last_run_wasted_ratio",
		"bouquetd_trace_step_wall_seconds_count",
		"bouquetd_retained_traces 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestRunStoreEviction(t *testing.T) {
	st := newRunStore(2)
	id1 := st.add("b1", nil, 0, metrics.RunAggregate{})
	id2 := st.add("b1", nil, 0, metrics.RunAggregate{})
	id3 := st.add("b1", nil, 0, metrics.RunAggregate{})
	if _, ok := st.get(id1); ok {
		t.Fatal("oldest run survived eviction")
	}
	for _, id := range []string{id2, id3} {
		if _, ok := st.get(id); !ok {
			t.Fatalf("run %s evicted early", id)
		}
	}
	if st.size() != 2 {
		t.Fatalf("size = %d, want 2", st.size())
	}
}

// serve answers one request straight from h.
func serve(h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != nil {
		data, _ := json.Marshal(body)
		rd = bytes.NewReader(data)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

// tracedRun posts a traced /run to h and returns the spans /runs/{id}/trace
// then serves for it, wall times zeroed. It reports failures with t.Error
// only, so it may run off the test's goroutine; ok is false after one.
func tracedRun(t *testing.T, h http.Handler, req runRequest) (spans []trace.Span, ok bool) {
	req.Trace = true
	rec := serve(h, "POST", "/run", req)
	var run runResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &run); err != nil || rec.Code != http.StatusOK || run.RunID == "" {
		t.Errorf("traced run %+v: status %d (%s): %v", req, rec.Code, rec.Body, err)
		return nil, false
	}
	rec = serve(h, "GET", "/runs/"+run.RunID+"/trace", nil)
	var rr runRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil || rec.Code != http.StatusOK || rr.BouquetID != req.ID {
		t.Errorf("trace of %s for %s: status %d, bouquet %q: %v", run.RunID, req.ID, rec.Code, rr.BouquetID, err)
		return nil, false
	}
	return zeroWall(t, rr.Spans), true
}

// zeroWall returns spans as they read off the wire — through JSON and back —
// without their wall times.
func zeroWall(t *testing.T, spans []trace.Span) []trace.Span {
	data, err := json.Marshal(spans)
	if err != nil {
		t.Error(err)
	}
	var out []trace.Span
	if err := json.Unmarshal(data, &out); err != nil {
		t.Error(err)
	}
	for i := range out {
		out[i].WallNanos = 0
	}
	return out
}

// TestConcurrentTracedRunsKeepTheirOwnSpans is the pool's isolation test: 32
// traced simulated runs at once over four bouquets, both drivers, on
// recorders that pass from run to run — each served trace must be, span for
// span, what the same driver records in-process into a ring of its own.
func TestConcurrentTracedRunsKeepTheirOwnSpans(t *testing.T) {
	s := New(catalog.TPCHLike(0.05))
	h := s.Handler()
	var ids []string
	for _, sel := range []string{"0.10", "0.20", "0.30", "0.40"} {
		ids = append(ids, handlerCompile(t, h, strings.Replace(apiEQ2D, "0.10", sel, 1), 12))
	}

	const runs = 32
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, optimized := ids[i%len(ids)], i/len(ids)%2 == 1
			b, _ := s.lookup(id)
			qa := b.Space.PointAt(i * 37 % b.Space.NumPoints())
			got, ok := tracedRun(t, h, runRequest{ID: id, QA: qa, Optimized: optimized})
			if !ok {
				return
			}

			own := trace.New(512)
			if _, err := b.Run(context.Background(), core.Run{Optimized: optimized, QA: qa, Trace: own}); err != nil {
				t.Error(err)
			}
			if want := zeroWall(t, own.Spans()); own.Dropped() > 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("run %d (%s at %v, optimized=%t): served trace\n%+v\nin-process trace\n%+v", i, id, qa, optimized, got, want)
			}
		}(i)
	}
	wg.Wait()
}

// TestTracedConcreteRunRecyclesItsRecorderAfterTheJoin runs a traced
// concrete /run twice at each worker count, so that the second run records
// into the ring the first gave back: both traces must have the span count
// and kinds of the same run on a ring nobody else has seen. A recorder
// released before Engine.Run had joined its morsel workers would show up
// here as a span missing from its own run or landing in the next one (and,
// under -race, as a race between Record and Reset).
func TestTracedConcreteRunRecyclesItsRecorderAfterTheJoin(t *testing.T) {
	s, h, req := concreteHandler(t)
	b, _ := s.lookup(req.ID)
	eng, err := s.engineFor(req.ID, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	kinds := func(spans []trace.Span) []trace.Kind {
		out := make([]trace.Kind, len(spans))
		for i, sp := range spans {
			out[i] = sp.Kind
		}
		return out
	}
	for _, workers := range []int{0, 1, 8} {
		own := trace.New(0)
		if _, err := b.Run(context.Background(), core.Run{Trace: own, Engine: eng, Parallelism: workers, Reuse: s.cfg.ExecReuse}); err != nil {
			t.Fatal(err)
		}
		want := kinds(own.Spans())
		for rep := 0; rep < 2; rep++ {
			req.Parallelism = &workers
			got, ok := tracedRun(t, h, req)
			if !ok {
				t.FailNow()
			}
			if !reflect.DeepEqual(kinds(got), want) {
				t.Fatalf("parallelism %d, run %d: span kinds %v, want %v", workers, rep, kinds(got), want)
			}
		}
	}
}

// TestTracedRunAllocBound pins what "trace":true costs the allocator: a
// traced simulated /run through Handler() stays under 64 KiB an op once the
// pool holds a ring (building one each run took 650 KB). The median of
// single-op readings is the steady state: a run that finds the pool emptied
// by a collection — or by -race, which drops a quarter of all Puts — pays
// for a ring once and stands out of it.
func TestTracedRunAllocBound(t *testing.T) {
	run := simRun(t, true)
	for i := 0; i < 8; i++ {
		run()
	}
	var m runtime.MemStats
	per := make([]uint64, 33)
	for i := range per {
		runtime.ReadMemStats(&m)
		before := m.TotalAlloc
		run()
		runtime.ReadMemStats(&m)
		per[i] = m.TotalAlloc - before
	}
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	if median := per[len(per)/2]; median >= 64<<10 {
		t.Errorf("traced simulated /run allocates %d B/op (median of %d), want < %d", median, len(per), 64<<10)
	}
}
