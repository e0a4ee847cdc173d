package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sqlparse"
)

const apiEQ2D = `
	SELECT * FROM part, lineitem, orders
	WHERE part.p_retailprice < sel(0.10)?
	  AND part.p_partkey = lineitem.l_partkey sel(0.000005)?
	  AND lineitem.l_orderkey = orders.o_orderkey`

// apiEQ3D is apiEQ2D with its third join error-prone as well.
const apiEQ3D = apiEQ2D + ` sel(0.0000006)?`

// TestMain fails the package when goroutines outlive its tests: within
// 5 s of the last test the count must be back at its start value. A
// handler, a client or a test that leaves one behind — an unread response
// body keeps its connection's goroutines alive — shows up here.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(50 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "%d goroutines 5 s after the tests, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(catalog.TPCHLike(0.05)).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func compileOne(t *testing.T, srv *httptest.Server, sql string, res int) compileResponse {
	t.Helper()
	resp, raw := postJSON(t, srv.URL+"/compile", compileRequest{SQL: sql, Res: res})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d: %v", resp.StatusCode, raw)
	}
	var sum compileResponse
	reencode(t, raw, &sum)
	return sum
}

func reencode(t *testing.T, raw interface{}, into interface{}) {
	t.Helper()
	data, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatal(err)
	}
}

func TestCompileAndRun(t *testing.T) {
	srv := newTestServer(t)
	sum := compileOne(t, srv, apiEQ2D, 12)
	if sum.Dims != 2 || sum.Plans == 0 || sum.BoundMSO <= 0 {
		t.Fatalf("summary = %+v", sum)
	}

	resp, raw := postJSON(t, srv.URL+"/run", runRequest{ID: sum.ID, QA: []float64{0.05, 2e-6}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %v", resp.StatusCode, raw)
	}
	var run runResponse
	reencode(t, raw, &run)
	if run.SubOpt < 1 || run.SubOpt > sum.BoundMSO*(1+1e-9) {
		t.Fatalf("subOpt %g outside [1, bound %g]", run.SubOpt, sum.BoundMSO)
	}
	if run.Execs != len(run.Steps) || run.Execs == 0 {
		t.Fatalf("steps inconsistent: %d vs %d", run.Execs, len(run.Steps))
	}
	if !run.Steps[len(run.Steps)-1].Completed {
		t.Fatal("final step not completed")
	}

	// The optimized driver also answers within the bound.
	resp, raw = postJSON(t, srv.URL+"/run", runRequest{ID: sum.ID, QA: []float64{0.05, 2e-6}, Optimized: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimized run status %d: %v", resp.StatusCode, raw)
	}
}

func TestCompileWorkersConfig(t *testing.T) {
	// A single-worker compile must produce the same bouquet summary as the
	// default parallel one: worker count is a throughput knob, never a
	// semantic one (plan IDs stay deterministic by flat-index merge order).
	serial := httptest.NewServer(NewWithConfig(catalog.TPCHLike(0.05), Config{CompileWorkers: 1}).Handler())
	t.Cleanup(serial.Close)
	parallel := newTestServer(t)

	a := compileOne(t, serial, apiEQ2D, 8)
	b := compileOne(t, parallel, apiEQ2D, 8)
	if a.Plans != b.Plans || a.Contours != b.Contours || a.BoundMSO != b.BoundMSO {
		t.Fatalf("serial compile %+v differs from parallel %+v", a, b)
	}
}

func TestRunWithSeed(t *testing.T) {
	srv := newTestServer(t)
	sum := compileOne(t, srv, apiEQ2D, 12)
	qa := []float64{0.2, 3e-6}
	_, rawPlain := postJSON(t, srv.URL+"/run", runRequest{ID: sum.ID, QA: qa})
	_, rawSeeded := postJSON(t, srv.URL+"/run", runRequest{ID: sum.ID, QA: qa, Seed: []float64{0.1, 1.5e-6}})
	var plain, seeded runResponse
	reencode(t, rawPlain, &plain)
	reencode(t, rawSeeded, &seeded)
	if seeded.TotalCost > plain.TotalCost {
		t.Fatalf("seeded run (%g) worse than plain (%g)", seeded.TotalCost, plain.TotalCost)
	}
}

// TestRunSeedValidation: a seed is checked as qa is — one value in (0,1]
// per dimension — and rejected on a concrete run, which ignores it.
func TestRunSeedValidation(t *testing.T) {
	srv := newTestServer(t)
	sum := compileOne(t, srv, apiEQ2D, 12)
	qa := []float64{0.2, 3e-6}
	cases := []struct {
		name     string
		seed     []float64
		concrete bool
		status   int
	}{
		{"valid", []float64{0.1, 1.5e-6}, false, http.StatusOK},
		{"above one", []float64{5, 5}, false, http.StatusBadRequest},
		{"huge", []float64{1e300, 1e300}, false, http.StatusBadRequest},
		{"zero", []float64{0, 0}, false, http.StatusBadRequest},
		{"negative", []float64{-1, -1}, false, http.StatusBadRequest},
		{"one value short", []float64{0.1}, false, http.StatusBadRequest},
		{"concrete", []float64{0.1, 1.5e-6}, true, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, optimized := range []bool{false, true} {
				req := runRequest{ID: sum.ID, QA: qa, Seed: tc.seed, Optimized: optimized, Concrete: tc.concrete}
				if resp, raw := postJSON(t, srv.URL+"/run", req); resp.StatusCode != tc.status {
					t.Fatalf("optimized=%t: status %d, want %d: %v", optimized, resp.StatusCode, tc.status, raw)
				}
			}
		})
	}
}

func TestListAndGet(t *testing.T) {
	srv := newTestServer(t)
	sum := compileOne(t, srv, apiEQ2D, 10)

	resp, err := http.Get(srv.URL + "/bouquets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []bouquetSummary
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != sum.ID {
		t.Fatalf("list = %+v", list)
	}

	resp2, err := http.Get(srv.URL + "/bouquets/" + sum.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var detail struct {
		Summary  bouquetSummary `json:"summary"`
		Contours []contourInfo  `json:"contours"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	if len(detail.Contours) != sum.Contours {
		t.Fatalf("contours = %d, want %d", len(detail.Contours), sum.Contours)
	}
}

func TestExportIsLoadable(t *testing.T) {
	srv := newTestServer(t)
	sum := compileOne(t, srv, apiEQ2D, 10)
	resp, err := http.Get(fmt.Sprintf("%s/bouquets/%s/export", srv.URL, sum.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The exported artifact loads through core.Load against an
	// equivalent coster.
	cat := catalog.TPCHLike(0.05)
	q, err := sqlparse.Parse("api", cat, apiEQ2D)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(resp.Body, cost.NewCoster(q, cost.Postgres()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cardinality() != sum.Plans {
		t.Fatalf("loaded cardinality %d, want %d", loaded.Cardinality(), sum.Plans)
	}
}

func TestDiagramEndpoint(t *testing.T) {
	srv := newTestServer(t)
	sum := compileOne(t, srv, apiEQ2D, 10)
	resp, err := http.Get(fmt.Sprintf("%s/bouquets/%s/diagram", srv.URL, sum.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 10 || len(lines[0]) != 10 {
		t.Fatalf("diagram shape %dx%d", len(lines), len(lines[0]))
	}

	// 1-D bouquets cannot be rendered.
	one := compileOne(t, srv, `SELECT * FROM part WHERE part.p_retailprice < sel(0.1)?`, 10)
	respBad, err := http.Get(fmt.Sprintf("%s/bouquets/%s/diagram", srv.URL, one.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer respBad.Body.Close()
	if respBad.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("1-D diagram status %d", respBad.StatusCode)
	}
}

func TestAPIErrors(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		name   string
		url    string
		body   interface{}
		status int
	}{
		{"missing sql", "/compile", compileRequest{}, http.StatusBadRequest},
		{"parse error", "/compile", compileRequest{SQL: "SELEC"}, http.StatusBadRequest},
		{"no dims", "/compile", compileRequest{SQL: `SELECT * FROM part WHERE part.p_retailprice < sel(0.1)`}, http.StatusBadRequest},
		// A ratio a hair above 1 asks for a ladder of ~10^16 steps; the
		// grids below overflow int or run to 10^10 locations. Each used
		// to run away in the compile goroutine or end the process; the
		// requests after them show the server still answers.
		{"ratio just above 1", "/compile", compileRequest{SQL: apiEQ2D, Ratio: math.Nextafter(1, 2)}, http.StatusUnprocessableEntity},
		{"focused, ratio just above 1", "/compile", compileRequest{SQL: apiEQ2D, Ratio: math.Nextafter(1, 2), Focused: true}, http.StatusUnprocessableEntity},
		{"grid overflows int", "/compile", compileRequest{SQL: apiEQ3D, Res: 3_000_000}, http.StatusBadRequest},
		{"grid of 10^10 locations", "/compile", compileRequest{SQL: apiEQ2D, Res: 100_000}, http.StatusBadRequest},
		{"unknown bouquet", "/run", runRequest{ID: "nope", QA: []float64{0.1}}, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postJSON(t, srv.URL+tc.url, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
		})
	}

	// Dimension mismatch and out-of-range qa.
	sum := compileOne(t, srv, `SELECT * FROM part WHERE part.p_retailprice < sel(0.1)?`, 10)
	if resp, _ := postJSON(t, srv.URL+"/run", runRequest{ID: sum.ID, QA: []float64{0.1, 0.2}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("dimension mismatch accepted")
	}
	if resp, _ := postJSON(t, srv.URL+"/run", runRequest{ID: sum.ID, QA: []float64{7}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("out-of-range qa accepted")
	}
	resp, err := http.Get(srv.URL + "/bouquets/ghost")
	if err != nil {
		t.Fatalf("ghost lookup: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost lookup: status %d", resp.StatusCode)
	}
}

func TestConcurrentCompilesAndRuns(t *testing.T) {
	srv := newTestServer(t)
	sum := compileOne(t, srv, apiEQ2D, 10)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			body, _ := json.Marshal(runRequest{ID: sum.ID, QA: []float64{0.05, 2e-6}})
			resp, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompileFocused(t *testing.T) {
	srv := newTestServer(t)
	resp, raw := postJSON(t, srv.URL+"/compile", compileRequest{SQL: apiEQ2D, Res: 16, Focused: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("focused compile status %d: %v", resp.StatusCode, raw)
	}
	var sum bouquetSummary
	reencode(t, raw, &sum)
	run := runRequest{ID: sum.ID, QA: []float64{0.05, 2e-6}}
	resp, rawRun := postJSON(t, srv.URL+"/run", run)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("focused run status %d: %v", resp.StatusCode, rawRun)
	}
	var rr runResponse
	reencode(t, rawRun, &rr)
	if rr.SubOpt < 1 || rr.SubOpt > sum.BoundMSO*(1+1e-9) {
		t.Fatalf("focused subOpt %g outside [1, %g]", rr.SubOpt, sum.BoundMSO)
	}
}
