package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
)

// fetchMetric scrapes /metrics and returns the value of the named
// unlabeled metric.
func fetchMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: parsing %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestParallelCompileAndRun fires 32 concurrent compile requests for the
// same query, then 32 concurrent runs against the resulting bouquet, and
// checks (a) every request succeeds, (b) all compiles resolve to the same
// bouquet id, and (c) the cache accounting is exact: one miss (the single
// flight that compiled) and 31 hits. Run under -race this also proves the
// cache, its id index, and metrics are data-race free.
func TestParallelCompileAndRun(t *testing.T) {
	srv := httptest.NewServer(New(catalog.TPCHLike(0.05)).Handler())
	defer srv.Close()
	const parallel = 32

	compileBody, _ := json.Marshal(compileRequest{SQL: apiEQ2D, Res: 8})
	ids := make([]string, parallel)
	errs := make([]error, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/compile", "application/json", bytes.NewReader(compileBody))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("compile status %d", resp.StatusCode)
				return
			}
			var out compileResponse
			errs[i] = json.NewDecoder(resp.Body).Decode(&out)
			ids[i] = out.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
	}
	for i, id := range ids {
		if id != ids[0] {
			t.Fatalf("compile %d returned id %q, others %q — cache not canonical", i, id, ids[0])
		}
	}

	hits := fetchMetric(t, srv.URL, "bouquetd_compile_cache_hits_total")
	misses := fetchMetric(t, srv.URL, "bouquetd_compile_cache_misses_total")
	if misses != 1 || hits != parallel-1 {
		t.Fatalf("cache accounting hits=%g misses=%g, want %d/1", hits, misses, parallel-1)
	}
	if compiles := fetchMetric(t, srv.URL, "bouquetd_compiles_total"); compiles != 1 {
		t.Fatalf("ran %g fresh compiles, want 1", compiles)
	}

	runBody, _ := json.Marshal(runRequest{ID: ids[0], QA: []float64{0.05, 2e-6}})
	optBody, _ := json.Marshal(runRequest{ID: ids[0], QA: []float64{0.05, 2e-6}, Optimized: true})
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := runBody
			if i%2 == 1 {
				body = optBody
			}
			resp, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("run status %d", resp.StatusCode)
				return
			}
			var out runResponse
			if errs[i] = json.NewDecoder(resp.Body).Decode(&out); errs[i] == nil && out.SubOpt < 1 {
				errs[i] = fmt.Errorf("subOpt %g < 1", out.SubOpt)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}

	if runs := fetchMetric(t, srv.URL, "bouquetd_runs_total"); runs != parallel {
		t.Fatalf("runs_total = %g, want %d", runs, parallel)
	}
	if steps := fetchMetric(t, srv.URL, "bouquetd_run_steps_total"); steps < parallel {
		t.Fatalf("run_steps_total = %g, want >= %d", steps, parallel)
	}
}

// TestParallelDistinctCompiles drives concurrent compiles of *different*
// queries (distinct fingerprints) to exercise id publication and LRU
// eviction under contention.
func TestParallelDistinctCompiles(t *testing.T) {
	srv := httptest.NewServer(NewWithConfig(catalog.TPCHLike(0.05), Config{CacheSize: 2}).Handler())
	defer srv.Close()

	queries := []string{
		`SELECT * FROM part WHERE part.p_retailprice < sel(0.1)?`,
		`SELECT * FROM lineitem WHERE lineitem.l_quantity < sel(0.2)?`,
		`SELECT * FROM orders WHERE orders.o_totalprice < sel(0.3)?`,
	}
	var wg sync.WaitGroup
	errs := make([]error, 24)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(compileRequest{SQL: queries[i%len(queries)], Res: 10})
			resp, err := http.Post(srv.URL+"/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
	}
	// Three distinct fingerprints through a 2-entry cache: entries stay
	// bounded and every request was either a hit or a miss.
	st := struct{ hits, misses, entries float64 }{
		fetchMetric(t, srv.URL, "bouquetd_compile_cache_hits_total"),
		fetchMetric(t, srv.URL, "bouquetd_compile_cache_misses_total"),
		fetchMetric(t, srv.URL, "bouquetd_compile_cache_entries"),
	}
	if st.hits+st.misses != float64(len(errs)) {
		t.Fatalf("hits %g + misses %g != %d requests", st.hits, st.misses, len(errs))
	}
	if st.entries > 2 {
		t.Fatalf("cache holds %g entries, capacity 2", st.entries)
	}
}

// TestConcurrentConcreteRunsOneBouquet fires concrete /runs on one bouquet
// and data seed from eight goroutines at once — parallelism 0, 1 and 8,
// basic and optimized — so engine builds, first reads of the shared
// tables and the runs themselves overlap. Every answer must equal the
// same request's serial answer, taken afterwards on the same server.
// Under -race it also proves a concrete run needs no engine lock.
func TestConcurrentConcreteRunsOneBouquet(t *testing.T) {
	srv := newConcreteServer(t, Config{})
	id := compileOne(t, srv, apiEQ2D, 12).ID
	var reqs []runRequest
	for _, workers := range []int{0, 1, 8} {
		for _, optimized := range []bool{false, true} {
			reqs = append(reqs, runRequest{ID: id, Concrete: true, DataSeed: 3, Parallelism: &workers, Optimized: optimized})
		}
	}

	const goroutines, perGoroutine = 8, 3
	got := make([][perGoroutine]runResponse, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine && errs[g] == nil; i++ {
				body, _ := json.Marshal(reqs[(g+i)%len(reqs)])
				resp, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(body))
				if err != nil {
					errs[g] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[g] = fmt.Errorf("run status %d", resp.StatusCode)
				} else {
					errs[g] = json.NewDecoder(resp.Body).Decode(&got[g][i])
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	serial := make([]runResponse, len(reqs))
	for i, req := range reqs {
		serial[i] = runConcrete(t, srv, req)
	}
	for g := range got {
		for i, out := range got[g] {
			req, want := reqs[(g+i)%len(reqs)], serial[(g+i)%len(reqs)]
			if !reflect.DeepEqual(out.Steps, want.Steps) || out.TotalCost != want.TotalCost || out.ResultRows != want.ResultRows {
				t.Fatalf("parallelism %d optimized %v: concurrent answer (cost %v, rows %d, steps %+v) differs from serial (cost %v, rows %d, steps %+v)",
					*req.Parallelism, req.Optimized, out.TotalCost, out.ResultRows, out.Steps, want.TotalCost, want.ResultRows, want.Steps)
			}
		}
	}
}
