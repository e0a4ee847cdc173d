// Package server exposes the bouquet library over an HTTP/JSON API:
// compile bouquets from SQL text, execute traced runs at chosen actual
// selectivities, inspect contours, export compiled artifacts, and render
// 2-D plan diagrams. cmd/bouquetd serves it; tests drive it with httptest.
//
// The package is built to survive production traffic: compiles are
// deduplicated through a bounded LRU cache keyed by a canonical request
// fingerprint (with a single-flight guard against stampedes) that is
// also the one store of compiled bouquets — at most Config.CacheSize of
// them, an evicted id answering 404 — request bodies are size-limited, panics are recovered into 500 responses, and
// per-request context deadlines propagate into core.Compile and the run
// drivers so an expired request returns 503 instead of wedging a worker.
//
// Observability is first-class: GET /metrics exports Prometheus-format
// counters and histograms (request latency, cache hit/miss, optimizer
// calls, and the paper's per-run SubOpt robustness metric), GET /healthz
// answers liveness probes, and net/http/pprof can be mounted behind
// Config.EnablePprof. See API.md at the repository root for the full
// endpoint reference.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/anorexic"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/trace"
)

// Config tunes the server's production behaviour. The zero value selects
// sane defaults everywhere, so New(cat) remains the simple entry point.
type Config struct {
	// CacheSize bounds the compile cache's entry count (LRU eviction
	// beyond it), and so the bouquets the server holds: an evicted
	// bouquet's id answers 404. 0 selects DefaultCacheSize; 1 is the
	// minimum.
	CacheSize int
	// MaxBodyBytes caps request body sizes; oversized bodies get 413.
	// 0 selects DefaultMaxBodyBytes; negative disables the limit.
	MaxBodyBytes int64
	// CompileTimeout bounds each /compile request. The deadline is
	// threaded into core.Compile, which abandons work cooperatively
	// between contour steps; the request then answers 503. 0 means no
	// server-side bound (the client context still applies).
	CompileTimeout time.Duration
	// CompileWorkers bounds each compile's POSP-generation parallelism,
	// exhaustive or focused (threaded into core.CompileOptions.Workers).
	// 0 means GOMAXPROCS; set it below the core count to keep compile
	// bursts from starving the serving path.
	CompileWorkers int
	// ExecWorkers is the default worker count for concrete /run
	// executions: 0 runs the tuple-at-a-time Volcano engine, n > 0 the
	// vectorized engine with n morsel workers. A request's parallelism
	// field overrides it per run.
	ExecWorkers int
	// ExecReuse enables the per-run operator-state reuse cache for
	// concrete /run executions by default (bouquetd's -exec-reuse). A
	// request's reuse field overrides it per run. Reuse changes only
	// wall-clock time — charged costs, step sequences, and learned
	// selectivities are identical either way.
	ExecReuse bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// RunHistory bounds how many traced runs are retained for
	// /runs/{id}/trace (FIFO eviction beyond it). 0 selects
	// DefaultRunHistory.
	RunHistory int
	// Logf, when non-nil, receives middleware diagnostics (recovered
	// panics). nil discards them — the default for tests.
	Logf func(format string, args ...interface{})
}

// DefaultCacheSize is the compile cache capacity when Config.CacheSize
// is 0.
const DefaultCacheSize = 128

// DefaultMaxBodyBytes is the request body cap when Config.MaxBodyBytes
// is 0 (1 MiB — SQL text and run locations are tiny).
const DefaultMaxBodyBytes = 1 << 20

// Server holds the compile cache — the store of compiled bouquets, keyed
// by compile request and by id — and the metrics registry. It is safe for
// concurrent use.
type Server struct {
	cat *catalog.Catalog
	cfg Config

	cache   *compileCache
	metrics *serverMetrics
	runs    *runStore
	engines *engineCache
}

// New builds a server compiling against cat with default Config.
func New(cat *catalog.Catalog) *Server {
	return NewWithConfig(cat, Config{})
}

// NewWithConfig builds a server compiling against cat, with cfg's zero
// fields replaced by defaults.
func NewWithConfig(cat *catalog.Catalog, cfg Config) *Server {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	return &Server{
		cat:     cat,
		cfg:     cfg,
		cache:   newCompileCache(cfg.CacheSize),
		metrics: newServerMetrics(),
		runs:    newRunStore(cfg.RunHistory),
		engines: newEngineCache(DefaultEngineCacheSize),
	}
}

// CacheStats snapshots the compile cache's hit/miss/eviction counters —
// the same numbers /metrics exports.
func (s *Server) CacheStats() CacheStats { return s.cache.stats() }

// Handler returns the API routes wrapped in the instrumentation
// middleware (body limits, panic recovery, request metrics).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.handleCompile)
	mux.HandleFunc("GET /bouquets", s.handleList)
	mux.HandleFunc("GET /bouquets/{id}", s.handleGet)
	mux.HandleFunc("GET /bouquets/{id}/export", s.handleExport)
	mux.HandleFunc("GET /bouquets/{id}/diagram", s.handleDiagram)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /runs/{id}/trace", s.handleRunTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux)
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//bouquet:allow errflow: a failed response write means the client hung up; nothing to do
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// jsonBufs recycles encode buffers across responses: success bodies are
// encoded to a pooled buffer first so an encoding failure can still
// produce a 500 instead of a half-written 200.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeJSON renders v into a pooled buffer. On success the caller owns
// the buffer and must release it with releaseBuf after writing.
func encodeJSON(v interface{}) (*bytes.Buffer, error) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufs.Put(buf)
		return nil, err
	}
	// Ownership transfers to the caller, which must release via releaseBuf
	// once the body is written.
	return buf, nil
}

func releaseBuf(buf *bytes.Buffer) { jsonBufs.Put(buf) }

func writeJSON(w http.ResponseWriter, v interface{}) {
	buf, err := encodeJSON(v)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	//bouquet:allow errflow: a failed response write means the client hung up; nothing to do
	_, _ = w.Write(buf.Bytes())
	releaseBuf(buf)
}

// decodeJSON decodes a request body, distinguishing the body-limit breach
// (413) from malformed JSON (400). A zero status means success.
func decodeJSON(r *http.Request, v interface{}) (status int, err error) {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	return 0, nil
}

type compileRequest struct {
	// SQL is the query text (internal/sqlparse syntax).
	SQL string `json:"sql"`
	// Res is the per-dimension grid resolution (0 = default for D).
	Res int `json:"res"`
	// Lambda is the anorexic threshold (0 means the paper's 0.2;
	// negative disables the reduction).
	Lambda *float64 `json:"lambda"`
	// Ratio is the isocost ladder ratio (0 = the optimal 2).
	Ratio float64 `json:"ratio"`
	// Focused compiles from the contour band only (§4.2).
	Focused bool `json:"focused"`
}

type bouquetSummary struct {
	ID        string  `json:"id"`
	Query     string  `json:"query"`
	Dims      int     `json:"dims"`
	Plans     int     `json:"plans"`
	Contours  int     `json:"contours"`
	Rho       int     `json:"rho"`
	BoundMSO  float64 `json:"boundMso"`
	Guarantee float64 `json:"guarantee"`
}

// compileResponse is a bouquetSummary plus whether the compile was served
// from the cache.
type compileResponse struct {
	bouquetSummary
	Cached bool `json:"cached"`
}

func (s *Server) summarize(id string, b *core.Bouquet) bouquetSummary {
	return bouquetSummary{
		ID:        id,
		Query:     b.Query.String(),
		Dims:      b.Space.Dims(),
		Plans:     b.Cardinality(),
		Contours:  len(b.Contours),
		Rho:       b.MaxDensity(),
		BoundMSO:  b.BoundMSO().F(),
		Guarantee: b.TheoreticalMSO().F(),
	}
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req compileRequest
	if status, err := decodeJSON(r, &req); err != nil {
		jsonError(w, status, "%v", err)
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		jsonError(w, http.StatusBadRequest, "missing sql")
		return
	}
	q, err := sqlparse.Parse("api", s.cat, req.SQL)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if q.Dims() == 0 {
		jsonError(w, http.StatusBadRequest, "query has no error-prone predicates; mark one with '?'")
		return
	}
	res := req.Res
	if res <= 0 {
		res = ess.DefaultResolution(q.Dims())
	}
	space, err := ess.NewSpace(q, []int{res})
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	lambda := anorexic.DefaultLambda
	if req.Lambda != nil {
		lambda = cost.Ratio(*req.Lambda)
	}
	ratio := req.Ratio
	//bouquet:allow floatcmp: 0 is the "field omitted from the JSON request" sentinel
	if ratio == 0 {
		ratio = 2
	}

	ctx := r.Context()
	if s.cfg.CompileTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.CompileTimeout)
		defer cancel()
	}

	// The compile itself runs in a goroutine so the handler can answer
	// 503 the moment the deadline expires; the abandoned compile then
	// stops cooperatively at its next ctx checkpoint.
	key := compileFingerprint(canonicalQuery(q), res, lambda.F(), ratio, req.Focused)
	type outcome struct {
		entry cacheEntry
		hit   bool
		err   error
	}
	ch := make(chan outcome, 1)
	// The one-slot buffer lets the send complete even when the deadline arm
	// wins; dropping the finished compile is the 503 contract.
	go func() {
		entry, hit, err := s.cache.getOrCompute(key, func() (*core.Bouquet, error) {
			s.metrics.compiles.Add(1)
			opt := optimizer.New(cost.NewCoster(q, cost.Postgres()))
			return core.Compile(opt, space, core.CompileOptions{
				Lambda: lambda, Ratio: cost.Ratio(ratio), Focused: req.Focused,
				Workers: s.cfg.CompileWorkers, Ctx: ctx,
			})
		})
		ch <- outcome{entry, hit, err}
	}()

	select {
	case <-ctx.Done():
		s.metrics.timeouts.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "compile abandoned: %v", ctx.Err())
	case out := <-ch:
		switch {
		case out.err == nil:
			writeJSON(w, compileResponse{s.summarize(out.entry.id, out.entry.b), out.hit})
		case errors.Is(out.err, context.DeadlineExceeded) || errors.Is(out.err, context.Canceled):
			s.metrics.timeouts.Add(1)
			jsonError(w, http.StatusServiceUnavailable, "compile abandoned: %v", out.err)
		default:
			jsonError(w, http.StatusUnprocessableEntity, "%v", out.err)
		}
	}
}

// bouquet returns the bouquet published under id, or answers 404: for an
// id the server issued whose cache entry has since been evicted, with a
// body that says so.
func (s *Server) bouquet(w http.ResponseWriter, id string) (*core.Bouquet, bool) {
	b, evicted := s.cache.lookup(id)
	switch {
	case b != nil:
		return b, true
	case evicted:
		jsonError(w, http.StatusNotFound, "bouquet %q was evicted from the compile cache; compile it again for a new id", id)
	default:
		jsonError(w, http.StatusNotFound, "no bouquet %q", id)
	}
	return nil, false
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.cache.entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	out := make([]bouquetSummary, 0, len(entries))
	for _, e := range entries {
		out = append(out, s.summarize(e.id, e.b))
	}
	writeJSON(w, out)
}

type contourInfo struct {
	K        int     `json:"k"`
	Budget   float64 `json:"budget"`
	Density  int     `json:"density"`
	Plans    []int   `json:"plans"`
	Location int     `json:"locations"`
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	b, ok := s.bouquet(w, r.PathValue("id"))
	if !ok {
		return
	}
	var contours []contourInfo
	for _, c := range b.Contours {
		contours = append(contours, contourInfo{
			K: c.K, Budget: c.Budget.F(), Density: c.Density(),
			Plans: c.PlanIDs, Location: len(c.Flats),
		})
	}
	writeJSON(w, map[string]interface{}{
		"summary":  s.summarize(r.PathValue("id"), b),
		"contours": contours,
	})
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	b, ok := s.bouquet(w, r.PathValue("id"))
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := b.Save(w); err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleDiagram(w http.ResponseWriter, r *http.Request) {
	b, ok := s.bouquet(w, r.PathValue("id"))
	if !ok {
		return
	}
	var budgets []cost.Cost
	for _, c := range b.Contours {
		budgets = append(budgets, c.RawBudget)
	}
	out, err := b.Diagram.RenderASCII(nil, budgets)
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, out)
}

type runRequest struct {
	ID string `json:"id"`
	// QA is the actual selectivity location, one value per dimension.
	QA []float64 `json:"qa"`
	// Optimized selects the Fig. 13 driver (default: basic, Fig. 7).
	Optimized bool `json:"optimized"`
	// Seed, when non-empty, starts from a guaranteed-underestimate
	// location (§8), one value in (0,1] per dimension. Rejected on
	// concrete runs, which learn from the data and start at IC1.
	Seed []float64 `json:"seed,omitempty"`
	// Trace requests a structured execution trace: the run records
	// contour/exec/spill/abort/learn spans with per-node operator stats,
	// retained for GET /runs/{runId}/trace. The response carries the
	// assigned runId.
	Trace bool `json:"trace,omitempty"`
	// Concrete executes the run on real generated rows instead of
	// simulating it on the cost surfaces: the actual selectivities come
	// from the data (qa is rejected), and the response carries resultRows
	// and the worker count used. See concrete.go.
	Concrete bool `json:"concrete,omitempty"`
	// DataSeed seeds the deterministic data generation for concrete
	// runs (0 means seed 1). Each (bouquet, seed) pair's engine is
	// cached across requests. Rejected on simulated runs.
	DataSeed int64 `json:"dataSeed,omitempty"`
	// Parallelism overrides the server's -exec-workers default for a
	// concrete run: 0 selects the tuple-at-a-time Volcano engine, n > 0
	// the vectorized engine with n morsel workers. Rejected on
	// simulated (non-concrete) runs.
	Parallelism *int `json:"parallelism,omitempty"`
	// Reuse overrides the server's -exec-reuse default for a concrete
	// run: whether executions salvage completed operator state (join
	// builds, sorted inputs) across the run's steps. Accounting is
	// unchanged; only wall-clock improves. Rejected on simulated runs.
	Reuse *bool `json:"reuse,omitempty"`
}

type runStep struct {
	Contour   int     `json:"contour"`
	Plan      int     `json:"plan"`
	Dim       int     `json:"dim"`
	Budget    float64 `json:"budget"`
	Spent     float64 `json:"spent"`
	Completed bool    `json:"completed"`
}

type runResponse struct {
	TotalCost float64   `json:"totalCost"`
	OptCost   float64   `json:"optCost"`
	SubOpt    float64   `json:"subOpt"`
	Execs     int       `json:"execs"`
	Steps     []runStep `json:"steps"`
	// RunID identifies the retained trace of this run (traced runs only).
	RunID string `json:"runId,omitempty"`
	// Concrete marks a run executed on real rows; ResultRows is its
	// final cardinality and Workers the morsel worker count (0 =
	// tuple-at-a-time). OptCost/SubOpt are zero for concrete runs — the
	// server never consults ground truth there.
	Concrete   bool  `json:"concrete,omitempty"`
	ResultRows int64 `json:"resultRows,omitempty"`
	Workers    int   `json:"workers,omitempty"`
	// Reuse reports whether the concrete run used the operator-state
	// reuse cache; ReuseHits counts the states served from it and
	// SalvagedCost the charged model cost they covered without
	// re-executing the work.
	Reuse        bool    `json:"reuse,omitempty"`
	ReuseHits    int     `json:"reuseHits,omitempty"`
	SalvagedCost float64 `json:"salvagedCost,omitempty"`
}

// handleRun executes a /run request through core's one run entry point:
// simulated on the cost surfaces at qa, or with "concrete": true on real
// generated rows (see concrete.go). A field that does not apply to the
// request's substrate, a qa or seed that Space.Check rejects, or a worker
// count outside 0 … exec.MaxParallelism answers 400 before any data is
// generated. ctx is checked between executions: a cancelled request
// answers 503.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if status, err := decodeJSON(r, &req); err != nil {
		jsonError(w, status, "%v", err)
		return
	}
	b, ok := s.bouquet(w, req.ID)
	if !ok {
		return
	}
	run, err := s.runFor(req, b)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Concrete {
		if run.Engine, err = s.engineFor(req.ID, b, req.DataSeed); err != nil {
			jsonError(w, http.StatusUnprocessableEntity, "building execution engine: %v", err)
			return
		}
	}
	if req.Trace {
		run.Trace = trace.Acquire()
	}
	e, err := b.Run(r.Context(), run)
	if err != nil {
		if r.Context().Err() != nil {
			s.metrics.timeouts.Add(1)
			jsonError(w, http.StatusServiceUnavailable, "run abandoned: %v", err)
			return
		}
		jsonError(w, http.StatusInternalServerError, "run failed: %v", err)
		return
	}
	s.metrics.observeRun(e, req.Concrete)
	out := runResponse{
		TotalCost:    e.TotalCost.F(),
		Execs:        e.NumExecs(),
		Concrete:     req.Concrete,
		ResultRows:   e.ResultRows,
		Workers:      run.Parallelism,
		Reuse:        run.Reuse,
		ReuseHits:    e.ReuseHits,
		SalvagedCost: e.SalvagedCost.F(),
	}
	if !req.Concrete {
		// A concrete run never consults ground truth: no SubOpt.
		out.OptCost, out.SubOpt = e.OptCost.F(), e.SubOpt()
	}
	for _, st := range e.Steps {
		out.Steps = append(out.Steps, runStep{
			Contour: st.Contour, Plan: st.PlanID, Dim: st.Dim,
			// Terminal (beyond-terminus) steps carry a +Inf budget,
			// which encoding/json rejects; 0 is the documented
			// "unbudgeted" wire value.
			Budget: trace.SafeCost(st.Budget.F()), Spent: st.Spent.F(), Completed: st.Completed,
		})
	}
	if run.Trace.Enabled() {
		out.RunID = s.retainTrace(req.ID, run.Trace)
	}
	writeJSON(w, out)
}

// runFor builds the core.Run a /run request asks for, short of a concrete
// run's engine, or the reason it is a bad request. The server's
// -exec-workers and -exec-reuse defaults fill a concrete run's unset
// fields.
func (s *Server) runFor(req runRequest, b *core.Bouquet) (core.Run, error) {
	run := core.Run{Optimized: req.Optimized}
	if !req.Concrete {
		switch {
		case req.Parallelism != nil:
			return run, errors.New("parallelism applies to concrete runs only")
		case req.Reuse != nil:
			return run, errors.New("reuse applies to concrete runs only")
		case req.DataSeed != 0:
			return run, errors.New("dataSeed applies to concrete runs only")
		}
		if err := b.Space.Check(req.QA); err != nil {
			return run, fmt.Errorf("qa: %w", err)
		}
		if len(req.Seed) > 0 {
			if err := b.Space.Check(req.Seed); err != nil {
				return run, fmt.Errorf("seed: %w", err)
			}
			run.Seed = req.Seed
		}
		run.QA = req.QA
		return run, nil
	}
	switch {
	case len(req.QA) > 0:
		return run, errors.New("qa applies to simulated runs only: a concrete run learns it from the data")
	case len(req.Seed) > 0:
		return run, errors.New("seed applies to simulated runs only")
	}
	run.Parallelism, run.Reuse = s.cfg.ExecWorkers, s.cfg.ExecReuse
	if req.Parallelism != nil {
		run.Parallelism = *req.Parallelism
	}
	if req.Reuse != nil {
		run.Reuse = *req.Reuse
	}
	if run.Parallelism < 0 || run.Parallelism > exec.MaxParallelism {
		return run, fmt.Errorf("parallelism %d: outside 0..%d", run.Parallelism, exec.MaxParallelism)
	}
	return run, nil
}

// retainTrace ends a traced run that returned without error: it snapshots
// rec, gives the recorder back to the pool, folds the spans into the
// metrics and retains them under a new run ID, which it returns. The
// handlers call it only once the driver — and for a concrete run every
// engine worker — has returned; a run that failed or panicked never gets
// here, and its recorder goes to the collector instead of the pool.
func (s *Server) retainTrace(bouquetID string, rec *trace.Recorder) string {
	spans, dropped := rec.Spans(), rec.Dropped()
	rec.Release()
	return s.runs.add(bouquetID, spans, dropped, s.metrics.observeTrace(spans))
}

// handleRunTrace serves a retained run trace: the full span sequence plus
// its aggregate summary.
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	rr, ok := s.runs.get(r.PathValue("id"))
	if !ok {
		jsonError(w, http.StatusNotFound, "no trace for run %q (traces are retained for the last %d traced runs)", r.PathValue("id"), s.runs.cap)
		return
	}
	writeJSON(w, rr)
}

// handleHealthz answers liveness probes: the process is up and routing.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleMetrics exports the registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.render(w, s.cache.stats(), optimizer.TotalCalls(), s.runs.size())
}
