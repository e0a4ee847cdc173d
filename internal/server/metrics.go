package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// This file implements a minimal, dependency-free metrics registry that
// renders the Prometheus text exposition format (version 0.0.4). Only the
// primitives the server needs are built: counters, gauges, label-keyed
// counters, and fixed-bucket histograms. Everything is safe for concurrent
// use.

// counter is a monotone atomic counter.
type counter struct{ v atomic.Int64 }

func (c *counter) Add(n int64) { c.v.Add(n) }
func (c *counter) Value() int64 {
	return c.v.Load()
}

// gauge is an atomically-set float value.
type gauge struct{ bits atomic.Uint64 }

func (g *gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }
func (g *gauge) Value() float64 {
	return math.Float64frombits(g.bits.Load())
}

// labeledCounter counts per rendered label set, e.g.
// `path="/compile",code="200"`.
type labeledCounter struct {
	mu sync.Mutex
	m  map[string]int64
}

func newLabeledCounter() *labeledCounter {
	return &labeledCounter{m: make(map[string]int64)}
}

func (l *labeledCounter) Add(labels string, n int64) {
	l.mu.Lock()
	l.m[labels] += n
	l.mu.Unlock()
}

// snapshot returns the label sets in sorted order for deterministic output.
func (l *labeledCounter) snapshot() ([]string, map[string]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.m))
	out := make(map[string]int64, len(l.m))
	for k, v := range l.m {
		keys = append(keys, k)
		out[k] = v
	}
	sort.Strings(keys)
	return keys, out
}

// histogram is a fixed-bucket cumulative histogram, optionally keyed by a
// label set (one bucket vector per label set).
type histogram struct {
	buckets []float64 // upper bounds, ascending; +Inf implied

	mu   sync.Mutex
	sets map[string]*histogramSet
}

type histogramSet struct {
	counts []int64 // one per bucket, plus the +Inf overflow at the end
	sum    float64
	count  int64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, sets: make(map[string]*histogramSet)}
}

// Observe records v under the given label set ("" for unlabeled).
func (h *histogram) Observe(labels string, v float64) {
	h.mu.Lock()
	h.set(labels).observe(h.buckets, v)
	h.mu.Unlock()
}

// set returns the bucket vector of a label set, creating it on first use.
// The caller holds h.mu.
func (h *histogram) set(labels string) *histogramSet {
	s, ok := h.sets[labels]
	if !ok {
		s = &histogramSet{counts: make([]int64, len(h.buckets)+1)}
		h.sets[labels] = s
	}
	return s
}

// observe counts v into the first bucket of buckets that holds it.
func (s *histogramSet) observe(buckets []float64, v float64) {
	idx := len(buckets) // +Inf bucket
	for i, ub := range buckets {
		if v <= ub {
			idx = i
			break
		}
	}
	s.counts[idx]++
	s.sum += v
	s.count++
}

// serverMetrics aggregates the server's operational telemetry; render
// writes it in Prometheus text format. Cache statistics, registry size and
// optimizer call totals are sampled at render time from their owning
// structures rather than mirrored here.
type serverMetrics struct {
	requests *labeledCounter // by path pattern and status code
	latency  *histogram      // request duration seconds, by path pattern

	compiles       counter // compile requests that ran a fresh compile
	runsTotal      counter // completed /run requests
	runSteps       counter // contour steps (plan executions) across all runs
	lastRunSubOpt  gauge   // SubOpt of the most recent run
	lastRunCost    gauge   // TotalCost of the most recent run
	lastRunOptCost gauge   // oracle OptCost of the most recent run
	runSubOpt      *histogram

	reuseHits        counter // operator-state reuse-cache hits across concrete runs
	lastSalvagedCost gauge   // salvaged model cost of the most recent concrete run

	tracedRuns      counter    // /run requests that recorded a trace
	traceExecSteps  counter    // exec spans across all traced runs
	traceAborts     counter    // budget-abort spans across all traced runs
	traceSpills     counter    // spill spans across all traced runs
	traceLearns     counter    // discovered-selectivity spans across all traced runs
	lastWastedRatio gauge      // wasted/(useful+wasted) cost of the most recent traced run
	stepWall        *histogram // per-step execution wall time, seconds

	panics   counter // panics recovered by the middleware
	timeouts counter // requests abandoned at their deadline
}

// latencyBuckets spans sub-millisecond cache hits through multi-second
// cold compiles.
var latencyBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// subOptBuckets spans the bouquet guarantee range: SubOpt is ≥ 1 by
// definition and bounded by 4(1+λ)ρ in practice (tens).
var subOptBuckets = []float64{1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64}

// stepWallBuckets spans microsecond simulated steps through second-scale
// concrete engine executions.
var stepWallBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 2.5, 5}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		requests:  newLabeledCounter(),
		latency:   newHistogram(latencyBuckets),
		runSubOpt: newHistogram(subOptBuckets),
		stepWall:  newHistogram(stepWallBuckets),
	}
}

// observeRun records one bouquet run's telemetry: its cost, the number of
// contour steps it took, and the paper's SubOpt robustness metric for a
// simulated run or the reuse figures for a concrete one.
func (m *serverMetrics) observeRun(e core.Execution, concrete bool) {
	m.runsTotal.Add(1)
	m.runSteps.Add(int64(e.NumExecs()))
	m.lastRunCost.Set(e.TotalCost.F())
	if concrete {
		// A concrete run never consults ground truth, so there is no
		// SubOpt to observe; it feeds the reuse series instead.
		m.reuseHits.Add(int64(e.ReuseHits))
		m.lastSalvagedCost.Set(e.SalvagedCost.F())
		return
	}
	m.lastRunOptCost.Set(e.OptCost.F())
	m.lastRunSubOpt.Set(e.SubOpt())
	m.runSubOpt.Observe("", e.SubOpt())
}

// observeTrace folds one traced run into its aggregate, the
// bouquetd_trace_* series and — each exec span's wall time — the per-step
// latency histogram: one pass over the spans, the histogram locked once
// for the run. It returns the aggregate.
func (m *serverMetrics) observeTrace(spans []trace.Span) metrics.RunAggregate {
	var a metrics.RunAggregate
	m.stepWall.mu.Lock()
	walls := m.stepWall.set("")
	for i := range spans {
		s := &spans[i]
		a.Add(s)
		if s.Kind == trace.KindExec {
			walls.observe(m.stepWall.buckets, float64(s.WallNanos)/1e9)
		}
	}
	m.stepWall.mu.Unlock()
	m.tracedRuns.Add(1)
	m.traceExecSteps.Add(int64(a.Execs))
	m.traceAborts.Add(int64(a.Aborts))
	m.traceSpills.Add(int64(a.Spills))
	m.traceLearns.Add(int64(a.Learns))
	m.lastWastedRatio.Set(a.WastedRatio())
	return a
}

func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeLabeledCounter(w io.Writer, name, help string, c *labeledCounter) {
	writeHeader(w, name, help, "counter")
	keys, vals := c.snapshot()
	if len(keys) == 0 {
		return
	}
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s} %d\n", name, k, vals[k])
	}
}

func (h *histogram) write(w io.Writer, name, help string) {
	writeHeader(w, name, help, "histogram")
	h.mu.Lock()
	labels := make([]string, 0, len(h.sets))
	for k := range h.sets {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	type snap struct {
		label string
		set   histogramSet
	}
	snaps := make([]snap, 0, len(labels))
	for _, k := range labels {
		s := h.sets[k]
		snaps = append(snaps, snap{k, histogramSet{counts: append([]int64(nil), s.counts...), sum: s.sum, count: s.count}})
	}
	h.mu.Unlock()

	for _, s := range snaps {
		sep := ""
		if s.label != "" {
			sep = ","
		}
		cum := int64(0)
		for i, ub := range h.buckets {
			cum += s.set.counts[i]
			fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, s.label, sep, ub, cum)
		}
		cum += s.set.counts[len(h.buckets)]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, s.label, sep, cum)
		if s.label == "" {
			fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, s.set.sum, name, s.set.count)
		} else {
			fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, s.label, s.set.sum, name, s.label, s.set.count)
		}
	}
}

// render writes every metric in Prometheus text format. cache, bouquets,
// optCalls and retainedTraces are sampled by the caller (the /metrics
// handler) so the registry has no back-pointer to the server.
func (m *serverMetrics) render(w io.Writer, cache CacheStats, bouquets int, optCalls int64, retainedTraces int) {
	writeLabeledCounter(w, "bouquetd_requests_total", "HTTP requests by path pattern and status code.", m.requests)
	m.latency.write(w, "bouquetd_request_duration_seconds", "HTTP request latency by path pattern.")

	writeHeader(w, "bouquetd_compile_cache_hits_total", "Compile requests served from the compile cache.", "counter")
	fmt.Fprintf(w, "bouquetd_compile_cache_hits_total %d\n", cache.Hits)
	writeHeader(w, "bouquetd_compile_cache_misses_total", "Compile requests that ran a fresh bouquet compilation.", "counter")
	fmt.Fprintf(w, "bouquetd_compile_cache_misses_total %d\n", cache.Misses)
	writeHeader(w, "bouquetd_compile_cache_evictions_total", "Compile cache entries evicted by the LRU bound.", "counter")
	fmt.Fprintf(w, "bouquetd_compile_cache_evictions_total %d\n", cache.Evictions)
	writeHeader(w, "bouquetd_compile_cache_entries", "Current compile cache population.", "gauge")
	fmt.Fprintf(w, "bouquetd_compile_cache_entries %d\n", cache.Entries)

	writeHeader(w, "bouquetd_bouquets", "Compiled bouquets in the registry.", "gauge")
	fmt.Fprintf(w, "bouquetd_bouquets %d\n", bouquets)
	writeHeader(w, "bouquetd_optimizer_calls_total", "Process-wide optimizer Optimize() invocations (compile-time overhead, paper §6.1).", "counter")
	fmt.Fprintf(w, "bouquetd_optimizer_calls_total %d\n", optCalls)
	writeHeader(w, "bouquetd_compiles_total", "Fresh (non-cached) bouquet compilations.", "counter")
	fmt.Fprintf(w, "bouquetd_compiles_total %d\n", m.compiles.Value())

	writeHeader(w, "bouquetd_runs_total", "Bouquet executions served by /run.", "counter")
	fmt.Fprintf(w, "bouquetd_runs_total %d\n", m.runsTotal.Value())
	writeHeader(w, "bouquetd_run_steps_total", "Contour steps (budgeted plan executions) across all runs.", "counter")
	fmt.Fprintf(w, "bouquetd_run_steps_total %d\n", m.runSteps.Value())
	writeHeader(w, "bouquetd_last_run_subopt", "SubOpt (c_b/c_opt, paper Eq. 1) of the most recent run.", "gauge")
	fmt.Fprintf(w, "bouquetd_last_run_subopt %g\n", m.lastRunSubOpt.Value())
	writeHeader(w, "bouquetd_last_run_total_cost", "Total execution cost of the most recent run.", "gauge")
	fmt.Fprintf(w, "bouquetd_last_run_total_cost %g\n", m.lastRunCost.Value())
	writeHeader(w, "bouquetd_last_run_opt_cost", "Oracle (optimal) cost of the most recent run.", "gauge")
	fmt.Fprintf(w, "bouquetd_last_run_opt_cost %g\n", m.lastRunOptCost.Value())
	m.runSubOpt.write(w, "bouquetd_run_subopt", "Distribution of per-run SubOpt values.")
	writeHeader(w, "bouquetd_reuse_hits_total", "Operator states served from the per-run reuse cache across concrete runs.", "counter")
	fmt.Fprintf(w, "bouquetd_reuse_hits_total %d\n", m.reuseHits.Value())
	writeHeader(w, "bouquetd_last_run_salvaged_cost", "Model cost the most recent concrete run charged for reused operator state instead of re-executing it.", "gauge")
	fmt.Fprintf(w, "bouquetd_last_run_salvaged_cost %g\n", m.lastSalvagedCost.Value())

	writeHeader(w, "bouquetd_traced_runs_total", "Runs that recorded a structured execution trace.", "counter")
	fmt.Fprintf(w, "bouquetd_traced_runs_total %d\n", m.tracedRuns.Value())
	writeHeader(w, "bouquetd_trace_exec_steps_total", "Plan executions (generic and spilled) across traced runs.", "counter")
	fmt.Fprintf(w, "bouquetd_trace_exec_steps_total %d\n", m.traceExecSteps.Value())
	writeHeader(w, "bouquetd_trace_budget_aborts_total", "Executions jettisoned at budget exhaustion across traced runs.", "counter")
	fmt.Fprintf(w, "bouquetd_trace_budget_aborts_total %d\n", m.traceAborts.Value())
	writeHeader(w, "bouquetd_trace_spills_total", "Spilled executions (pipeline broken for selectivity learning, paper §5.3) across traced runs.", "counter")
	fmt.Fprintf(w, "bouquetd_trace_spills_total %d\n", m.traceSpills.Value())
	writeHeader(w, "bouquetd_trace_learns_total", "Discovered-selectivity updates (paper §5.2) across traced runs.", "counter")
	fmt.Fprintf(w, "bouquetd_trace_learns_total %d\n", m.traceLearns.Value())
	writeHeader(w, "bouquetd_last_run_wasted_ratio", "Exploration-overhead fraction (wasted/(useful+wasted) cost) of the most recent traced run.", "gauge")
	fmt.Fprintf(w, "bouquetd_last_run_wasted_ratio %g\n", m.lastWastedRatio.Value())
	m.stepWall.write(w, "bouquetd_trace_step_wall_seconds", "Per-step execution wall time across traced runs.")
	writeHeader(w, "bouquetd_retained_traces", "Traced runs currently retained for /runs/{id}/trace.", "gauge")
	fmt.Fprintf(w, "bouquetd_retained_traces %d\n", retainedTraces)

	writeHeader(w, "bouquetd_panics_recovered_total", "Handler panics recovered by the middleware.", "counter")
	fmt.Fprintf(w, "bouquetd_panics_recovered_total %d\n", m.panics.Value())
	writeHeader(w, "bouquetd_request_timeouts_total", "Requests abandoned at their context deadline.", "counter")
	fmt.Fprintf(w, "bouquetd_request_timeouts_total %d\n", m.timeouts.Value())
}
