package main

// metricDef declares one metric: its unit, which direction is better, and
// (end-to-end only) the share of the parent's median by which it may get
// worse before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEndDefs are the end-to-end metrics, measured with tracing off.
// Each workload reports the ones that exist on it (README has the table),
// and -aa checks every one of them against its bound here.
//
// The four named in contractEndToEnd are reported by every workload and
// are the ones BENCHMARK.json gates on. The PR driver wants every gated
// metric from every workload, and accepts the benchmark only if ten runs
// on ten seeds spread by less than each gated metric's bound, twice. No
// raw timing met that on the 2-vCPU box this was built on: its speed on
// this code moves by 20–35 % for minutes at a time, and in each of four
// ten-seed sets some workload's throughput or median latency spread by
// more than the 25 % the driver allows at most (README "A/A"). By the
// issue's rule — a metric that cannot be made to repeat is not gated —
// the timings are printed and A/A-checked but only wall_ratio_gmean, which
// divides two timings taken moments apart, is gated: it spread by 2–9 %.
// mso_gmean is exact; peak_rss_mb spread by 2–10 %.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"failed_share", "ratio", "lower", 0},
	{"compile_cold_p50_ms", "ms", "lower", 0.25},
	{"compile_cold_p95_ms", "ms", "lower", 0.25},
	{"compile_cached_p50_ms", "ms", "lower", 0.25},
	{"run_sim_p50_ms", "ms", "lower", 0.25},
	{"run_sim_p95_ms", "ms", "lower", 0.25},
	{"sql_to_rows_p50_ms", "ms", "lower", 0.25},
	{"run_concrete_w0_p50_ms", "ms", "lower", 0.25},
	{"run_concrete_wN_p50_ms", "ms", "lower", 0.25},
	{"run_concrete_wN_p95_ms", "ms", "lower", 0.25},
	{"wall_ratio_gmean", "ratio", "lower", 0.15},
	{"mso_gmean", "ratio", "lower", 1e-9},
	{"grid_eval_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// contractEndToEnd names the end-to-end metrics of BENCHMARK.json.
var contractEndToEnd = []string{"setup_s", "wall_ratio_gmean", "mso_gmean", "peak_rss_mb"}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEndDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// perLayerDefs are the per-layer metrics of the traced pass, in the order
// they print. "_ms" is busy time summed over the pass; a layer a workload
// does not exercise reads 0.
var perLayerDefs = []metricDef{
	{name: "sqlparse.parse_ms", unit: "ms", better: "lower"},
	{name: "sqlparse.mb_per_s", unit: "MB/s", better: "higher"},
	{name: "ess.new_space_ms", unit: "ms", better: "lower"},
	{name: "optimizer.new_ms", unit: "ms", better: "lower"},
	{name: "optimizer.calls", unit: "count", better: "lower"},
	{name: "optimizer.ns_per_call", unit: "ns", better: "lower"},
	{name: "optimizer.allocs_per_call", unit: "count", better: "lower"},
	{name: "posp.generate_ms", unit: "ms", better: "lower"},
	{name: "posp.generate_serial_ms", unit: "ms", better: "lower"},
	{name: "posp.parallel_speedup", unit: "ratio", better: "higher"},
	{name: "posp.points", unit: "count", better: "lower"},
	{name: "posp.plans", unit: "count", better: "lower"},
	{name: "contour.ladder_ms", unit: "ms", better: "lower"},
	{name: "contour.identify_ms", unit: "ms", better: "lower"},
	{name: "contour.steps", unit: "count", better: "lower"},
	{name: "contour.focused_ms", unit: "ms", better: "lower"},
	{name: "contour.focused_calls", unit: "count", better: "lower"},
	{name: "contour.focused_savings", unit: "ratio", better: "higher"},
	{name: "anorexic.reduce_ms", unit: "ms", better: "lower"},
	{name: "anorexic.plans_in", unit: "count", better: "lower"},
	{name: "anorexic.plans_out", unit: "count", better: "lower"},
	{name: "anorexic.retained_share", unit: "ratio", better: "lower"},
	{name: "core.compile_ms", unit: "ms", better: "lower"},
	{name: "core.compile_stage_gap", unit: "ratio", better: "lower"},
	{name: "core.run_basic_us", unit: "us", better: "lower"},
	{name: "core.run_optimized_us", unit: "us", better: "lower"},
	{name: "core.sim_steps", unit: "count", better: "lower"},
	{name: "core.sim_subopt_max", unit: "ratio", better: "lower"},
	{name: "core.concrete_run_ms.w0", unit: "ms", better: "lower"},
	{name: "core.concrete_run_ms.w1", unit: "ms", better: "lower"},
	{name: "core.concrete_run_ms.wN", unit: "ms", better: "lower"},
	{name: "core.concrete_opt_run_ms.wN", unit: "ms", better: "lower"},
	{name: "core.driver_self_ms", unit: "ms", better: "lower"},
	{name: "core.concrete_steps", unit: "count", better: "lower"},
	{name: "core.concrete_aborts", unit: "count", better: "lower"},
	{name: "core.wasted_cost_share", unit: "ratio", better: "lower"},
	{name: "core.cost_ratio_gmean", unit: "ratio", better: "lower"},
	{name: "core.reuse_hits", unit: "count", better: "higher"},
	{name: "core.salvaged_cost_share", unit: "ratio", better: "higher"},
	{name: "core.reuse_speedup.w0", unit: "ratio", better: "higher"},
	{name: "core.reuse_speedup.wN", unit: "ratio", better: "higher"},
	{name: "core.step_seq_mismatch", unit: "count", better: "lower"},
	{name: "data.generate_ms", unit: "ms", better: "lower"},
	{name: "data.rows", unit: "count", better: "lower"},
	{name: "data.rows_per_s", unit: "1/s", better: "higher"},
	{name: "exec.step_ms.w0", unit: "ms", better: "lower"},
	{name: "exec.step_ms.w1", unit: "ms", better: "lower"},
	{name: "exec.step_ms.wN", unit: "ms", better: "lower"},
	{name: "exec.steps.w0", unit: "count", better: "lower"},
	{name: "exec.steps.w1", unit: "count", better: "lower"},
	{name: "exec.steps.wN", unit: "count", better: "lower"},
	{name: "exec.reference_ms.w0", unit: "ms", better: "lower"},
	{name: "exec.reference_ms.w1", unit: "ms", better: "lower"},
	{name: "exec.reference_ms.wN", unit: "ms", better: "lower"},
	{name: "exec.tuples_per_s.w0", unit: "1/s", better: "higher"},
	{name: "exec.tuples_per_s.w1", unit: "1/s", better: "higher"},
	{name: "exec.tuples_per_s.wN", unit: "1/s", better: "higher"},
	{name: "exec.vector_speedup", unit: "ratio", better: "higher"},
	{name: "exec.parallel_speedup", unit: "ratio", better: "higher"},
	{name: "exec.wall_ratio.w0", unit: "ratio", better: "lower"},
	{name: "exec.wall_ratio.w1", unit: "ratio", better: "lower"},
	{name: "exec.wall_ratio.wN", unit: "ratio", better: "lower"},
	{name: "exec.ns_per_cost.w0", unit: "ns", better: "lower"},
	{name: "exec.ns_per_cost.w1", unit: "ns", better: "lower"},
	{name: "exec.ns_per_cost.wN", unit: "ns", better: "lower"},
	{name: "exec.delta_spread.w0", unit: "ratio", better: "lower"},
	{name: "exec.delta_spread.w1", unit: "ratio", better: "lower"},
	{name: "exec.delta_spread.wN", unit: "ratio", better: "lower"},
	{name: "server.compile_overhead_ms", unit: "ms", better: "lower"},
	{name: "server.run_sim_overhead_us", unit: "us", better: "lower"},
	{name: "server.run_concrete_overhead_ms", unit: "ms", better: "lower"},
	{name: "server.engine_build_ms", unit: "ms", better: "lower"},
	{name: "server.compile_cold_p95_ms", unit: "ms", better: "lower"},
	{name: "server.cache_hits", unit: "count", better: "higher"},
	{name: "server.cache_misses", unit: "count", better: "lower"},
	{name: "server.cache_evictions", unit: "count", better: "lower"},
	{name: "server.cache_hit_share", unit: "ratio", better: "higher"},
	{name: "server.get_bouquet_us", unit: "us", better: "lower"},
	{name: "server.metrics_scrape_us", unit: "us", better: "lower"},
	{name: "server.resp_bytes", unit: "count", better: "lower"},
	{name: "server.http_errors", unit: "count", better: "lower"},
	{name: "trace.traced_run_overhead_share", unit: "ratio", better: "lower"},
	{name: "trace.get_trace_us", unit: "us", better: "lower"},
	{name: "metrics.aggregate_us", unit: "us", better: "lower"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "bench.generator_late_share", unit: "ratio", better: "lower"},
}
