package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// config is everything a run is a function of.
type config struct {
	// seed drives every generated input except the corpus's query shapes
	// (see README "Seeds").
	seed int64
	// seconds is the measured length of one pass.
	seconds int
	// clients is the number of keep-alive client connections, at most
	// the core count.
	clients int
	// smoke shrinks every workload to test size.
	smoke  bool
	outDir string
}

// passLength is how long a pass repeats rounds for. A -smoke pass is one
// round whatever the clock says.
func (c config) passLength() time.Duration {
	if c.smoke {
		return 0
	}
	return time.Duration(c.seconds) * time.Second
}

// pick returns full, or small in a -smoke run.
func (c config) pick(full, small int) int {
	if c.smoke {
		return small
	}
	return full
}

// metric is one named number with its unit; N is the sample count behind
// a timing (0 where it does not apply) and Note says which percentile a
// tail metric could actually support.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
	// idle marks a per-layer metric the workload does not exercise; it
	// reads 0 and is left out of the printed table.
	idle bool
}

// pass accumulates one measured pass over a workload: rounds of the same
// fixed work, repeated until the time is up. tr is nil on the end-to-end
// pass and set on the traced pass.
type pass struct {
	cfg config
	tr  *tracer

	rounds int
	// busy is the wall time of the counted operations only. Warm-ups,
	// reference runs and the probes the traced pass adds beside the
	// replay are excluded, so busy/attempted is the workload's throughput
	// and is like for like between the two passes.
	busy      time.Duration
	roundWall []float64 // seconds in ops, one per round
	roundOps  []float64 // ops attempted, one per round

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	samples   map[string][]float64 // by name: latencies in ms, or plain series
	values    map[string]float64   // accumulated plain numbers
	maxes     map[string]float64   // running maxima
	notes     map[string]string    // per-key text the workload compares across rounds
	think     time.Duration        // client time between requests
}

func newPass(cfg config, tr *tracer) *pass {
	return &pass{cfg: cfg, tr: tr, samples: make(map[string][]float64), values: make(map[string]float64),
		maxes: make(map[string]float64), notes: make(map[string]string)}
}

// clock runs fn as (part of) a round's measured work. fn returns how long
// it waited on the system; the rest of its wall time was the generator's.
func (p *pass) clock(fn func() (waited time.Duration)) {
	start := time.Now()
	waited := fn()
	d := time.Since(start)
	p.busy += d
	p.think += d - waited
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sample records one latency under name, in milliseconds.
func (p *pass) sample(name string, d time.Duration) { p.series(name, ms(d)) }

// series appends one plain value (a ratio, a cost) under name.
func (p *pass) series(name string, v float64) {
	p.mu.Lock()
	p.samples[name] = append(p.samples[name], v)
	p.mu.Unlock()
}

// add accumulates v under name.
func (p *pass) add(name string, v float64) {
	p.mu.Lock()
	p.values[name] += v
	p.mu.Unlock()
}

// maxOf keeps the largest v seen under name.
func (p *pass) maxOf(name string, v float64) {
	p.mu.Lock()
	if v > p.maxes[name] {
		p.maxes[name] = v
	}
	p.mu.Unlock()
}

// merge folds a client's private pass into p (serve_mix gives each client
// its own so that recording a sample never contends).
func (p *pass) merge(c *pass) {
	p.attempted += c.attempted
	p.failed += c.failed
	for _, f := range c.failures {
		if len(p.failures) < maxFailuresKept {
			p.failures = append(p.failures, f)
		}
	}
	for name, s := range c.samples {
		p.samples[name] = append(p.samples[name], s...)
	}
	for name, v := range c.values {
		p.values[name] += v
	}
	for name, v := range c.maxes {
		if v > p.maxes[name] {
			p.maxes[name] = v
		}
	}
}

// maxFailuresKept bounds the failure messages retained for the report;
// every failure is still counted.
const maxFailuresKept = 8

// op closes one attempted operation; errs are its oracle failures.
func (p *pass) op(what string, errs []string) {
	p.mu.Lock()
	p.attempted++
	if len(errs) > 0 {
		p.failed++
		if len(p.failures) < maxFailuresKept {
			p.failures = append(p.failures, what+": "+errs[0])
		}
	}
	p.mu.Unlock()
}

// tail reports the want-th percentile of a sample set, or the highest
// percentile the sample count supports when that is lower.
func (p *pass) tail(metricName, sampleName string, want float64) metric {
	s := sortedCopy(p.samples[sampleName])
	got := supportedTail(len(s), want)
	m := metric{Name: metricName, Unit: "ms", Value: percentile(s, got), N: len(s)}
	if got < want {
		m.Note = fmt.Sprintf("p%g: too few samples for p%g", got, want)
	}
	return m
}

func (p *pass) p50(metricName, sampleName string) metric { return p.tail(metricName, sampleName, 50) }

// opsPerSec is operations completed per second of time spent in
// operations: the median over the pass's rounds, so that a stall of the
// host during one round does not set the figure for the run.
func (p *pass) opsPerSec() float64 {
	perRound := make([]float64, len(p.roundWall))
	for i := range perRound {
		perRound[i] = ratio(p.roundOps[i], p.roundWall[i])
	}
	return median(perRound)
}

// commonEndToEnd are the end-to-end metrics every workload reports the
// same way. wall_ratio_gmean and mso_gmean every workload reports too,
// each from its own definition.
func (p *pass) commonEndToEnd() []metric {
	return []metric{
		{Name: "ops_per_s", Unit: "1/s", Value: p.opsPerSec(), N: p.attempted},
		{Name: "failed_share", Unit: "ratio", Value: ratio(float64(p.failed), float64(p.attempted)), N: p.attempted},
	}
}

// workload is one named set of inputs. setup derives every input from
// cfg.seed; round runs the workload's fixed work once, measuring it into
// p and, when p.tr is set, recording spans and running the in-process
// layer probes beside the replay.
type workload interface {
	name() string
	setup() error
	round(p *pass) error
	close()
	// endToEnd derives the workload's own end-to-end metrics from an
	// untraced pass (the common ones are added by the runner).
	endToEnd(p *pass) []metric
	// perLayer derives the layer metrics from a traced pass.
	perLayer(p *pass, ly layerIndex) []metric
}

// workloadNames lists the ladder's workloads in run order.
var workloadNames = []string{"corpus_compile", "paper_grid", "corpus_exec", "table3_exec", "serve_mix"}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "corpus_compile":
		return &corpusCompile{cfg: cfg}, nil
	case "paper_grid":
		return &paperGrid{cfg: cfg}, nil
	case "corpus_exec":
		return &corpusExec{cfg: cfg}, nil
	case "table3_exec":
		return &table3Exec{cfg: cfg}, nil
	case "serve_mix":
		return &serveMix{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// setupRepeats is how many times an end-to-end run sets its workload up;
// setup_s is the median. The PR driver gates set-up time and asks for
// several set-ups a run so that the figure is steady enough to gate on.
const setupRepeats = 3

// result is everything one run of one workload produced.
type result struct {
	Workload string   `json:"workload"`
	Env      envStamp `json:"env"`
	Traced   bool     `json:"traced"`
	Rounds   int      `json:"rounds"`
	// RoundSeconds is each round's time spent in ops.
	RoundSeconds []float64 `json:"roundSeconds"`
	Attempted    int       `json:"attempted"`
	Failed       int       `json:"failed"`
	Failures     []string  `json:"failures,omitempty"`
	// Problems are harness-level findings that make the run wrong without
	// being a failed operation (a layer split that does not add up).
	Problems []string `json:"problems,omitempty"`
	Metrics  []metric `json:"metrics"`

	layers   []layerStat
	counters map[string]float64
	spans    []span
}

func (r result) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runPass repeats rounds until limit has elapsed on the wall clock; at
// least one round always runs.
func runPass(w workload, p *pass, limit time.Duration) error {
	start := time.Now()
	for p.rounds == 0 || time.Since(start) < limit {
		busy, attempted := p.busy, p.attempted
		if err := w.round(p); err != nil {
			return fmt.Errorf("%s round %d: %w", w.name(), p.rounds, err)
		}
		p.roundWall = append(p.roundWall, (p.busy - busy).Seconds())
		p.roundOps = append(p.roundOps, float64(p.attempted-attempted))
		p.rounds++
	}
	return nil
}

// setUp builds the named workload repeats times, keeping the last, and
// returns each build's wall time in seconds.
func setUp(name string, cfg config, repeats int) (workload, []float64, error) {
	var w workload
	var setups []float64
	for i := 0; i < repeats; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		next, err := newWorkload(name, cfg)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		if err := next.setup(); err != nil {
			next.close()
			return nil, nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		w = next
	}
	return w, setups, nil
}

// generatorShare is the part of the measured time the load generator
// itself used (encoding, decoding, checking) rather than waiting on the
// system: what a closed-loop client adds between two requests.
func (p *pass) generatorShare() float64 { return ratio(p.think.Seconds(), p.busy.Seconds()) }

// runEndToEnd sets the workload up and measures it with tracing off.
func runEndToEnd(name string, cfg config) (result, error) {
	res := result{Workload: name, Env: stampEnv(cfg)}
	w, setups, err := setUp(name, cfg, cfg.pick(setupRepeats, 1))
	if err != nil {
		return res, err
	}
	defer w.close()
	p := newPass(cfg, nil)
	if err := runPass(w, p, cfg.passLength()); err != nil {
		return res, err
	}
	res.Metrics = append(res.Metrics, metric{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups)})
	res.Metrics = append(res.Metrics, p.commonEndToEnd()...)
	res.Metrics = append(res.Metrics, w.endToEnd(p)...)
	res.Metrics = append(res.Metrics, metric{Name: "peak_rss_mb", Unit: "MB", Value: peakRSSMB()})
	res.fill(p)
	return res, nil
}

// runTraced sets the workload up, replays it untraced for a third of the
// time as the reference, then traced for the rest. How much longer the
// traced pass's operations took than the reference's is
// bench.trace_overhead_share.
func runTraced(name string, cfg config) (result, error) {
	res := result{Workload: name, Env: stampEnv(cfg), Traced: true}
	w, _, err := setUp(name, cfg, 1)
	if err != nil {
		return res, err
	}
	defer w.close()
	limit := cfg.passLength()
	ref := newPass(cfg, nil)
	if err := runPass(w, ref, limit/3); err != nil {
		return res, err
	}
	p := newPass(cfg, newTracer())
	if err := runPass(w, p, limit-limit/3); err != nil {
		return res, err
	}
	res.layers = layers(p.tr.spans)
	res.counters = p.tr.counters
	res.spans = p.tr.spans
	res.Metrics = fillPerLayer(append(w.perLayer(p, indexLayers(res.layers)),
		metric{Name: "bench.trace_overhead_share", Value: ratio(mean(p.samples["op"]), mean(ref.samples["op"])) - 1, N: len(p.samples["op"])},
		metric{Name: "bench.generator_late_share", Value: p.generatorShare()},
	))
	res.fill(p)
	res.Attempted += ref.attempted
	res.Failed += ref.failed
	res.Failures = append(ref.failures, res.Failures...)
	if !cfg.smoke { // a smoke pass is too short for its timings to add up to anything
		res.checkLayerSums()
	}
	return res, nil
}

func (r *result) fill(p *pass) {
	r.Rounds, r.Attempted, r.Failed, r.Failures = p.rounds, p.attempted, p.failed, p.failures
	r.RoundSeconds = p.roundWall
}

// maxSumGap is how far a layer split may be from the total it splits
// before the traced pass is reported as wrong.
const maxSumGap = 0.05

// checkLayerSums verifies the two sum-to-total invariants of the layer
// split: the staged compile against the whole compile, and per-step
// engine time plus driver self time against the concrete runs' wall.
func (r *result) checkLayerSums() {
	val := func(name string) float64 { m, _ := r.metric(name); return m.Value }
	if gap := val("core.compile_stage_gap"); gap > maxSumGap {
		r.Problems = append(r.Problems, fmt.Sprintf("core.compile_stage_gap %.3f exceeds %.2f: the compile stage spans do not add up", gap, maxSumGap))
	}
	var steps, runs float64
	for _, tag := range []string{"w0", "w1", "wN"} {
		steps += val("exec.step_ms." + tag)
		runs += val("core.concrete_run_ms." + tag)
	}
	if runs > 0 {
		if gap := math.Abs(steps+val("core.driver_self_ms")-runs) / runs; gap > maxSumGap {
			r.Problems = append(r.Problems, fmt.Sprintf("exec steps + driver self time are %.3f away from the concrete runs' wall", gap))
		}
	}
}

// fillPerLayer returns every per-layer metric in declaration order; a
// layer the workload does not exercise reads 0.
func fillPerLayer(got []metric) []metric {
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m, ok := byName[d.name]
		if !ok {
			m = metric{Name: d.name, idle: true}
		}
		m.Unit = d.unit
		out = append(out, m)
		delete(byName, d.name)
	}
	// A metric a workload derives but the table does not declare is a
	// harness bug; surface it rather than dropping it.
	extra := make([]string, 0, len(byName))
	for name := range byName {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		out = append(out, byName[name])
	}
	return out
}
