// Command benchmark is the repository's measurement ladder: it generates
// every input from a seed, serves the system through real internal/server
// handlers behind a net/http server on loopback, drives it closed-loop
// from the same process, checks every answer against an in-process
// oracle, and prints every metric by name with its unit.
//
//	go run ./benchmark -seed 7                 # all five workloads, both passes
//	go run ./benchmark -workload serve_mix     # one workload, both passes
//	go run ./benchmark -aa                     # the end-to-end set three times (-aa=K: K times), spreads against bounds
//	go run ./benchmark --workload paper_grid --seed 7 --seconds 10 --trace 0
//
// The last form is what the PR driver runs (see BENCHMARK.json): one
// pass of one workload, ending in a single JSON line. End-to-end metrics
// are measured with tracing off; a separate traced pass replays the same
// inputs with a span around each call into a layer's public functions
// and writes benchmark/out/trace-<workload>.json. README.md in this
// directory is the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	only := fs.String("workload", "", "run one workload (default: all five)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured length of one pass, in seconds")
	traceMode := fs.Int("trace", -1, "0: end-to-end pass only, 1: traced pass only; either ends in one JSON result line (default: both passes)")
	var aa aaFlag
	fs.Var(&aa, "aa", "A/A mode: run the end-to-end set three times, or -aa=K times, and print each metric's spread against its bound")
	allow1 := fs.Bool("allow-1cpu", false, "run even with GOMAXPROCS < 2 (wN then equals w1)")
	resultJSON := fs.Bool("result-json", false, "also print each result as one '"+resultPrefix+"' line (what -aa reads from its child processes)")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes: exercises every workload and oracle in seconds, measures nothing")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.seconds < 1 || *traceMode < -1 || *traceMode > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	cfg.clients = min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if cfg.clients < 2 && !*allow1 {
		fmt.Fprintln(stderr, "benchmark: GOMAXPROCS < 2: parallel scaling cannot be measured on one CPU (the mistake BENCH_exec.json records); pass -allow-1cpu to run anyway")
		return 2
	}
	names := workloadNames
	if *only != "" {
		if _, err := newWorkload(*only, cfg); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		names = []string{*only}
	}
	fmt.Fprintln(stdout, stampEnv(cfg))

	if aa > 0 {
		return runAA(names, cfg, int(aa), *allow1, stdout, stderr)
	}
	bad := false
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			if (*traceMode == 0 && traced) || (*traceMode == 1 && !traced) {
				continue
			}
			res, err := runOne(name, cfg, traced, stdout)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			bad = bad || !res.correct()
			if *resultJSON {
				fmt.Fprintln(stdout, resultPrefix+string(mustJSON(res)))
			}
			if *traceMode >= 0 {
				fmt.Fprintln(stdout, res.driverLine())
			}
		}
	}
	if bad {
		fmt.Fprintln(stderr, "benchmark: failed_share > 0 or a layer split does not add up")
		return 1
	}
	return 0
}

// aaFlag is the repetition count of -aa: the flag alone means the
// customary three, -aa=K means K.
type aaFlag int

func (a *aaFlag) String() string   { return strconv.Itoa(int(*a)) }
func (a *aaFlag) IsBoolFlag() bool { return true }

func (a *aaFlag) Set(s string) error {
	if s == "true" {
		*a = 3
		return nil
	}
	k, err := strconv.Atoi(s)
	if err != nil || k < 2 {
		return fmt.Errorf("want a repetition count of at least 2")
	}
	*a = aaFlag(k)
	return nil
}

// runOne runs one pass of one workload, prints it, and (traced) writes
// its trace file.
func runOne(name string, cfg config, traced bool, stdout io.Writer) (result, error) {
	var res result
	var err error
	if traced {
		res, err = runTraced(name, cfg)
	} else {
		res, err = runEndToEnd(name, cfg)
	}
	if err != nil {
		return res, err
	}
	res.print(stdout)
	if traced {
		path, err := res.writeTrace(cfg.outDir)
		if err != nil {
			return res, err
		}
		fmt.Fprintf(stdout, "  wrote %s\n", path)
	}
	return res, nil
}

func (r result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// print renders the result as one line per metric: name, value, unit, and
// the sample count where there is one.
func (r result) print(w io.Writer) {
	kind := "end-to-end (tracing off)"
	if r.Traced {
		kind = "per-layer (traced pass)"
	}
	fmt.Fprintf(w, "== %s  %s  rounds=%d attempted=%d failed=%d\n", r.Workload, kind, r.Rounds, r.Attempted, r.Failed)
	fmt.Fprintf(w, "  round seconds: %.3f\n", r.RoundSeconds)
	for _, m := range r.Metrics {
		if m.idle {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Note != "" {
			fmt.Fprintf(w, " (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILED", f)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  PROBLEM", p)
	}
	if r.Traced {
		for _, name := range []string{"bench.trace_overhead_share", "bench.generator_late_share"} {
			if m, _ := r.metric(name); m.Value > 0.10 {
				fmt.Fprintf(w, "  warning: %s = %.3f is above 0.10\n", name, m.Value)
			}
		}
	}
}

// driverLine is the single JSON object the PR driver reads from the last
// line of stdout: with tracing off, every end-to-end metric of
// BENCHMARK.json; traced, every per-layer metric.
func (r result) driverLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	if r.Traced {
		for _, d := range perLayerDefs {
			m, _ := r.metric(d.name)
			out.Metrics[d.name] = value{m.Value, d.unit}
		}
	} else {
		for _, name := range contractEndToEnd {
			m, _ := r.metric(name)
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	return string(mustJSON(out))
}

// maxSpansWritten caps the spans a trace file lists; the layer roll-up
// and the counters always cover every span.
const maxSpansWritten = 20000

// writeTrace writes trace-<workload>.json: the env stamp, the layer
// roll-up (calls, total and self time per span name), the counters, the
// derived metrics, and the first maxSpansWritten spans.
func (r result) writeTrace(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create %s: %w", dir, err)
	}
	type counter struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	counters := make([]counter, 0, len(r.counters))
	for name, v := range r.counters {
		counters = append(counters, counter{name, v})
	}
	sort.Slice(counters, func(i, j int) bool { return counters[i].Name < counters[j].Name })
	spans := r.spans
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	doc := struct {
		result
		Layers     []layerStat `json:"layers"`
		Counters   []counter   `json:"counters"`
		SpansTotal int         `json:"spansTotal"`
		Spans      []span      `json:"spans"`
	}{r, r.layers, counters, len(r.spans), spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+r.Workload+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// resultPrefix marks the line a child process prints its whole result on.
const resultPrefix = "result-json: "

// runIsolated measures one workload end to end in a child process of this
// same binary, the way the PR driver does: a fresh heap and a fresh peak
// RSS for every repetition.
func runIsolated(name string, cfg config, allow1 bool, stdout io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, fmt.Errorf("find own binary: %w", err)
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.Itoa(cfg.seconds), "-trace", "0", "-result-json", "-out", cfg.outDir}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	if allow1 {
		args = append(args, "-allow-1cpu")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var res result
	found := false
	for _, line := range strings.Split(string(out), "\n") {
		switch {
		case strings.HasPrefix(line, resultPrefix):
			if jerr := json.Unmarshal([]byte(strings.TrimPrefix(line, resultPrefix)), &res); jerr != nil {
				return res, fmt.Errorf("%s: child result: %w", name, jerr)
			}
			found = true
		case strings.HasPrefix(line, "==") || strings.HasPrefix(line, "  "):
			fmt.Fprintln(stdout, line)
		}
	}
	if err != nil {
		return res, fmt.Errorf("%s: child process: %w", name, err)
	}
	if !found {
		return res, fmt.Errorf("%s: child process printed no result", name)
	}
	return res, nil
}

// runAA runs the end-to-end set k times, each workload of each repetition
// in its own process of this binary, and prints per workload and
// end-to-end metric min / median / max and the spread as a multiple of
// the metric's bound. It exits non-zero when a gated metric's spread
// exceeds its bound — a metric that does not repeat cannot gate anything —
// or when any operation failed. The metrics BENCHMARK.json does not gate
// are marked when over but do not fail the run: not repeating on this
// host is why they are not gated. setup_s is printed but exempt, as it is
// from the PR driver's spread check.
func runAA(names []string, cfg config, k int, allow1 bool, stdout, stderr io.Writer) int {
	runs := make(map[string][]result, len(names))
	for i := 0; i < k; i++ {
		fmt.Fprintf(stdout, "-- A/A repetition %d of %d\n", i+1, k)
		for _, name := range names {
			res, err := runIsolated(name, cfg, allow1, stdout)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			runs[name] = append(runs[name], res)
		}
	}
	fmt.Fprintf(stdout, "\nA/A over %d repetitions (spread = %s ÷ median)\n", k, map[bool]string{true: "interquartile distance", false: "range"}[k >= 4])
	fmt.Fprintf(stdout, "%-15s %-24s %12s %12s %12s %8s %8s\n", "workload", "metric", "min", "median", "max", "spread", "÷bound")
	over := 0
	for _, name := range names {
		for _, d := range endToEndDefs {
			var vs []float64
			for _, res := range runs[name] {
				if m, ok := res.metric(d.name); ok {
					vs = append(vs, m.Value)
				}
			}
			if len(vs) == 0 {
				continue
			}
			s := sortedCopy(vs)
			sp := spread(vs)
			rel := "-"
			switch {
			case d.bound > 0:
				rel = fmt.Sprintf("%.2f", sp/d.bound)
				switch {
				case sp <= d.bound || d.name == "setup_s":
				case slices.Contains(contractEndToEnd, d.name):
					over++
					rel += " OVER"
				default:
					rel += " over (not gated)"
				}
			case s[len(s)-1] > 0: // failed_share: any failure is over
				over++
				rel = "OVER"
			}
			fmt.Fprintf(stdout, "%-15s %-24s %12.6g %12.6g %12.6g %8.4f %8s\n", name, d.name, s[0], median(vs), s[len(s)-1], sp, rel)
		}
	}
	if over > 0 {
		fmt.Fprintf(stderr, "benchmark: %d gated workload × metric spreads exceed their bounds, or operations failed\n", over)
		return 1
	}
	return 0
}
