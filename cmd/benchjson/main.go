// Command benchjson converts `go test -bench` output into a small JSON
// summary suitable for checking into the repository and diffing across
// commits (BENCH_compile.json).
//
// It reads benchmark text on stdin and writes JSON to -o (default
// stdout). With -baseline pointing at a file of raw benchmark text from
// an earlier commit, each entry also reports the baseline numbers and
// the speedup / allocation-reduction ratios. Both inputs are plain
// `go test -bench -benchmem` output, so the same two files feed
// benchstat directly for confidence intervals:
//
//	go test -run '^$' -bench Compile -benchmem -count 3 . > new.txt
//	benchjson -baseline bench/compile_seed.txt -o BENCH_compile.json < new.txt
//	benchstat bench/compile_seed.txt new.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchName matches a benchmark result line's first field, with or
// without the -GOMAXPROCS suffix.
var benchName = regexp.MustCompile(`^Benchmark(\S+?)(?:-(\d+))?$`)

// sample is one benchmark run's measurements, and where it ran: the
// GOMAXPROCS suffix of its name (0 when the line carries none, which is
// how go test prints a run at GOMAXPROCS=1) and the "cpu:" line above it.
type sample struct {
	nsPerOp     float64
	bytesPerOp  int64
	allocsPerOp int64
	procs       int
	cpu         string
}

// stats aggregates repeated runs of one benchmark. Min is the
// conventional "best of N" (least scheduler noise); Mean is reported
// alongside for context.
type stats struct {
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"` // minimum across runs
	MeanNsPerOp float64 `json:"mean_ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`  // minimum across runs
	AllocsPerOp int64   `json:"allocs_per_op"` // minimum across runs
	// GOMAXPROCS and CPU say what the runs had to work with — parallel
	// benchmarks (FocusedCompile, AblationResolution) scale with it.
	// GOMAXPROCS is absent when the result lines carry no -N suffix.
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	CPU        string `json:"cpu,omitempty"`
}

type entry struct {
	Name     string  `json:"name"`
	Current  stats   `json:"current"`
	Baseline *stats  `json:"baseline,omitempty"`
	Speedup  float64 `json:"speedup,omitempty"`         // baseline ns / current ns
	AllocCut float64 `json:"alloc_reduction,omitempty"` // baseline allocs / current allocs
}

type output struct {
	Note       string  `json:"note"`
	Benchmarks []entry `json:"benchmarks"`
}

// parse reads `go test -bench -benchmem` result lines. Measurement
// columns come in "<value> <unit>" pairs; unknown units (custom
// b.ReportMetric columns such as rows/s) are skipped, so the known
// columns are found wherever they sit on the line. One benchmark at two
// GOMAXPROCS values is an error: best-of-N across core counts means nothing.
func parse(r io.Reader) (map[string][]sample, error) {
	out := make(map[string][]sample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	cpu := ""
	for sc.Scan() {
		if model, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok {
			cpu = strings.TrimSpace(model)
			continue
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 {
			continue
		}
		m := benchName.FindStringSubmatch(fields[0])
		if m == nil {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // not an iteration count — not a result line
		}
		s := sample{cpu: cpu}
		if m[2] != "" {
			s.procs, _ = strconv.Atoi(m[2])
		}
		if prev := out[m[1]]; len(prev) > 0 && prev[0].procs != s.procs {
			return nil, fmt.Errorf("benchjson: %s ran at GOMAXPROCS %d and %d; give it one -cpu value", m[1], prev[0].procs, s.procs)
		}
		sawNs := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				ns, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("benchjson: bad ns/op in %q: %v", sc.Text(), err)
				}
				s.nsPerOp = ns
				sawNs = true
			case "B/op":
				s.bytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				s.allocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			}
		}
		if !sawNs {
			continue
		}
		out[m[1]] = append(out[m[1]], s)
	}
	return out, sc.Err()
}

func summarize(samples []sample) stats {
	st := stats{Runs: len(samples), GOMAXPROCS: samples[0].procs, CPU: samples[0].cpu}
	var sum float64
	for i, s := range samples {
		sum += s.nsPerOp
		if i == 0 || s.nsPerOp < st.NsPerOp {
			st.NsPerOp = s.nsPerOp
		}
		if i == 0 || s.bytesPerOp < st.BytesPerOp {
			st.BytesPerOp = s.bytesPerOp
		}
		if i == 0 || s.allocsPerOp < st.AllocsPerOp {
			st.AllocsPerOp = s.allocsPerOp
		}
	}
	st.MeanNsPerOp = sum / float64(len(samples))
	return st
}

func run(current io.Reader, baselinePath, note string, w io.Writer) error {
	cur, err := parse(current)
	if err != nil {
		return err
	}
	if len(cur) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines on stdin")
	}
	var base map[string][]sample
	if baselinePath != "" {
		f, err := os.Open(baselinePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if base, err = parse(f); err != nil {
			return err
		}
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	out := output{Note: note}
	for _, name := range names {
		e := entry{Name: name, Current: summarize(cur[name])}
		if bs, ok := base[name]; ok {
			b := summarize(bs)
			e.Baseline = &b
			if e.Current.NsPerOp > 0 {
				e.Speedup = b.NsPerOp / e.Current.NsPerOp
			}
			if e.Current.AllocsPerOp > 0 {
				e.AllocCut = float64(b.AllocsPerOp) / float64(e.Current.AllocsPerOp)
			}
		}
		out.Benchmarks = append(out.Benchmarks, e)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func main() {
	baseline := flag.String("baseline", "", "raw `go test -bench` text from the comparison commit")
	outPath := flag.String("o", "", "output path (default stdout)")
	note := flag.String("note", "compile-path benchmarks; ns_per_op/bytes/allocs are best-of-N", "note embedded in the JSON")
	flag.Parse()

	w := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := run(os.Stdin, *baseline, *note, w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
