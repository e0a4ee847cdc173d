package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const currentText = `
goos: linux
cpu: Test CPU @ 2.00GHz
BenchmarkFocusedCompile-8     	     240	   4935294 ns/op	 2946194 B/op	   38643 allocs/op
BenchmarkFocusedCompile-8     	     243	   5566165 ns/op	 2946195 B/op	   38643 allocs/op
BenchmarkOptimizeChain3       	  649627	      1703 ns/op	     480 B/op	       5 allocs/op
some unrelated table row | 42 |
PASS
`

const baselineText = `
BenchmarkFocusedCompile     	      10	  23046968 ns/op	17931412 B/op	  216575 allocs/op
BenchmarkOptimizeChain3     	   84358	     13527 ns/op	   13440 B/op	     149 allocs/op
`

func TestRunProducesSpeedups(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.txt")
	if err := os.WriteFile(base, []byte(baselineText), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(strings.NewReader(currentText), base, "test", &buf); err != nil {
		t.Fatal(err)
	}
	var out output
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(out.Benchmarks))
	}
	fc := out.Benchmarks[0]
	if fc.Name != "FocusedCompile" || fc.Current.Runs != 2 {
		t.Fatalf("unexpected first entry %+v", fc)
	}
	// Best-of-N picks the minimum ns/op; speedup is baseline/current.
	if fc.Current.NsPerOp != 4935294 {
		t.Errorf("ns_per_op = %v, want min 4935294", fc.Current.NsPerOp)
	}
	if want := 23046968.0 / 4935294.0; math.Abs(fc.Speedup-want) > 1e-9 {
		t.Errorf("speedup = %v, want %v", fc.Speedup, want)
	}
	if want := 216575.0 / 38643.0; math.Abs(fc.AllocCut-want) > 1e-9 {
		t.Errorf("alloc_reduction = %v, want %v", fc.AllocCut, want)
	}
	// The -N suffix and the cpu: line say what the runs had to work with;
	// a line without a suffix (GOMAXPROCS=1, or a hand-kept seed) records
	// no core count.
	if fc.Current.GOMAXPROCS != 8 || fc.Current.CPU != "Test CPU @ 2.00GHz" {
		t.Errorf("current ran on %d × %q, want 8 × the cpu: line", fc.Current.GOMAXPROCS, fc.Current.CPU)
	}
	if fc.Baseline.GOMAXPROCS != 0 || fc.Baseline.CPU != "" || out.Benchmarks[1].Current.GOMAXPROCS != 0 {
		t.Errorf("suffix-less lines recorded a core count: %+v, %+v", fc.Baseline, out.Benchmarks[1].Current)
	}
	if !strings.Contains(buf.String(), `"gomaxprocs": 8`) {
		t.Errorf("gomaxprocs missing from the JSON:\n%s", buf.String())
	}
}

func TestParseRejectsMixedGOMAXPROCS(t *testing.T) {
	text := "BenchmarkFocusedCompile-2 \t 10 \t 100 ns/op\nBenchmarkFocusedCompile-8 \t 10 \t 50 ns/op\n"
	if _, err := parse(strings.NewReader(text)); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS 2 and 8") {
		t.Fatalf("one benchmark at two core counts parsed: %v", err)
	}
}

func TestParseSkipsCustomMetricColumns(t *testing.T) {
	// b.ReportMetric inserts extra "<value> <unit>" pairs (the exec
	// benchmarks report rows/s); the known columns must still parse.
	text := "BenchmarkExecJoinVector8 	      96	  11741582 ns/op	   4909145 rows/s	 5078643 B/op	     426 allocs/op\n"
	got, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	samples := got["ExecJoinVector8"]
	if len(samples) != 1 {
		t.Fatalf("parsed %d samples, want 1", len(samples))
	}
	s := samples[0]
	if s.nsPerOp != 11741582 || s.bytesPerOp != 5078643 || s.allocsPerOp != 426 {
		t.Fatalf("sample = %+v", s)
	}
}

func TestRunWithoutBaseline(t *testing.T) {
	var buf bytes.Buffer
	if err := run(strings.NewReader(currentText), "", "test", &buf); err != nil {
		t.Fatal(err)
	}
	var out output
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	for _, e := range out.Benchmarks {
		if e.Baseline != nil || e.Speedup != 0 {
			t.Fatalf("unexpected baseline data without -baseline: %+v", e)
		}
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	if err := run(strings.NewReader("no benchmarks here\n"), "", "test", &bytes.Buffer{}); err == nil {
		t.Fatal("expected an error on input without benchmark lines")
	}
}
