package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// inRepoRoot runs the rest of the test from the repository root, where
// the benchmark is meant to be started (testdata/corpus is found from
// there).
func inRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSmokeLadder runs all five workloads, both passes, at tiny sizes:
// every oracle is exercised, every metric is printed, and every trace
// file is written with the env stamp. No timing is asserted.
func TestSmokeLadder(t *testing.T) {
	inRepoRoot(t)
	if loadGolden() == nil {
		t.Error("the golden corpus baselines did not load; the golden oracle would be skipped")
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-allow-1cpu", "-seed", "5", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke ladder exited %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	text := stdout.String()
	for _, want := range []string{"nproc=", "GOMAXPROCS=", "cpu=", "go=go", "commit=", "seed=5"} {
		if !strings.Contains(text, want) {
			t.Errorf("env stamp lacks %q", want)
		}
	}
	for _, d := range endToEndDefs {
		if !strings.Contains(text, "  "+d.name+" ") {
			t.Errorf("end-to-end metric %s was never printed", d.name)
		}
	}
	if strings.Contains(text, "FAILED") || strings.Contains(text, "PROBLEM") {
		t.Errorf("smoke ladder reported failures:\n%s", text)
	}

	exercised := map[string]bool{}
	for _, name := range workloadNames {
		data, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Env     envStamp    `json:"env"`
			Traced  bool        `json:"traced"`
			Failed  int         `json:"failed"`
			Metrics []metric    `json:"metrics"`
			Layers  []layerStat `json:"layers"`
			Spans   []span      `json:"spans"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !doc.Traced || doc.Failed != 0 || len(doc.Layers) == 0 || len(doc.Spans) == 0 {
			t.Errorf("%s: traced=%t failed=%d layers=%d spans=%d", name, doc.Traced, doc.Failed, len(doc.Layers), len(doc.Spans))
		}
		if doc.Env.Seed != 5 || doc.Env.GoVersion == "" || doc.Env.NProc == 0 || doc.Env.GOMAXPROCS == 0 {
			t.Errorf("%s: env stamp incomplete: %+v", name, doc.Env)
		}
		if len(doc.Metrics) != len(perLayerDefs) {
			t.Errorf("%s: %d per-layer metrics, want all %d", name, len(doc.Metrics), len(perLayerDefs))
		}
		for i, m := range doc.Metrics {
			if i < len(perLayerDefs) && m.Name != perLayerDefs[i].name {
				t.Errorf("%s: metric %d is %s, want %s", name, i, m.Name, perLayerDefs[i].name)
			}
			if m.Value != 0 {
				exercised[m.Name] = true
			}
		}
	}
	// Counters that are legitimately 0 on a healthy tiny run.
	mayBeZero := map[string]bool{"server.http_errors": true, "server.cache_evictions": true, "core.step_seq_mismatch": true}
	for _, d := range perLayerDefs {
		if !exercised[d.name] && !mayBeZero[d.name] {
			t.Errorf("per-layer metric %s is 0 on every workload: no workload exercises it", d.name)
		}
	}
}

// TestDriverLine checks the one-line JSON result the PR driver reads.
func TestDriverLine(t *testing.T) {
	inRepoRoot(t)
	for _, c := range []struct {
		trace string
		want  []string
	}{
		{"0", contractEndToEnd},
		{"1", perLayerNames()},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "corpus_compile", "--seed", "9", "--seconds", "1", "--trace", c.trace, "-smoke", "-allow-1cpu", "-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("trace %s: bad header in %s", c.trace, lines[len(lines)-1])
		}
		if len(got.Metrics) != len(c.want) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(got.Metrics), len(c.want))
		}
		for _, name := range c.want {
			if m, ok := got.Metrics[name]; !ok || m.Value == nil || m.Unit == "" {
				t.Errorf("trace %s: metric %s missing or incomplete", c.trace, name)
			}
		}
		if c.trace == "0" {
			for _, name := range c.want {
				if *got.Metrics[name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0; the driver divides by it", name)
				}
			}
		}
	}
}

func perLayerNames() []string {
	out := make([]string, len(perLayerDefs))
	for i, d := range perLayerDefs {
		out[i] = d.name
	}
	return out
}

func TestRefusesOneCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-workload", "paper_grid"}, &stdout, &stderr); code == 0 {
		t.Error("ran with GOMAXPROCS=1 and no -allow-1cpu")
	}
	if !strings.Contains(stderr.String(), "-allow-1cpu") {
		t.Errorf("the refusal does not name the override: %s", stderr.String())
	}
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("accepted an unknown workload")
	}
}

// TestBenchmarkJSONMatchesTheHarness keeps BENCHMARK.json and the
// harness's own metric tables from drifting apart.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run ./benchmark" || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, harness has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	if len(doc.EndToEnd) != len(contractEndToEnd) {
		t.Fatalf("%d end-to-end metrics, harness reports %d on every workload", len(doc.EndToEnd), len(contractEndToEnd))
	}
	hasSetup := false
	for i, m := range doc.EndToEnd {
		d, ok := endToEndDef(m.Name)
		if !ok || m.Name != contractEndToEnd[i] || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v, harness has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g out of (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s (s, lower) among the end-to-end metrics")
	}
	if len(doc.PerLayer) != len(perLayerDefs) || len(doc.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, harness has %d", len(doc.PerLayer), len(perLayerDefs))
	}
	for i, m := range doc.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v, harness has %+v", i, m, d)
		}
	}
}

func TestAAFlag(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
	}{{"true", 3}, {"5", 5}} {
		var a aaFlag
		if err := a.Set(c.in); err != nil || int(a) != c.want {
			t.Errorf("Set(%q) = %d, %v; want %d", c.in, a, err, c.want)
		}
	}
	var a aaFlag
	if a.Set("1") == nil || a.Set("x") == nil {
		t.Error("accepted a repetition count that cannot show a spread")
	}
}
