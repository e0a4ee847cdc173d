package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSARIFMode pins the code-scanning contract end to end: -sarif on a
// fixture with known findings exits 0, emits valid SARIF 2.1.0, indexes
// every result into the rule table, and uses repository-relative
// forward-slash paths.
func TestSARIFMode(t *testing.T) {
	bin := buildVet(t)
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module vetfixture\n\ngo 1.22\n")
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "sub", "a.go"), `package a

func equal(x, y float64) bool {
	return x == y
}

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)
	cmd := exec.Command(bin, "-sarif", "./...")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("-sarif must exit 0 even with findings: %v\nstderr:\n%s", err, stderr.String())
	}

	var log sarifLog
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "bouquetvet" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Results) == 0 {
		t.Fatal("fixture produced no results")
	}
	seen := map[string]bool{}
	for _, r := range run.Results {
		seen[r.RuleID] = true
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Errorf("result %q has out-of-table ruleIndex %d", r.RuleID, r.RuleIndex)
		} else if got := run.Tool.Driver.Rules[r.RuleIndex].ID; got != r.RuleID {
			t.Errorf("ruleIndex %d resolves to %q, want %q", r.RuleIndex, got, r.RuleID)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result %q has %d locations", r.RuleID, len(r.Locations))
		}
		uri := r.Locations[0].PhysicalLocation.ArtifactLocation.URI
		if strings.Contains(uri, "\\") || filepath.IsAbs(uri) || strings.HasPrefix(uri, "..") {
			t.Errorf("URI %q is not a relative forward-slash path", uri)
		}
		if uri != "sub/a.go" {
			t.Errorf("URI = %q, want sub/a.go", uri)
		}
		if r.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Errorf("result %q has no startLine", r.RuleID)
		}
	}
	for _, want := range []string{"floatcmp", "maporder"} {
		if !seen[want] {
			t.Errorf("no %s result (rules seen: %v)", want, seen)
		}
	}
}

// TestSARIFRuleTable pins that the rule table covers the whole suite
// plus the framework's allowformat reporter, with unique ids.
func TestSARIFRuleTable(t *testing.T) {
	rules, index := sarifRules()
	if len(rules) != len(index) {
		t.Fatalf("duplicate rule ids: %d rules, %d distinct", len(rules), len(index))
	}
	if _, ok := index["allowformat"]; !ok {
		t.Error("rule table missing allowformat")
	}
	for _, want := range []string{"atomicmix", "maporder", "floatcmp"} {
		if _, ok := index[want]; !ok {
			t.Errorf("rule table missing %s", want)
		}
	}
	for _, r := range rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no short description", r.ID)
		}
	}
}

// TestTimingInfraRow pins the -timing table shape: the shared
// infrastructure cost is reported on its own "(infra)" row so analyzer
// rows measure only their own work, and the table ends with a total.
func TestTimingInfraRow(t *testing.T) {
	bin := buildVet(t)
	cmd := exec.Command(bin, "-timing", "./internal/floats")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("-timing failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "(infra)") {
		t.Errorf("-timing output missing the (infra) row:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "total") || !strings.Contains(last, "packages)") {
		t.Errorf("-timing output does not end with the total row: %q", last)
	}
}
