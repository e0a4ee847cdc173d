package registry

import (
	"regexp"
	"sort"
	"testing"
)

// TestSuiteShape pins the suite's contract: every analyzer is fully
// populated, names are unique lowercase identifiers, and the slice is
// in name order so diagnostics and -timing tables are stable without
// callers re-sorting.
func TestSuiteShape(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("suite has %d analyzers, want 8 (update this count and the docs together)", len(all))
	}
	nameRE := regexp.MustCompile(`^[a-z]+$`)
	seen := map[string]bool{}
	names := make([]string, 0, len(all))
	for _, az := range all {
		if az == nil {
			t.Fatal("nil analyzer in suite")
		}
		if !nameRE.MatchString(az.Name) {
			t.Errorf("analyzer name %q is not a lowercase identifier", az.Name)
		}
		if az.Doc == "" {
			t.Errorf("analyzer %s has no Doc", az.Name)
		}
		if az.Run == nil {
			t.Errorf("analyzer %s has no Run", az.Name)
		}
		if seen[az.Name] {
			t.Errorf("duplicate analyzer name %q", az.Name)
		}
		seen[az.Name] = true
		names = append(names, az.Name)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("suite not in name order: %v", names)
	}
}

// TestSuiteDeterministic pins that repeated calls return the same
// analyzers in the same order — drivers build caches and output keyed
// by position.
func TestSuiteDeterministic(t *testing.T) {
	first, second := All(), All()
	if len(first) != len(second) {
		t.Fatalf("All() length varies: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("All()[%d] differs across calls: %s vs %s", i, first[i].Name, second[i].Name)
		}
	}
}
