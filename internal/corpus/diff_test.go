package corpus

import (
	"strings"
	"testing"
)

// sampleBaselines compiles a small deterministic corpus once per test run.
func sampleBaselines(t *testing.T, n int) []Baseline {
	t.Helper()
	out, err := Generate(Config{Seed: testSeed, Count: n}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDiffIdenticalIsClean(t *testing.T) {
	base := sampleBaselines(t, 6)
	if drifts := Diff(base, base); len(drifts) != 0 {
		t.Fatalf("identical corpora drifted: %v", drifts)
	}
}

// perturb deep-copies baselines and applies f to the baseline with the
// given index.
func perturb(t *testing.T, base []Baseline, i int, f func(*Baseline)) []Baseline {
	t.Helper()
	out := make([]Baseline, len(base))
	copy(out, base)
	b := out[i]
	b.Contours = append([]ContourBaseline(nil), base[i].Contours...)
	for j := range b.Contours {
		b.Contours[j].Plans = append([]string(nil), base[i].Contours[j].Plans...)
	}
	b.Runs = append([]RunBaseline(nil), base[i].Runs...)
	f(&b)
	out[i] = b
	return out
}

// expectClass diffs golden against candidate and asserts exactly one drift
// of the wanted class on the wanted query.
func expectClass(t *testing.T, golden, candidate []Baseline, id string, class DriftClass) Drift {
	t.Helper()
	drifts := Diff(golden, candidate)
	if len(drifts) != 1 {
		t.Fatalf("want exactly 1 drift, got %d: %v", len(drifts), drifts)
	}
	if drifts[0].ID != id || drifts[0].Class != class {
		t.Fatalf("want %s:[%s], got %v", id, class, drifts[0])
	}
	return drifts[0]
}

func TestDiffClassifiesPlanShape(t *testing.T) {
	base := sampleBaselines(t, 3)
	cand := perturb(t, base, 1, func(b *Baseline) {
		b.Contours[0].Plans[0] = "HJ(perturbed," + b.Contours[0].Plans[0] + ")"
	})
	d := expectClass(t, base, cand, base[1].ID, ClassPlanShape)
	if !strings.Contains(d.Detail, "plan set changed") {
		t.Errorf("detail should name the contour plan set: %q", d.Detail)
	}
}

// TestDiffClassifiesRunProfile: a sampled run taking one step fewer is
// run-time policy drift, not a plan-shape change, and it outranks the MSO
// and cost changes that come with it.
func TestDiffClassifiesRunProfile(t *testing.T) {
	base := sampleBaselines(t, 3)
	cand := perturb(t, base, 1, func(b *Baseline) {
		b.Runs[0].Steps--
		b.Runs[0].Execs--
		b.Runs[0].TotalCost *= 0.9
		b.MSO *= 1.5
	})
	d := expectClass(t, base, cand, base[1].ID, ClassRunProfile)
	if !strings.Contains(d.Detail, "step profile") {
		t.Errorf("detail should name the step profile: %q", d.Detail)
	}

	cand = perturb(t, base, 1, func(b *Baseline) {
		b.Runs[0].Steps--
		b.Contours[0].Plans[0] = "perturbed"
	})
	expectClass(t, base, cand, base[1].ID, ClassPlanShape)
}

func TestDiffClassifiesCostOnly(t *testing.T) {
	base := sampleBaselines(t, 3)
	cand := perturb(t, base, 2, func(b *Baseline) {
		b.Contours[0].Budget *= 1.05
	})
	expectClass(t, base, cand, base[2].ID, ClassCostOnly)
}

func TestDiffClassifiesMSORegression(t *testing.T) {
	base := sampleBaselines(t, 3)
	cand := perturb(t, base, 0, func(b *Baseline) { b.MSO *= 1.5 })
	expectClass(t, base, cand, base[0].ID, ClassMSORegression)

	cand = perturb(t, base, 0, func(b *Baseline) { b.MSO *= 0.8 })
	expectClass(t, base, cand, base[0].ID, ClassMSOImprovement)
}

func TestDiffClassifiesContourCount(t *testing.T) {
	base := sampleBaselines(t, 3)
	cand := perturb(t, base, 1, func(b *Baseline) {
		b.Contours = b.Contours[:len(b.Contours)-1]
	})
	expectClass(t, base, cand, base[1].ID, ClassContourCount)
}

func TestDiffClassifiesMeta(t *testing.T) {
	base := sampleBaselines(t, 3)
	cand := perturb(t, base, 0, func(b *Baseline) { b.SQL += "\n  AND r0.r0_a < sel(0.5)" })
	expectClass(t, base, cand, base[0].ID, ClassMeta)
}

func TestDiffClassifiesLostAndNewQueries(t *testing.T) {
	base := sampleBaselines(t, 3)
	drifts := Diff(base, base[:2])
	if len(drifts) != 1 || drifts[0].Class != ClassLostQuery {
		t.Fatalf("dropping a query should yield one lost-query drift, got %v", drifts)
	}
	drifts = Diff(base[:2], base)
	if len(drifts) != 1 || drifts[0].Class != ClassNewQuery {
		t.Fatalf("adding a query should yield one new-query drift, got %v", drifts)
	}
}

// TestDiffSeverityOrder pins that a query with several kinds of drift
// reports the most severe class: a plan-shape change plus a cost change
// must classify as plan-shape, not cost-only.
func TestDiffSeverityOrder(t *testing.T) {
	base := sampleBaselines(t, 2)
	cand := perturb(t, base, 0, func(b *Baseline) {
		b.Contours[0].Plans[0] = "perturbed"
		b.Contours[0].Budget *= 2
		b.MSO *= 2
	})
	expectClass(t, base, cand, base[0].ID, ClassPlanShape)
}

func TestReportLineFormat(t *testing.T) {
	drift := Drift{ID: "q0031", Class: ClassPlanShape, Detail: "contour 2 plan set changed"}
	got := Report("testdata/corpus", []Drift{drift})
	want := "testdata/corpus/shard-001.json: q0031: [plan-shape] contour 2 plan set changed\n"
	if got != want {
		t.Fatalf("report line %q, want %q", got, want)
	}
	if got := Report("", []Drift{drift}); !strings.HasPrefix(got, "shard-001.json: ") {
		t.Fatalf("bare report line %q", got)
	}
}
