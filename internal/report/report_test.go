package report

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/workload"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Caption: "cap",
		Header:  []string{"a", "bee"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("x", 3.14159)
	tbl.AddRow(42, 1e9)
	out := tbl.String()
	for _, want := range []string{"cap", "a", "bee", "x", "3.14", "42", "1e+09", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.50",
		123:     "123",
		1e6:     "1e+06",
		0.00005: "5e-05",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%g) = %s, want %s", v, got, want)
		}
	}
}

// TestAddRowRoundsEveryFloatKind pins that unit-typed cells round like
// float64 ones: Table 1's MSO bounds and Fig. 14's bound column are
// cost.Ratio, and once printed unrounded (27.4921875).
func TestAddRowRoundsEveryFloatKind(t *testing.T) {
	type celsius float32
	cases := []struct {
		cell interface{}
		want string
	}{
		{cost.Ratio(27.4921875), "27.49"},
		{cost.Ratio(14.399999999999999), "14.40"},
		{cost.Ratio(0), "0"},
		{cost.Cost(123456789), "1.23e+08"},
		{cost.Cost(250.4), "250"},
		{cost.Sel(0.00005), "5e-05"},
		{float32(1.1), "1.10"},
		{celsius(3.75), "3.75"},
		{2.5, "2.50"},
		{7, "7"},
		{"x", "x"},
	}
	for _, c := range cases {
		tbl := &Table{}
		tbl.AddRow(c.cell)
		if got := tbl.Rows[0][0]; got != c.want {
			t.Errorf("AddRow(%T(%v)) = %q, want %q", c.cell, c.cell, got, c.want)
		}
	}
}

// TestEvaluateSmall runs the full evaluation pipeline on one workload at a
// tiny resolution and sanity-checks the paper's qualitative claims.
func TestEvaluateSmall(t *testing.T) {
	w := workload.HQ5(6)
	ev, err := Evaluate(w, Options{Lambda: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 14's ordering: BOU's worst case beats NAT's by a wide
	// margin; SEER stays in NAT's regime.
	if !(ev.Basic.MSO < ev.Nat.MSO) {
		t.Errorf("BOU MSO %g not below NAT %g", ev.Basic.MSO, ev.Nat.MSO)
	}
	if ev.Basic.MSO > ev.Bouquet.BoundMSO().F()*(1+1e-9) {
		t.Errorf("BOU MSO %g above its Eq. 8 bound %g", ev.Basic.MSO, ev.Bouquet.BoundMSO())
	}
	if ev.Seer.MSO > ev.Nat.MSO*(1+0.2)*(1+1e-9) {
		t.Errorf("SEER MSO %g above NAT·(1+λ) %g", ev.Seer.MSO, ev.Nat.MSO*1.2)
	}
	// Figure 18's ordering: POSP ≥ SEER ≥ ~BOU.
	if ev.POSPSize < ev.Seer.PlanCardinality {
		t.Errorf("SEER kept more plans (%d) than POSP has (%d)", ev.Seer.PlanCardinality, ev.POSPSize)
	}
	if ev.Bouquet.Cardinality() > ev.POSPSize {
		t.Errorf("bouquet larger than POSP")
	}
	// MaxHarm bounded by MSO - 1 (§2).
	if ev.MH > ev.Basic.MSO-1+1e-9 {
		t.Errorf("MH %g above MSO-1", ev.MH)
	}
	if ev.HarmFrac < 0 || ev.HarmFrac > 1 {
		t.Errorf("harm fraction %g", ev.HarmFrac)
	}
	// Distribution fractions sum to 1.
	var sum float64
	for _, b := range ev.Improvement {
		sum += b.Frac
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("improvement buckets sum to %g", sum)
	}
}

func TestEvaluateSkipOptimized(t *testing.T) {
	w := workload.DSQ96(4)
	ev, err := Evaluate(w, Options{Lambda: 0.2, SkipOptimized: true})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Optimized.SubOptPerQa != nil {
		t.Fatal("optimized sweep ran despite SkipOptimized")
	}
	// The figure renderers handle the missing column.
	f14 := Figure14([]*Eval{ev})
	if !strings.Contains(f14.String(), "-") {
		t.Error("Figure14 should render '-' for skipped optimized driver")
	}
}

func TestTableRunnersRender(t *testing.T) {
	w := workload.DSQ96(4)
	ev, err := Evaluate(w, Options{Lambda: 0.2, SkipOptimized: true})
	if err != nil {
		t.Fatal(err)
	}
	evals := []*Eval{ev}
	for name, tbl := range map[string]*Table{
		"table1": Table1(evals),
		"table2": Table2(evals),
		"fig14":  Figure14(evals),
		"fig15":  Figure15(evals),
		"fig16":  Figure16(ev),
		"fig17":  Figure17(evals),
		"fig18":  Figure18(evals),
	} {
		out := tbl.String()
		if !strings.Contains(out, w.Name) && name != "fig16" {
			t.Errorf("%s: missing workload name:\n%s", name, out)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", name)
		}
	}
}

func TestFigure3And4(t *testing.T) {
	f3, err := Figure3(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Rows) < 5 {
		t.Fatalf("Figure 3 has %d IC steps", len(f3.Rows))
	}
	series, summary, err := Figure4(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Rows) == 0 || len(summary.Rows) != 3 {
		t.Fatalf("Figure 4: %d series rows, %d summary rows", len(series.Rows), len(summary.Rows))
	}
}

func TestTable3Runs(t *testing.T) {
	breakdown, summary, err := Table3(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(breakdown.Rows) == 0 || len(summary.Rows) != 4 {
		t.Fatalf("Table 3: %d breakdown rows, %d summary rows", len(breakdown.Rows), len(summary.Rows))
	}
	out := summary.String()
	for _, want := range []string{"NAT", "Basic BOU", "Opt. BOU", "Optimal"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 summary missing %q", want)
		}
	}
}

func TestModelingErrorTable(t *testing.T) {
	tbl, err := ModelingError(workload.EQ(20), 0.4, []uint64{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("modeling-error guarantee violated: %v", row)
		}
	}
}

func TestCompileOverheadsSmall(t *testing.T) {
	tbl, err := CompileOverheads(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 workloads", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("focused band failed to cover contours: %v", row)
		}
	}
}

func TestAblationLambda(t *testing.T) {
	w := workload.DSQ96(5)
	tbl, err := AblationLambda(w, []float64{-1, 0, 0.2, 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAblationResolution(t *testing.T) {
	tbl, err := AblationResolution("3D_DS_Q96", []int{4, 6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAblationRatio(t *testing.T) {
	w := workload.EQ(30)
	tbl, err := AblationRatio(w, []float64{1.5, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestFocusedScalingSavingsGrow(t *testing.T) {
	tbl, err := FocusedScaling([]int{10, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Savings at res 40 must exceed savings at res 10: the contour band
	// is a lower-dimensional surface.
	var s10, s40 float64
	fmt.Sscanf(tbl.Rows[0][3], "%fx", &s10)
	fmt.Sscanf(tbl.Rows[1][3], "%fx", &s40)
	if s40 <= s10 {
		t.Fatalf("savings did not grow with resolution: %g then %g", s10, s40)
	}
}

func TestVerdict(t *testing.T) {
	w := workload.HQ5(6)
	ev, err := Evaluate(w, Options{Lambda: 0.2, SkipOptimized: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl := Verdict([]*Eval{ev})
	if len(tbl.Rows) < 7 {
		t.Fatalf("verdict has %d rows", len(tbl.Rows))
	}
	// On a genuine evaluation the guarantee rows must hold.
	for _, row := range tbl.Rows {
		if strings.Contains(row[0], "Eq. 8 guarantee") && row[len(row)-1] != "true" {
			t.Fatalf("guarantee verdict failed: %v", row)
		}
	}
	// Failed names exactly the rows that do not hold.
	tbl.Rows[1][len(tbl.Rows[1])-1] = "false"
	var want []string
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			want = append(want, row[0])
		}
	}
	if got := Failed(tbl); len(got) == 0 || strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("Failed = %q, want %q", got, want)
	}
}
