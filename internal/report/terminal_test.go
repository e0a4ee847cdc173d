package report

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// TestNoSimulatedRunPastTheLastContour: under the perfect model every q_a of
// the ten Table-2 spaces completes within the contours, so neither driver
// ever reaches the unbudgeted step past the last contour. That makes the
// terminal plan choice — which has no ground truth to pick by — invisible
// to every number this package reports.
func TestNoSimulatedRunPastTheLastContour(t *testing.T) {
	for _, w := range workload.All(6) {
		bq, err := core.Compile(optimizer.New(cost.NewCoster(w.Query, w.Model)), w.Space, core.CompileOptions{Lambda: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		terminal := len(bq.Contours) + 1
		for f := range w.Space.NumPoints() {
			qa := w.Space.PointAt(f)
			for driver, e := range map[string]core.Execution{"basic": bq.RunBasic(qa), "optimized": bq.RunOptimized(qa)} {
				if last := e.Steps[len(e.Steps)-1]; !e.Completed || last.Contour == terminal {
					t.Fatalf("%s %s at %v: completed %v, last step %+v on contour %d of %d",
						w.Name, driver, qa, e.Completed, last, last.Contour, len(bq.Contours))
				}
			}
		}
	}
}
