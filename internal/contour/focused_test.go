package contour_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/anorexic"
	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/posp"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// focusCase is one error space the differential test generates over.
type focusCase struct {
	name  string
	q     *query.Query
	model cost.Model
	space *ess.Space
}

// focusCases returns the ten Table-2 spaces at their default resolutions
// (or at res 6 under -short) and an evenly spaced 40-query sample of the
// checked-in corpus (testdata/corpus), first query to last, which spans 2–6
// dimensions and both cost models.
func focusCases(t *testing.T) []focusCase {
	t.Helper()
	res := 0
	if testing.Short() {
		res = 6
	}
	var out []focusCase
	for _, w := range workload.All(res) {
		out = append(out, focusCase{w.Name, w.Query, cost.Postgres(), w.Space})
	}
	const corpusSeed, corpusCount, sample = 20140622, 500, 40 // testdata/corpus/manifest.json
	dims, models := map[int]bool{}, map[string]bool{}
	for s := 0; s < sample; s++ {
		// Not corpus.SampleIndices: its stride of 12.5 meets only two of
		// the five dimensionalities, which cycle with the index.
		spec := corpus.GenerateSpec(corpusSeed, s*(corpusCount-1)/(sample-1))
		q, err := sqlparse.Parse(spec.ID, spec.Catalog, spec.SQL)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		space, err := ess.NewSpace(q, []int{spec.Res})
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		model := cost.Postgres()
		if spec.Model == "commercial" {
			model = cost.Commercial()
		}
		dims[spec.Dims], models[spec.Model] = true, true
		out = append(out, focusCase{fmt.Sprintf("%s/%dD/%s", spec.ID, spec.Dims, spec.Model), q, model, space})
	}
	if len(dims) < 5 || len(models) < 2 {
		t.Fatalf("corpus sample spans dims %v and models %v; want 2–6 dimensions and both models", dims, models)
	}
	return out
}

// sameDiagram fails unless got equals want at every location and plan ID.
func sameDiagram(t *testing.T, got, want *posp.Diagram) {
	t.Helper()
	for flat := 0; flat < want.Space().NumPoints(); flat++ {
		if got.Covered(flat) != want.Covered(flat) || got.PlanID(flat) != want.PlanID(flat) {
			t.Fatalf("location %d: covered %t plan %d, serial has covered %t plan %d",
				flat, got.Covered(flat), got.PlanID(flat), want.Covered(flat), want.PlanID(flat))
		}
		if want.Covered(flat) && got.Cost(flat) != want.Cost(flat) {
			t.Fatalf("location %d: cost %v, serial has %v", flat, got.Cost(flat), want.Cost(flat))
		}
	}
	if got.NumPlans() != want.NumPlans() {
		t.Fatalf("%d plans, serial has %d", got.NumPlans(), want.NumPlans())
	}
	for id, p := range want.Plans() {
		if got.Plan(id).Fingerprint() != p.Fingerprint() {
			t.Fatalf("plan %d is %s, serial has %s", id, got.Plan(id).Fingerprint(), p.Fingerprint())
		}
	}
}

// TestFocusedParallelMatchesSerial is the differential gate on the
// level-synchronous generator: at every worker count it must return the
// serial recursion's diagram bit for bit — coverage, plan numbering, costs,
// optimizer calls — and core.Compile on top of it the same bouquet.
func TestFocusedParallelMatchesSerial(t *testing.T) {
	for _, c := range focusCases(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			opt := optimizer.New(cost.NewCoster(c.q, c.model))
			ladder, err := contour.LadderForSpace(opt, c.space, 2)
			if err != nil {
				t.Fatal(err)
			}
			serial, serialStats := contour.FocusedSerial(opt, c.space, ladder)
			ref, err := core.Compile(opt, c.space, core.CompileOptions{Lambda: anorexic.DefaultLambda, Diagram: serial})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.Ladder, ladder) {
				t.Fatalf("reference bouquet climbs %v, the focused ladder is %v", ref.Ladder, ladder)
			}

			for _, workers := range []int{1, 2, 8} {
				opt.ResetCalls()
				d, stats, err := contour.FocusedContext(context.Background(), opt, c.space, ladder, workers)
				if err != nil {
					t.Fatal(err)
				}
				if stats != serialStats || opt.Calls() != int64(stats.OptimizerCalls) {
					t.Fatalf("workers=%d: stats %+v after %d optimizer calls, serial has %+v", workers, stats, opt.Calls(), serialStats)
				}
				sameDiagram(t, d, serial)

				b, err := core.Compile(opt, c.space, core.CompileOptions{Lambda: anorexic.DefaultLambda, Focused: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				sameDiagram(t, b.Diagram, serial)
				if !reflect.DeepEqual(b.Contours, ref.Contours) || !reflect.DeepEqual(b.PlanIDs, ref.PlanIDs) {
					t.Fatalf("workers=%d: compiled contours or plan set differ from the serial diagram's", workers)
				}
				if b.BoundMSO() != ref.BoundMSO() {
					t.Fatalf("workers=%d: BoundMSO %v, serial diagram gives %v", workers, b.BoundMSO(), ref.BoundMSO())
				}
			}
		})
	}
}
