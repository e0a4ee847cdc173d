package dimreduce

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/query"
)

// fixture builds a 3-D query where one dimension is deliberately marginal:
// the region selection is a low-uncertainty predicate whose ESS range spans
// only [0.9, 1.0] (the paper's "no uncertainty to low uncertainty"
// classification of [17]), so its worst-case cost swing is a few percent,
// while the join dimensions sweep three decades each.
func fixture(t testing.TB) (*optimizer.Optimizer, *ess.Space) {
	t.Helper()
	cat := catalog.TPCHLike(0.1)
	q := query.NewBuilder("dimq", cat).
		Relation("region").Relation("nation").Relation("customer").Relation("orders").
		SelectionPred("region", "r_name", 0.95, true). // marginal: narrow range
		JoinPred("region", "r_regionkey", "nation", "n_regionkey", query.PKFKSel(cat, "region"), false).
		JoinPred("nation", "n_nationkey", "customer", "c_nationkey", query.PKFKSel(cat, "nation"), true).
		JoinPred("customer", "c_custkey", "orders", "o_custkey", query.PKFKSel(cat, "customer"), true).
		MustBuild()
	dims := make([]ess.Dim, q.Dims())
	for d, predID := range q.ErrorDims() {
		hi := query.MaxLegalSel(q.Catalog, q.Predicate(predID))
		dims[d] = ess.Dim{PredID: predID, Lo: hi * 1e-3, Hi: hi, Res: 6}
	}
	dims[0].Lo = 0.9 // low-uncertainty selection: narrow band
	dims[0].Hi = 1.0
	space, err := ess.NewSpaceWithDims(q, dims)
	if err != nil {
		t.Fatal(err)
	}
	return optimizer.New(cost.NewCoster(q, cost.Postgres())), space
}

func TestSensitivitiesSeparateMarginalDim(t *testing.T) {
	opt, space := fixture(t)
	sens, err := Sensitivities(opt, space, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) != 3 {
		t.Fatalf("got %d sensitivities", len(sens))
	}
	// Dimension 0 (region selection) must be far less impactful than
	// the join dimensions.
	if !(sens[0].MaxRatio < sens[1].MaxRatio && sens[0].MaxRatio < sens[2].MaxRatio) {
		t.Fatalf("marginal dim not separated: %+v", sens)
	}
	for _, s := range sens {
		if s.MaxRatio < 1 {
			t.Fatalf("ratio below 1 violates PCM: %+v", s)
		}
	}
}

func TestPartition(t *testing.T) {
	sens := []Sensitivity{
		{Dim: 0, MaxRatio: 1.05},
		{Dim: 1, MaxRatio: 40},
		{Dim: 2, MaxRatio: 3},
	}
	keep, drop := Partition(sens, 0.5)
	if len(keep) != 2 || keep[0] != 1 || keep[1] != 2 {
		t.Fatalf("keep = %v", keep)
	}
	if len(drop) != 1 || drop[0] != 0 {
		t.Fatalf("drop = %v", drop)
	}
}

func TestSensitivitiesResolutionValidation(t *testing.T) {
	opt, space := fixture(t)
	if _, err := Sensitivities(opt, space, 1); err == nil {
		t.Error("res 1 should fail")
	}
}
