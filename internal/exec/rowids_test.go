package exec

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
)

// TestRowIDsStayIdentity runs every fixture plan on both engines, at one
// worker and at eight, over a budget sweep, with reuse off and warm, with
// and without collected rows, and then checks that every key column and
// key-column index is still the identity. Key columns and their indexes
// alias one process-wide row-id vector, so an operator that wrote into a
// table vector would corrupt every key column in the process, not one
// table. The vector is handed out with capacity clipped, so a run can
// reach only the prefix its tables hold: checking every key column of the
// tables the runs read covers every element they could have written.
func TestRowIDsStayIdentity(t *testing.T) {
	for _, scale := range []int64{1, 8} {
		fx := newFixtureScaled(t, scale)
		for cfg, base := range engineConfigs() {
			for name, p := range fx.plans {
				full := fx.eng.MustRun(p, base)
				cache := NewReuseCache()
				runCollected(t, fx.eng, p, withReuse(base, cache)) // warm every entry
				for _, frac := range []float64{0.05, 0.3, 0.6, 0.95, 1} {
					opts := base
					opts.Budget = full.CostUsed * cost.Cost(frac)
					fx.eng.MustRun(p, opts)
					fx.eng.MustRun(p, withReuse(opts, cache))
					runCollected(t, fx.eng, p, withReuse(opts, cache))
				}
				if err := keysAreIdentity(fx); err != nil {
					t.Fatalf("scale %d, %s/%s: %v", scale, cfg, name, err)
				}
			}
		}
	}
}

// keysAreIdentity reports the first key column, or key-column index, of
// the fixture's database that no longer holds the row ids 0…n-1.
func keysAreIdentity(fx *fixture) error {
	for _, rel := range fx.q.Catalog.Relations() {
		tbl := fx.db.Table(rel.Name)
		for _, col := range rel.Columns {
			if col.Type != catalog.TypeKey {
				continue
			}
			vals, ix := tbl.Column(col.Name), tbl.Index(col.Name)
			if len(vals) != tbl.NumRows() || len(ix.Order()) != tbl.NumRows() {
				return fmt.Errorf("%s.%s: %d values, %d index entries for %d rows",
					rel.Name, col.Name, len(vals), len(ix.Order()), tbl.NumRows())
			}
			for i, v := range vals {
				if rows := ix.Rows(int64(i)); v != int32(i) || ix.Order()[i] != int32(i) ||
					len(rows) != 1 || rows[0] != int32(i) {
					return fmt.Errorf("%s.%s: row %d reads %d, order %d, Rows %v",
						rel.Name, col.Name, i, v, ix.Order()[i], rows)
				}
			}
		}
	}
	return nil
}
