package data

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// allocated returns the bytes f allocates, as the median of 7 runs, so a
// stray allocation elsewhere in the process does not decide the result.
func allocated(f func(run int)) float64 {
	runs := make([]float64, 7)
	var before, after runtime.MemStats
	for i := range runs {
		runtime.ReadMemStats(&before)
		f(i)
		runtime.ReadMemStats(&after)
		runs[i] = float64(after.TotalAlloc - before.TotalAlloc)
	}
	slices.Sort(runs)
	return runs[len(runs)/2]
}

// TestColumnBytesPerRow pins the storage of a generated column: a non-key
// column costs 4 B per row (an int32 vector), and a key column and its
// index allocate no per-row storage of their own, because both alias the
// one shared int32 identity vector.
func TestColumnBytesPerRow(t *testing.T) {
	const n = 100_000
	c := catalog.NewCatalog()
	c.AddRelation(&catalog.Relation{
		Name: "t", Card: n, TupleWidth: 16,
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.TypeKey, DistinctCount: n},
			{Name: "v", Type: catalog.TypeInt, DistinctCount: 1000},
		},
	})
	rowIDs(n) // grow the shared vector outside the measurement
	// Each run reads a fresh table: another seed is another table.
	nonKey := allocated(func(run int) { Generate(c, nil, nil, int64(1+run)).Table("t").Column("v") }) / n
	if nonKey < 4 || nonKey > 4.25 {
		t.Errorf("a non-key column allocates %.2f B/row, want 4", nonKey)
	}
	key := allocated(func(run int) {
		tbl := Generate(c, nil, nil, int64(100+run)).Table("t")
		tbl.Column("id")
		tbl.Index("id")
	}) / n
	if key > 0.05 {
		t.Errorf("a key column and its index allocate %.3f B/row, want no per-row storage", key)
	}
}

// TestGenerateRejectsOverflow checks that Generate panics, before it makes
// any table, on a relation or a column whose values an int32 vector
// cannot hold, and that Check names the same fault without panicking.
// The limits themselves pass Check.
func TestGenerateRejectsOverflow(t *testing.T) {
	const over = math.MaxInt32 + 1
	rel := func(card, fkDistinct, intDistinct int64) *catalog.Catalog {
		c := catalog.NewCatalog()
		c.AddRelation(&catalog.Relation{
			Name: "big", Card: card, TupleWidth: 16,
			Columns: []catalog.Column{
				{Name: "id", Type: catalog.TypeKey, DistinctCount: card},
				{Name: "ref", Type: catalog.TypeForeignKey, DistinctCount: fkDistinct},
				{Name: "v", Type: catalog.TypeInt, DistinctCount: intDistinct},
			},
		})
		return c
	}
	cases := []struct {
		name  string
		cat   *catalog.Catalog
		specs map[string]Spec
		want  string // in the error; empty when Check must pass
	}{
		{name: "rows", cat: rel(over, 10, 10), want: "relation big has 2147483648 rows"},
		{name: "fk distinct", cat: rel(100, over, 10), want: "column big.ref"},
		{name: "int distinct", cat: rel(100, 10, over), want: "column big.v"},
		{name: "domain override", cat: rel(100, 10, 10),
			specs: map[string]Spec{"big": {Domain: map[string]int64{"v": over}}}, want: "column big.v"},
		// An override replaces the DistinctCount, in either direction.
		{name: "override below", cat: rel(100, 10, over),
			specs: map[string]Spec{"big": {Domain: map[string]int64{"v": 10}}}},
		{name: "limits", cat: rel(math.MaxInt32, math.MaxInt32, math.MaxInt32)},
	}
	for _, c := range cases {
		err := Check(c.cat, nil, c.specs)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: Check = %v, want nil", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check = %v, want an error naming %q", c.name, err, c.want)
			continue
		}
		var got any
		bytes := allocated(func(int) {
			defer func() { got = recover() }()
			Generate(c.cat, []string{"big"}, c.specs, 1)
		})
		if e, ok := got.(error); !ok || e.Error() != err.Error() {
			t.Errorf("%s: Generate panicked with %v, want Check's error %v", c.name, got, err)
		}
		store.Lock()
		for key := range store.m {
			if key.rel == c.cat.MustRelation("big") {
				t.Errorf("%s: Generate registered a table before panicking", c.name)
			}
		}
		store.Unlock()
		if bytes > 64<<10 {
			t.Errorf("%s: Generate allocated %.0f B before panicking", c.name, bytes)
		}
	}
}

// TestSelectionBoundDomainOverride checks that SelectionBound prices a
// column over the domain it was drawn from: with a Spec.Domain override
// that is the override, not the catalog's DistinctCount.
func TestSelectionBoundDomainOverride(t *testing.T) {
	c := catalog.NewCatalog()
	c.AddRelation(&catalog.Relation{
		Name: "t", Card: 5000, TupleWidth: 8,
		Columns: []catalog.Column{{Name: "w", Type: catalog.TypeInt, DistinctCount: 1_000_000}},
	})
	db := Generate(c, nil, map[string]Spec{"t": {Domain: map[string]int64{"w": 100}}}, 3)
	bound, realized := db.SelectionBound("t", "w", 0.2)
	if bound != 20 {
		t.Errorf("bound = %d, want 20 (0.2 of the overridden domain 100)", bound)
	}
	if math.Abs(realized-0.2) > 0.03 {
		t.Errorf("realized %g far from target 0.2", realized)
	}
	// Without the override the bound is the DistinctCount's, as before.
	if bound, _ := Generate(c, nil, nil, 3).SelectionBound("t", "w", 0.2); bound != 200_000 {
		t.Errorf("bound without override = %d, want 200000", bound)
	}
}
