package data

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
)

// keyTable returns an n-row table with one key column "id" and one plain
// column "v". The catalog refuses a zero-row relation, so the table is
// instantiated directly.
func keyTable(n int) *Table {
	return newTable(&catalog.Relation{
		Name: "k", Card: int64(n), TupleWidth: 16,
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.TypeKey, DistinctCount: int64(n)},
			{Name: "v", Type: catalog.TypeInt, DistinctCount: 10},
		},
	}, Spec{}, 1)
}

// TestKeyColumnsShareRowIDs pins the shared row-id vector: key columns of
// tables in different databases alias one backing array, a key column's
// index equals what newIndex builds over the column, every returned slice
// has its capacity clipped (so an append reallocates instead of writing
// into the shared vector), and a warm key column plus its index allocate
// nothing.
func TestKeyColumnsShareRowIDs(t *testing.T) {
	rowIDs(4000) // no growth between the two databases below
	a := Generate(smallCatalog(), nil, nil, 1).Table("pk")
	cat := catalog.NewCatalog()
	cat.AddRelation(&catalog.Relation{
		Name: "other", Card: 3000, TupleWidth: 8,
		Columns: []catalog.Column{{Name: "oid", Type: catalog.TypeKey, DistinctCount: 3000}},
	})
	b := Generate(cat, nil, nil, 2).Table("other")
	if &a.Column("id")[0] != &b.Column("oid")[0] {
		t.Error("key columns of two databases do not alias one array")
	}
	if &a.Index("id").Order()[0] != &b.Index("oid").Order()[0] {
		t.Error("key-column indexes of two databases do not alias one array")
	}

	for _, n := range []int{0, 1, 1023, 100_000} {
		tbl := keyTable(n)
		col := tbl.Column("id")
		ix, want := tbl.Index("id"), newIndex(col)
		name := fmt.Sprintf("n=%d", n)
		if !slices.Equal(ix.Order(), want.Order()) || !slices.Equal(ix.starts, want.starts) ||
			ix.lo != want.lo || ix.vals != nil || want.vals != nil {
			t.Fatalf("%s: aliased index differs from newIndex", name)
		}
		for v := int64(-2); v <= int64(n)+2; v++ {
			if got, w := ix.Rows(v), want.Rows(v); !slices.Equal(got, w) || (got == nil) != (w == nil) {
				t.Fatalf("%s: Rows(%d) = %v, newIndex gives %v", name, v, got, w)
			}
		}
		if cap(col) != n || cap(ix.order) != n || cap(ix.starts) != n+1 {
			t.Fatalf("%s: capacities %d, %d, %d not clipped", name, cap(col), cap(ix.order), cap(ix.starts))
		}
		if got := testing.AllocsPerRun(100, func() {
			tbl.Column("id")
			tbl.Index("id")
		}); got > 0 {
			t.Errorf("%s: a warm key column and its index allocate %.0f/call, want 0", name, got)
		}
	}
}

// TestRowIDsConcurrentGrowth generates and reads key columns and indexes
// of tables of different sizes on eight goroutines at once, as servers
// building engines concurrently do, so the shared vector grows under
// readers. Run it under -race (make race-serving does).
func TestRowIDsConcurrentGrowth(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= 3; k++ {
				n := (g + 1) * k * 20_011
				tbl := keyTable(n)
				col, ix := tbl.Column("id"), tbl.Index("id")
				for i, v := range col {
					if v != int32(i) || ix.Order()[i] != int32(i) {
						errs <- fmt.Errorf("n=%d: row %d reads %d / %d", n, i, v, ix.Order()[i])
						return
					}
				}
				if rows := ix.Rows(int64(n - 1)); len(rows) != 1 || rows[0] != int32(n-1) {
					errs <- fmt.Errorf("n=%d: Rows(%d) = %v", n, n-1, rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
