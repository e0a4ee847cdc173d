package data

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/catalog"
)

// oracleOrder is the index's order as a plain stable sort of the row ids
// by value computes it.
func oracleOrder(vals []int32) []int32 {
	ids := make([]int32, len(vals))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.SliceStable(ids, func(a, b int) bool { return vals[ids[a]] < vals[ids[b]] })
	return ids
}

// oracleRows is the value → ascending row ids map a hash index over the
// column holds.
func oracleRows(vals []int32) map[int64][]int32 {
	h := make(map[int64][]int32, len(vals))
	for i, v := range vals {
		h[int64(v)] = append(h[int64(v)], int32(i))
	}
	return h
}

// checkAgainstOracle builds the index of vals and compares it with the
// oracles: the same order, the same rows for every present value, and no
// rows below the minimum, inside any gap or above the maximum.
func checkAgainstOracle(t *testing.T, name string, vals []int32) *Index {
	t.Helper()
	ix := newIndex(vals)
	if !slices.Equal(ix.Order(), oracleOrder(vals)) {
		t.Fatalf("%s: Order differs from the stable sort", name)
	}
	want := oracleRows(vals)
	distinct := make([]int64, 0, len(want))
	for v, rows := range want {
		if got := ix.Rows(v); !slices.Equal(got, rows) {
			t.Fatalf("%s: Rows(%d) = %v, want %v", name, v, got, rows)
		}
		distinct = append(distinct, v)
	}
	slices.Sort(distinct)
	absent := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	if len(distinct) > 0 {
		lo, hi := distinct[0], distinct[len(distinct)-1]
		if lo > math.MinInt64 {
			absent = append(absent, lo-1)
		}
		if hi < math.MaxInt64 {
			absent = append(absent, hi+1)
		}
		for i := 1; i < len(distinct); i++ {
			if distinct[i-1]+1 < distinct[i] {
				absent = append(absent, distinct[i-1]+1, distinct[i]-1)
			}
		}
	}
	for _, v := range absent {
		if _, present := want[v]; !present && len(ix.Rows(v)) != 0 {
			t.Fatalf("%s: Rows(%d) = %v for an absent value", name, v, ix.Rows(v))
		}
	}
	return ix
}

func TestIndexMatchesOracle(t *testing.T) {
	cases := []struct {
		name   string
		specs  map[string]Spec
		sparse map[string]bool // columns that must take the sparse path
	}{
		{name: "uniform"},
		{name: "zipf", specs: map[string]Spec{
			"pk": {Skew: map[string]float64{"v": 1.3}},
			"fk": {Skew: map[string]float64{"ref": 2.0, "w": 1.5}},
		}},
		{name: "dangling", specs: map[string]Spec{
			"fk": {MatchFrac: map[string]float64{"ref": 0.3}},
		}},
		// A 2^30 domain forces the sparse path; the skewed column gives
		// it long runs of equal values, where only the row-id tie-break
		// keeps the comparison sort stable.
		{name: "sparse", specs: map[string]Spec{
			"pk": {Domain: map[string]int64{"v": 1 << 30}},
			"fk": {Domain: map[string]int64{"w": 1 << 30}, Skew: map[string]float64{"w": 1.2}},
		}, sparse: map[string]bool{"v": true, "w": true}},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 20; seed++ {
			db := Generate(smallCatalog(), nil, c.specs, seed)
			for _, rel := range []string{"pk", "fk"} {
				tbl := db.Table(rel)
				for _, col := range tbl.Rel.Columns {
					ix := checkAgainstOracle(t, c.name+"/"+rel+"."+col.Name, tbl.Column(col.Name))
					if got := ix.vals != nil; got != c.sparse[col.Name] {
						t.Errorf("%s seed %d: %s.%s sparse path = %v", c.name, seed, rel, col.Name, got)
					}
				}
			}
		}
	}

	empty := newTable(&catalog.Relation{Name: "empty", Columns: []catalog.Column{
		{Name: "id", Type: catalog.TypeKey},
		{Name: "ref", Type: catalog.TypeForeignKey, DistinctCount: 10},
	}}, Spec{}, 1)
	for _, col := range empty.Rel.Columns {
		ix := checkAgainstOracle(t, "empty."+col.Name, empty.Column(col.Name))
		if len(ix.Order()) != 0 {
			t.Errorf("empty.%s: Order has %d rows", col.Name, len(ix.Order()))
		}
	}

	// Values at the ends of int32, whose span overflows an int32
	// subtraction.
	checkAgainstOracle(t, "extremes", []int32{math.MaxInt32, math.MinInt32, 0, math.MaxInt32, -1})
	checkAgainstOracle(t, "near-max", []int32{math.MaxInt32, math.MaxInt32 - 1, math.MaxInt32})
}

// indexFixture returns a 1 000-row table whose key column takes the dense
// path and whose "v" column, over a 2^30 domain, takes the sparse path.
func indexFixture() *Table {
	c := catalog.NewCatalog()
	c.AddRelation(&catalog.Relation{
		Name: "t", Card: 1000, TupleWidth: 16,
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.TypeKey, DistinctCount: 1000},
			{Name: "v", Type: catalog.TypeInt, DistinctCount: 1000},
		},
	})
	return Generate(c, nil, map[string]Spec{"t": {Domain: map[string]int64{"v": 1 << 30}}}, 1).Table("t")
}

func TestIndexRowsAllocFree(t *testing.T) {
	tbl := indexFixture()
	for _, col := range []string{"id", "v"} {
		ix := tbl.Index(col)
		present, lo := tbl.Value(500, col), tbl.Value(int(ix.Order()[0]), col)
		probes := []int64{present, present + 1, lo - 1, math.MaxInt64}
		if got := testing.AllocsPerRun(100, func() {
			for _, v := range probes {
				ix.Rows(v)
			}
		}); got > 0 {
			t.Errorf("Rows on %s allocates %.0f/call, want 0", col, got)
		}
	}
}

// TestIndexBytesPerRow pins newIndex's dense path at ≤ 12 B/row on the
// identity column 0…n-1. No key column reaches newIndex in production any
// more — Table.Index aliases the shared row-id vector instead — so this
// pins the counting sort's footprint, not what a key column costs.
func TestIndexBytesPerRow(t *testing.T) {
	const n = 100_000
	c := catalog.NewCatalog()
	c.AddRelation(&catalog.Relation{
		Name: "t", Card: n, TupleWidth: 8,
		Columns: []catalog.Column{{Name: "id", Type: catalog.TypeKey, DistinctCount: n}},
	})
	vals := Generate(c, nil, nil, 1).Table("t").Column("id")
	perRow := make([]float64, 7)
	var before, after runtime.MemStats
	for i := range perRow {
		runtime.ReadMemStats(&before)
		newIndex(vals)
		runtime.ReadMemStats(&after)
		perRow[i] = float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	slices.Sort(perRow)
	if med := perRow[len(perRow)/2]; med > 12 {
		t.Errorf("index on a %d-row key column allocates %.1f B/row (median), want ≤ 12", n, med)
	}
}
