package data

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
)

func smallCatalog() *catalog.Catalog {
	c := catalog.NewCatalog()
	c.AddRelation(&catalog.Relation{
		Name: "pk", Card: 200, TupleWidth: 16,
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.TypeKey, DistinctCount: 200},
			{Name: "v", Type: catalog.TypeInt, DistinctCount: 50},
		},
	})
	c.AddRelation(&catalog.Relation{
		Name: "fk", Card: 2000, TupleWidth: 24,
		Columns: []catalog.Column{
			{Name: "ref", Type: catalog.TypeForeignKey, Refs: "pk", DistinctCount: 200},
			{Name: "w", Type: catalog.TypeInt, DistinctCount: 100},
		},
	})
	c.IndexAllColumns()
	return c
}

func TestGenerateCardinalities(t *testing.T) {
	db := Generate(smallCatalog(), nil, nil, 1)
	if db.Table("pk").NumRows() != 200 || db.Table("fk").NumRows() != 2000 {
		t.Fatal("row counts do not match catalog cards")
	}
}

func TestKeyColumnsDense(t *testing.T) {
	db := Generate(smallCatalog(), nil, nil, 1)
	vals := db.Table("pk").Column("id")
	for i, v := range vals {
		if v != int32(i) {
			t.Fatalf("key column not dense at %d: %d", i, v)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(smallCatalog(), nil, nil, 9)
	b := Generate(smallCatalog(), nil, nil, 9)
	for _, tbl := range []string{"pk", "fk"} {
		ta, tb := a.Table(tbl), b.Table(tbl)
		for _, col := range ta.Rel.Columns {
			ca, cb := ta.Column(col.Name), tb.Column(col.Name)
			for i := range ca {
				if ca[i] != cb[i] {
					t.Fatalf("%s.%s differs at row %d with same seed", tbl, col.Name, i)
				}
			}
		}
	}
	c := Generate(smallCatalog(), nil, nil, 10)
	same := true
	ca, cc := a.Table("fk").Column("w"), c.Table("fk").Column("w")
	for i := range ca {
		if ca[i] != cc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestPerRelationSeedStability(t *testing.T) {
	// Generating a subset must not reshuffle the shared relations.
	all := Generate(smallCatalog(), nil, nil, 3)
	sub := Generate(smallCatalog(), []string{"fk"}, nil, 3)
	a, b := all.Table("fk").Column("w"), sub.Table("fk").Column("w")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("relation data depends on which other relations are generated")
		}
	}
}

func TestMatchFracRealization(t *testing.T) {
	for _, frac := range []float64{0.25, 0.5, 0.9} {
		db := Generate(smallCatalog(), nil, map[string]Spec{
			"fk": {MatchFrac: map[string]float64{"ref": frac}},
		}, 7)
		sel := db.JoinSelectivity("pk", "id", "fk", "ref")
		// Expected selectivity: frac / |pk|.
		want := frac / 200
		if math.Abs(sel-want) > 0.15*want {
			t.Errorf("frac %g: realized sel %g, want ≈ %g", frac, sel, want)
		}
		// Dangling rows use -1, which matches nothing.
		for _, v := range db.Table("fk").Column("ref") {
			if v != -1 && (v < 0 || v >= 200) {
				t.Fatalf("FK value %d outside key domain", v)
			}
		}
	}
}

func TestFullMatchFrac(t *testing.T) {
	db := Generate(smallCatalog(), nil, nil, 2)
	sel := db.JoinSelectivity("pk", "id", "fk", "ref")
	if math.Abs(sel-1.0/200) > 1e-12 {
		t.Fatalf("clean PK-FK selectivity %g, want exactly 1/200", sel)
	}
}

func TestJoinSelectivityMatchesBruteForce(t *testing.T) {
	db := Generate(smallCatalog(), nil, map[string]Spec{
		"fk": {MatchFrac: map[string]float64{"ref": 0.4}},
	}, 11)
	pk, fk := db.Table("pk"), db.Table("fk")
	var matches int64
	for i := 0; i < pk.NumRows(); i++ {
		for j := 0; j < fk.NumRows(); j++ {
			if pk.Value(i, "id") == fk.Value(j, "ref") {
				matches++
			}
		}
	}
	want := float64(matches) / (200.0 * 2000.0)
	if got := db.JoinSelectivity("pk", "id", "fk", "ref"); math.Abs(got-want) > 1e-15 {
		t.Fatalf("JoinSelectivity = %g, brute force = %g", got, want)
	}
	// Symmetric in argument order.
	if got := db.JoinSelectivity("fk", "ref", "pk", "id"); math.Abs(got-want) > 1e-15 {
		t.Fatalf("JoinSelectivity not symmetric")
	}
}

func TestSelectionBound(t *testing.T) {
	db := Generate(smallCatalog(), nil, nil, 13)
	bound, realized := db.SelectionBound("fk", "w", 0.3)
	if bound <= 0 {
		t.Fatalf("bound = %d", bound)
	}
	if math.Abs(realized-0.3) > 0.1 {
		t.Errorf("realized %g far from target 0.3", realized)
	}
	// Realized matches an independent count.
	var n int64
	for _, v := range db.Table("fk").Column("w") {
		if int64(v) < bound {
			n++
		}
	}
	if want := float64(n) / 2000; realized != want {
		t.Fatalf("realized %g != recount %g", realized, want)
	}
	// Tiny targets clamp to bound 1.
	b2, r2 := db.SelectionBound("fk", "w", 1e-9)
	if b2 != 1 || r2 < 0 {
		t.Fatalf("tiny target: bound %d realized %g", b2, r2)
	}
}

func TestIndexOrder(t *testing.T) {
	db := Generate(smallCatalog(), nil, nil, 17)
	tbl := db.Table("fk")
	ix := tbl.Index("w")
	order := ix.Order()
	if len(order) != tbl.NumRows() {
		t.Fatal("order length mismatch")
	}
	vals := tbl.Column("w")
	for i := 1; i < len(order); i++ {
		if vals[order[i-1]] > vals[order[i]] {
			t.Fatal("Order not ascending")
		}
	}
	// Cached: the same index on the second call.
	if tbl.Index("w") != ix {
		t.Fatal("Index rebuilt instead of cached")
	}
}

func TestIndexRows(t *testing.T) {
	db := Generate(smallCatalog(), nil, nil, 19)
	tbl := db.Table("fk")
	ix := tbl.Index("ref")
	total := 0
	for v := int64(-1); v < 200; v++ {
		rows := ix.Rows(v)
		for _, r := range rows {
			if tbl.Value(int(r), "ref") != v {
				t.Fatal("Rows returned a row holding another value")
			}
		}
		total += len(rows)
	}
	if total != tbl.NumRows() {
		t.Fatalf("Rows covers %d of %d rows", total, tbl.NumRows())
	}
}

func TestCountLess(t *testing.T) {
	db := Generate(smallCatalog(), nil, nil, 23)
	tbl := db.Table("pk")
	if got := tbl.CountLess("id", 50); got != 50 {
		t.Fatalf("CountLess(id, 50) = %d on dense keys", got)
	}
	if got := tbl.CountLess("id", 0); got != 0 {
		t.Fatalf("CountLess(id, 0) = %d", got)
	}
}

func TestUnknownLookupsPanic(t *testing.T) {
	db := Generate(smallCatalog(), nil, nil, 1)
	for _, f := range []func(){
		func() { db.Table("ghost") },
		func() { db.Table("pk").Column("ghost") },
		func() { db.Table("pk").Value(0, "ghost") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDomainOverride(t *testing.T) {
	db := Generate(smallCatalog(), nil, map[string]Spec{
		"fk": {Domain: map[string]int64{"w": 5}},
	}, 29)
	for _, v := range db.Table("fk").Column("w") {
		if v < 0 || v >= 5 {
			t.Fatalf("value %d outside overridden domain [0,5)", v)
		}
	}
}

func TestSkewedGeneration(t *testing.T) {
	db := Generate(smallCatalog(), nil, map[string]Spec{
		"fk": {Skew: map[string]float64{"w": 1.5}},
	}, 43)
	vals := db.Table("fk").Column("w")
	// Under Zipf skew, value 0 dominates; under uniform it holds ~1% of
	// rows (domain 100).
	var zeros int
	for _, v := range vals {
		if v < 0 || v >= 100 {
			t.Fatalf("skewed value %d outside domain", v)
		}
		if v == 0 {
			zeros++
		}
	}
	if frac := float64(zeros) / float64(len(vals)); frac < 0.10 {
		t.Errorf("zipf head frequency %.3f, expected heavy skew", frac)
	}
}

func TestSkewedFKStillJoins(t *testing.T) {
	// A skewed FK column still realises a measurable join selectivity,
	// now concentrated on hot keys.
	db := Generate(smallCatalog(), nil, map[string]Spec{
		"fk": {Skew: map[string]float64{"ref": 2.0}},
	}, 47)
	sel := db.JoinSelectivity("pk", "id", "fk", "ref")
	if sel <= 0 {
		t.Fatal("skewed FK join has zero selectivity")
	}
	// Hot key 0 should carry far more than the uniform share.
	ix := db.Table("fk").Index("ref")
	if hot, cold := len(ix.Rows(0)), len(ix.Rows(150)); hot < 10*cold+1 {
		t.Errorf("no hot-key clustering: key0=%d key150=%d", hot, cold)
	}
}

// BenchmarkGenerate generates a 600k-row lineitem (TPC-H-like, scale 0.1)
// and reads two of its six columns — what 2D_H_Q8a's plans read — or all
// six: what generation costs a query, against what it cost before columns
// were generated on first read.
func BenchmarkGenerate(b *testing.B) {
	cat := catalog.TPCHLike(0.1)
	all := []string{"l_orderkey", "l_partkey", "l_suppkey", "l_shipdate", "l_quantity", "l_extendedprice"}
	for _, read := range [][]string{all[:2], all} {
		b.Run(fmt.Sprintf("read=%dof6", len(read)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl := Generate(cat, []string{"lineitem"}, nil, int64(i)).Table("lineitem")
				for _, col := range read {
					tbl.Column(col)
				}
			}
			b.ReportMetric(float64(cat.MustRelation("lineitem").Card)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

func BenchmarkJoinSelectivity(b *testing.B) {
	db := Generate(smallCatalog(), nil, nil, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.JoinSelectivity("pk", "id", "fk", "ref")
	}
}

var benchIndex *Index

// BenchmarkIndex builds, from scratch, the index of a 600k-row
// foreign-key column (TPC-H-like lineitem.l_orderkey at scale 0.1) — the
// dense counting-sort path every generated FK column takes — and, as
// "key", the index Table.Index hands out for the 150k-row key column
// orders.o_orderkey, which aliases the shared row-id vector and builds
// nothing.
func BenchmarkIndex(b *testing.B) {
	cat := catalog.TPCHLike(0.1)
	b.Run("fk", func(b *testing.B) {
		vals := Generate(cat, []string{"lineitem"}, nil, 1).Table("lineitem").Column("l_orderkey")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchIndex = newIndex(vals)
		}
		b.ReportMetric(float64(len(vals))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("key", func(b *testing.B) {
		tbl := Generate(cat, []string{"orders"}, nil, 1).Table("orders")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.indexes[tbl.colIdx["o_orderkey"]].Store(nil) // each call is a first use
			benchIndex = tbl.Index("o_orderkey")
		}
	})
}

// TestUnreadColumnsStayUngenerated pins the point of laziness: reading one
// column materializes that column alone, and an unread table nothing. It
// also pins that a table releases its generator once the stream has drawn
// the last non-key column, and that a later out-of-order read, replayed
// from the seed, is bit-identical to an in-order one.
func TestUnreadColumnsStayUngenerated(t *testing.T) {
	db := Generate(smallCatalog(), nil, nil, 5)
	tbl := db.Table("fk")
	tbl.Column("w")
	for i, col := range tbl.Rel.Columns {
		if (tbl.cols[i].Load() != nil) != (col.Name == "w") {
			t.Fatalf("column %s materialized = %v", col.Name, tbl.cols[i].Load() != nil)
		}
	}
	for i := range db.Table("pk").cols {
		if db.Table("pk").cols[i].Load() != nil {
			t.Fatal("an unread table generated a column")
		}
	}

	// "w" is fk's last non-key column: its draw releases the generator.
	if tbl.rng != nil {
		t.Fatal("generator kept after the last non-key column was drawn")
	}
	inOrder := Generate(smallCatalog(), nil, nil, 5).Table("fk")
	if !slices.Equal(tbl.Column("ref"), inOrder.Column("ref")) || !slices.Equal(tbl.Column("w"), inOrder.Column("w")) {
		t.Fatal("a read replayed after the generator was released differs from an in-order read")
	}
	if tbl.rng != nil || inOrder.rng != nil {
		t.Fatal("generator kept once every non-key column was drawn")
	}
	// pk's only non-key column "v" follows its key: reading the key
	// draws nothing, and reading "v" releases the generator.
	pk := db.Table("pk")
	pk.Column("id")
	if pk.rng != nil {
		t.Fatal("a key column started the generator")
	}
	pk.Column("v")
	if pk.rng != nil {
		t.Fatal("generator kept after pk's last non-key column was drawn")
	}
}
