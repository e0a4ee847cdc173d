package catalog

import (
	"strings"
	"testing"
)

func testRelation(name string, card int64) *Relation {
	return &Relation{
		Name: name, Card: card, TupleWidth: 100,
		Columns: []Column{
			{Name: "id", Type: TypeKey, DistinctCount: card},
			{Name: "v", Type: TypeInt, DistinctCount: 50},
		},
	}
}

func TestAddAndLookupRelation(t *testing.T) {
	c := NewCatalog()
	c.AddRelation(testRelation("t", 1000))
	if c.Relation("t") == nil {
		t.Fatal("relation t not found after AddRelation")
	}
	if c.Relation("missing") != nil {
		t.Fatal("lookup of missing relation returned non-nil")
	}
	if got := c.MustRelation("t").Card; got != 1000 {
		t.Fatalf("card = %d, want 1000", got)
	}
}

func TestMustRelationPanics(t *testing.T) {
	defer expectPanic(t, "unknown relation")
	NewCatalog().MustRelation("nope")
}

func TestAddRelationValidation(t *testing.T) {
	cases := []struct {
		name string
		rel  *Relation
		want string
	}{
		{"empty name", &Relation{Card: 1, TupleWidth: 1}, "empty name"},
		{"zero card", &Relation{Name: "x", Card: 0, TupleWidth: 1}, "cardinality"},
		{"zero width", &Relation{Name: "x", Card: 1, TupleWidth: 0}, "tuple width"},
		{"dup column", &Relation{Name: "x", Card: 1, TupleWidth: 8,
			Columns: []Column{{Name: "a"}, {Name: "a"}}}, "duplicate column"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer expectPanic(t, tc.want)
			NewCatalog().AddRelation(tc.rel)
		})
	}
}

func TestDuplicateRelationPanics(t *testing.T) {
	c := NewCatalog()
	c.AddRelation(testRelation("t", 10))
	defer expectPanic(t, "duplicate relation")
	c.AddRelation(testRelation("t", 20))
}

func TestPages(t *testing.T) {
	cases := []struct {
		card, width, pageSize, want int64
	}{
		{100, 100, 1000, 10},    // 10 rows/page
		{101, 100, 1000, 11},    // rounds up
		{1, 100, 1000, 1},       // minimum one page
		{10, 5000, 1000, 10},    // wide rows: one per page
		{1000, 100, 100_000, 1}, // all rows on one page
	}
	for _, tc := range cases {
		r := &Relation{Name: "t", Card: tc.card, TupleWidth: tc.width}
		if got := r.Pages(tc.pageSize); got != tc.want {
			t.Errorf("Pages(card=%d,width=%d,ps=%d) = %d, want %d",
				tc.card, tc.width, tc.pageSize, got, tc.want)
		}
	}
}

func TestPagesPanicsOnBadPageSize(t *testing.T) {
	defer expectPanic(t, "page size")
	testRelation("t", 1).Pages(0)
}

func TestColumnLookup(t *testing.T) {
	r := testRelation("t", 10)
	if r.Column("id") == nil || r.Column("v") == nil {
		t.Fatal("declared columns not found")
	}
	if r.Column("ghost") != nil {
		t.Fatal("missing column lookup returned non-nil")
	}
}

func TestIndexes(t *testing.T) {
	c := NewCatalog()
	c.AddRelation(testRelation("t", 10))
	c.AddIndex(Index{Relation: "t", Column: "id", Clustered: true})
	if !c.HasIndex("t", "id") {
		t.Fatal("index on t.id missing")
	}
	if c.HasIndex("t", "v") {
		t.Fatal("unexpected index on t.v")
	}
	if !c.Index("t", "id").Clustered {
		t.Fatal("clustered flag lost")
	}
}

func TestAddIndexValidation(t *testing.T) {
	c := NewCatalog()
	c.AddRelation(testRelation("t", 10))
	t.Run("unknown relation", func(t *testing.T) {
		defer expectPanic(t, "unknown relation")
		c.AddIndex(Index{Relation: "ghost", Column: "id"})
	})
	t.Run("unknown column", func(t *testing.T) {
		defer expectPanic(t, "unknown column")
		c.AddIndex(Index{Relation: "t", Column: "ghost"})
	})
	t.Run("duplicate", func(t *testing.T) {
		c.AddIndex(Index{Relation: "t", Column: "id"})
		defer expectPanic(t, "duplicate index")
		c.AddIndex(Index{Relation: "t", Column: "id"})
	})
}

func TestIndexAllColumns(t *testing.T) {
	c := NewCatalog()
	c.AddRelation(testRelation("t", 10))
	c.AddRelation(testRelation("u", 20))
	c.IndexAllColumns()
	for _, rel := range c.Relations() {
		for _, col := range rel.Columns {
			if !c.HasIndex(rel.Name, col.Name) {
				t.Errorf("missing index on %s.%s", rel.Name, col.Name)
			}
		}
	}
	// Key columns become clustered indexes.
	if !c.Index("t", "id").Clustered {
		t.Error("key column index not clustered")
	}
	if c.Index("t", "v").Clustered {
		t.Error("non-key column index marked clustered")
	}
	// Idempotent.
	c.IndexAllColumns()
}

func TestRelationsSorted(t *testing.T) {
	c := NewCatalog()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		c.AddRelation(testRelation(n, 10))
	}
	rels := c.Relations()
	want := []string{"alpha", "mid", "zeta"}
	for i, r := range rels {
		if r.Name != want[i] {
			t.Fatalf("Relations()[%d] = %s, want %s", i, r.Name, want[i])
		}
	}
}

func TestTPCHLikeValid(t *testing.T) {
	c := TPCHLike(1.0)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	li := c.MustRelation("lineitem")
	ord := c.MustRelation("orders")
	if li.Card <= ord.Card {
		t.Errorf("lineitem (%d) should dominate orders (%d)", li.Card, ord.Card)
	}
	// Fact tables fan out over all dimension tables through FKs.
	for _, col := range []string{"l_orderkey", "l_partkey", "l_suppkey"} {
		if li.Column(col) == nil {
			t.Errorf("lineitem missing %s", col)
		}
	}
	// Every column is indexed (the paper's hard-nut physical design).
	for _, rel := range c.Relations() {
		for _, col := range rel.Columns {
			if !c.HasIndex(rel.Name, col.Name) {
				t.Errorf("missing index on %s.%s", rel.Name, col.Name)
			}
		}
	}
}

func TestTPCDSLikeValid(t *testing.T) {
	c := TPCDSLike(1.0)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	ss := c.MustRelation("store_sales")
	for _, col := range []string{"ss_sold_date_sk", "ss_item_sk", "ss_customer_sk", "ss_store_sk", "ss_promo_sk"} {
		if ss.Column(col) == nil {
			t.Errorf("store_sales missing %s", col)
		}
	}
}

func TestScaleFactor(t *testing.T) {
	small := TPCHLike(0.01)
	big := TPCHLike(1.0)
	if small.MustRelation("lineitem").Card >= big.MustRelation("lineitem").Card {
		t.Error("scale factor did not shrink lineitem")
	}
	// Floor: even tiny scale factors keep at least 10 rows.
	tiny := TPCHLike(1e-9)
	for _, rel := range tiny.Relations() {
		if rel.Card < 10 {
			t.Errorf("%s card %d below floor", rel.Name, rel.Card)
		}
	}
}

func TestValidateCatchesDanglingFK(t *testing.T) {
	c := NewCatalog()
	c.AddRelation(&Relation{
		Name: "child", Card: 10, TupleWidth: 8,
		Columns: []Column{{Name: "fk", Type: TypeForeignKey, Refs: "ghost", DistinctCount: 5}},
	})
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("Validate() = %v, want dangling-FK error", err)
	}
}

func TestValidateCatchesMissingPK(t *testing.T) {
	c := NewCatalog()
	c.AddRelation(&Relation{
		Name: "parent", Card: 10, TupleWidth: 8,
		Columns: []Column{{Name: "v", Type: TypeInt, DistinctCount: 5}},
	})
	c.AddRelation(&Relation{
		Name: "child", Card: 10, TupleWidth: 8,
		Columns: []Column{{Name: "fk", Type: TypeForeignKey, Refs: "parent", DistinctCount: 5}},
	})
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "without a primary key") {
		t.Fatalf("Validate() = %v, want missing-PK error", err)
	}
}

func TestColumnTypeString(t *testing.T) {
	if TypeInt.String() != "int" || TypeKey.String() != "key" || TypeForeignKey.String() != "fkey" {
		t.Error("ColumnType.String mismatch")
	}
	if !strings.Contains(ColumnType(99).String(), "99") {
		t.Error("unknown ColumnType should include its value")
	}
}

func expectPanic(t *testing.T, substr string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Fatalf("expected panic containing %q", substr)
	}
	if msg, ok := r.(string); ok && !strings.Contains(msg, substr) {
		t.Fatalf("panic %q does not contain %q", msg, substr)
	}
}
