package data

import (
	"runtime"
	"testing"
	"time"
)

// TestGenerateSharesTables pins the store's key: the same relation, spec
// and seed give one table, whichever database asks; another seed, another
// spec or a separately built catalog give another; and a spec's key
// depends on its entries alone, not on the order its maps were filled in
// or on a nil map standing for an empty one.
func TestGenerateSharesTables(t *testing.T) {
	cat := smallCatalog()
	a := Generate(cat, nil, nil, 1)
	same := func(x, y *Database, rel string) bool { return x.Table(rel) == y.Table(rel) }
	for _, rel := range []string{"pk", "fk"} {
		if !same(a, Generate(cat, nil, nil, 1), rel) {
			t.Fatalf("%s: two databases over one catalog, spec and seed hold distinct tables", rel)
		}
		if same(a, Generate(cat, nil, nil, 2), rel) {
			t.Fatalf("%s: another seed shares the table", rel)
		}
		if same(a, Generate(smallCatalog(), nil, nil, 1), rel) {
			t.Fatalf("%s: a separately built catalog shares the table", rel)
		}
	}
	if !same(a, Generate(cat, []string{"fk"}, nil, 1), "fk") {
		t.Fatal("a subset database holds another fk table")
	}

	// A spec steers only its own relation's table.
	b := Generate(cat, nil, map[string]Spec{"fk": {Domain: map[string]int64{"w": 7}}}, 1)
	if same(a, b, "fk") || !same(a, b, "pk") {
		t.Fatal("a spec on fk must give fk another table and leave pk's shared")
	}
	empty := Spec{MatchFrac: map[string]float64{}, Domain: map[string]int64{}, Skew: map[string]float64{}}
	if !same(a, Generate(cat, nil, map[string]Spec{"fk": empty, "pk": {}}, 1), "fk") {
		t.Fatal("empty spec maps key differently from nil ones")
	}

	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "ref", "w"}
	fill := func(order []string) Spec {
		sp := Spec{MatchFrac: map[string]float64{}, Domain: map[string]int64{}, Skew: map[string]float64{}}
		for _, k := range order {
			sp.MatchFrac[k], sp.Domain[k], sp.Skew[k] = 0.5, 40, 1.5
		}
		return sp
	}
	reversed := make([]string, len(names))
	for i, k := range names {
		reversed[len(names)-1-i] = k
	}
	x := Generate(cat, nil, map[string]Spec{"fk": fill(names)}, 1)
	y := Generate(cat, nil, map[string]Spec{"fk": fill(reversed)}, 1)
	if !same(x, y, "fk") {
		t.Fatal("equal specs filled in different orders hold distinct tables")
	}
	if same(x, a, "fk") {
		t.Fatal("a non-empty spec shares the zero spec's table")
	}
}

// TestStoreReleasesDeadTables pins the weak hold: once no database
// references a table, a collection deletes its store entry, and the next
// Generate makes a fresh table with no column generated.
func TestStoreReleasesDeadTables(t *testing.T) {
	cat := smallCatalog()
	rel := cat.MustRelation("fk")
	key := tableKey{rel: rel, spec: specKey(Spec{}), seed: 1 ^ int64(stableHash(rel.Name))}
	live := func() bool {
		store.Lock()
		defer store.Unlock()
		_, ok := store.m[key]
		return ok
	}
	func() {
		Generate(cat, nil, nil, 1).Table("fk").Column("w")
	}()
	if !live() {
		t.Fatal("Generate registered no store entry")
	}
	// Cleanups run on their own goroutine after the collection that
	// frees the table.
	for i := 0; live(); i++ {
		if i == 200 {
			t.Fatal("the store entry outlived every database over its table")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	fresh := Generate(cat, nil, nil, 1).Table("fk")
	for i := range fresh.cols {
		if fresh.cols[i].Load() != nil || fresh.indexes[i].Load() != nil {
			t.Fatalf("column %s of a fresh table is already built", fresh.Rel.Columns[i].Name)
		}
	}
	if !live() {
		t.Fatal("the fresh table is not registered")
	}
}
