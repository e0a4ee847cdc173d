package data_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/data"
	"repro/internal/workload"
)

// eagerColumns is the oracle: every column of rel drawn up front, in
// catalog order, from one stream seeded as Generate seeds the relation —
// the generator as it was before columns became lazy, and before they
// became int32 (compare through widen).
func eagerColumns(rel *catalog.Relation, spec data.Spec, seed int64) [][]int64 {
	h := uint32(2166136261)
	for i := 0; i < len(rel.Name); i++ {
		h ^= uint32(rel.Name[i])
		h *= 16777619
	}
	rng := rand.New(rand.NewSource(seed ^ int64(h)))
	n := int(rel.Card)
	cols := make([][]int64, len(rel.Columns))
	for ci, col := range rel.Columns {
		vals := make([]int64, n)
		switch col.Type {
		case catalog.TypeKey:
			for i := range vals {
				vals[i] = int64(i)
			}
		case catalog.TypeForeignKey:
			refCard := col.DistinctCount
			if refCard < 1 {
				refCard = 1
			}
			match := 1.0
			if spec.MatchFrac != nil {
				if f, ok := spec.MatchFrac[col.Name]; ok {
					match = f
				}
			}
			draw := drawerFor(spec, col.Name, refCard, rng)
			for i := range vals {
				if match >= 1.0 || rng.Float64() < match {
					vals[i] = draw()
				} else {
					vals[i] = -1
				}
			}
		case catalog.TypeInt:
			domain := col.DistinctCount
			if spec.Domain != nil {
				if d, ok := spec.Domain[col.Name]; ok {
					domain = d
				}
			}
			if domain < 1 {
				domain = 1
			}
			draw := drawerFor(spec, col.Name, domain, rng)
			for i := range vals {
				vals[i] = draw()
			}
		}
		cols[ci] = vals
	}
	return cols
}

// widen returns col's values as int64, for comparison with the oracle.
func widen(col []int32) []int64 {
	out := make([]int64, len(col))
	for i, v := range col {
		out[i] = int64(v)
	}
	return out
}

func drawerFor(spec data.Spec, col string, domain int64, rng *rand.Rand) func() int64 {
	if s, ok := spec.Skew[col]; ok && s > 1 && domain > 1 {
		z := rand.NewZipf(rng, s, 1, uint64(domain-1))
		return func() int64 { return int64(z.Uint64()) }
	}
	return func() int64 { return rng.Int63n(domain) }
}

// lazyCase is one catalog under one spec set.
type lazyCase struct {
	name  string
	cat   *catalog.Catalog
	rels  []string
	specs map[string]data.Spec
}

// shrunk copies the named relations of cat with at most maxRows rows each,
// keeping every column's type and domain, so a test can generate the
// paper's scale-1 catalogs column by column in milliseconds.
func shrunk(cat *catalog.Catalog, rels []string, maxRows int64) *catalog.Catalog {
	out := catalog.NewCatalog()
	for _, name := range rels {
		rel := *cat.MustRelation(name)
		rel.Card = min(rel.Card, maxRows)
		rel.Columns = slices.Clone(rel.Columns)
		for i := range rel.Columns {
			rel.Columns[i].Refs = "" // the referenced relation may not be copied
		}
		out.AddRelation(&rel)
	}
	return out
}

// mixedSpecs draws a spec per relation exercising every knob: a MatchFrac
// on some foreign keys, a Domain override or a Zipf Skew on some columns.
func mixedSpecs(cat *catalog.Catalog, seed int64) map[string]data.Spec {
	r := rand.New(rand.NewSource(seed))
	specs := map[string]data.Spec{}
	for _, rel := range cat.Relations() {
		sp := data.Spec{MatchFrac: map[string]float64{}, Domain: map[string]int64{}, Skew: map[string]float64{}}
		for _, col := range rel.Columns {
			switch r.Intn(4) {
			case 0:
				if col.Type == catalog.TypeForeignKey {
					sp.MatchFrac[col.Name] = 0.1 + 0.8*r.Float64()
				}
			case 1:
				sp.Domain[col.Name] = 1 + r.Int63n(500)
			case 2:
				sp.Skew[col.Name] = 1.1 + r.Float64()
			}
		}
		specs[rel.Name] = sp
	}
	return specs
}

func lazyCases(t *testing.T) []lazyCase {
	t.Helper()
	var cases []lazyCase
	add := func(name string, cat *catalog.Catalog, rels []string) {
		if len(rels) == 0 {
			for _, rel := range cat.Relations() {
				rels = append(rels, rel.Name)
			}
		}
		small := shrunk(cat, rels, 3000)
		cases = append(cases,
			lazyCase{name: name + "/plain", cat: small, rels: rels},
			lazyCase{name: name + "/specs", cat: small, rels: rels, specs: mixedSpecs(small, int64(len(cases)))},
		)
	}
	add("tpch", catalog.TPCHLike(1), nil)
	for _, w := range workload.All(0) {
		add(w.Name, w.Query.Catalog, w.Query.Relations())
	}
	for i := 0; i < 20; i++ {
		spec := corpus.GenerateSpec(1, i)
		add(spec.ID, spec.Catalog, nil)
	}
	// The catalog refuses a zero-row relation, so this one is emptied
	// after it is registered.
	empty := catalog.NewCatalog()
	emptyRel := &catalog.Relation{
		Name: "empty", Card: 1, TupleWidth: 24,
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.TypeKey, DistinctCount: 1},
			{Name: "f", Type: catalog.TypeForeignKey, DistinctCount: 10},
			{Name: "v", Type: catalog.TypeInt, DistinctCount: 10},
		},
	}
	empty.AddRelation(emptyRel)
	emptyRel.Card = 0
	cases = append(cases, lazyCase{name: "zero-row", cat: empty, rels: []string{"empty"},
		specs: map[string]data.Spec{"empty": {MatchFrac: map[string]float64{"f": 0.5}, Skew: map[string]float64{"v": 2}}}})
	return cases
}

// TestLazyColumnsMatchEager pins that generating a column on first read —
// whatever order the columns are read in — yields bit-for-bit the values
// drawing every column up front did.
func TestLazyColumnsMatchEager(t *testing.T) {
	const seed = 4242
	orders := map[string]func(n int, r *rand.Rand) []int{
		"forward": func(n int, _ *rand.Rand) []int {
			o := make([]int, n)
			for i := range o {
				o[i] = i
			}
			return o
		},
		"reverse": func(n int, _ *rand.Rand) []int {
			o := make([]int, n)
			for i := range o {
				o[i] = n - 1 - i
			}
			return o
		},
		"random": func(n int, r *rand.Rand) []int { return r.Perm(n) },
	}
	cases := lazyCases(t)
	if len(cases) < 2*(1+10+20)+1 {
		t.Fatalf("only %d cases", len(cases))
	}
	for ci, c := range cases {
		for _, oname := range []string{"forward", "reverse", "random"} {
			t.Run(fmt.Sprintf("%s/%s", c.name, oname), func(t *testing.T) {
				db := data.Generate(c.cat, c.rels, c.specs, seed)
				r := rand.New(rand.NewSource(int64(ci)))
				for _, name := range c.rels {
					rel := c.cat.MustRelation(name)
					want := eagerColumns(rel, c.specs[name], seed)
					tbl := db.Table(name)
					for _, i := range orders[oname](len(rel.Columns), r) {
						got := widen(tbl.Column(rel.Columns[i].Name))
						if !slices.Equal(got, want[i]) || len(got) != int(rel.Card) {
							t.Fatalf("%s.%s differs from the eager oracle", name, rel.Columns[i].Name)
						}
					}
					// A second read returns the stored column.
					for i, col := range rel.Columns {
						if !slices.Equal(widen(tbl.Column(col.Name)), want[i]) {
							t.Fatalf("%s.%s changed on re-read", name, col.Name)
						}
					}
				}
			})
		}
	}
}

// TestConcurrentFirstReadsMatchEager reads every column and every index of
// freshly generated tables from eight goroutines at once, each in its own
// shuffled order and through its own Generate call: the goroutines must
// all get the one shared table, the same published column and index, and
// those must equal the eager oracle bit for bit — values, Order, and Rows
// for every value present plus two absent ones. Every seventh lazy case,
// plain and with specs alternately, and the zero-row case keep it to
// seconds under the race detector.
func TestConcurrentFirstReadsMatchEager(t *testing.T) {
	const seed, goroutines = 4242, 8
	cases := lazyCases(t)
	for ci, c := range cases {
		if ci%7 != 0 && ci != len(cases)-1 {
			continue
		}
		type read struct {
			tbl  *data.Table
			cols [][]int32
			ixs  []*data.Index
		}
		reads := make([][]read, goroutines)
		var wg sync.WaitGroup
		for g := range reads {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				db := data.Generate(c.cat, c.rels, c.specs, seed)
				r := rand.New(rand.NewSource(int64(ci*goroutines + g)))
				for _, name := range c.rels {
					tbl := db.Table(name)
					n := len(tbl.Rel.Columns)
					rd := read{tbl: tbl, cols: make([][]int32, n), ixs: make([]*data.Index, n)}
					// Each of 2n reads is a column or an index, in
					// this goroutine's own order.
					for _, k := range r.Perm(2 * n) {
						if col := tbl.Rel.Columns[k%n].Name; k < n {
							rd.cols[k] = tbl.Column(col)
						} else {
							rd.ixs[k-n] = tbl.Index(col)
						}
					}
					reads[g] = append(reads[g], rd)
				}
			}(g)
		}
		wg.Wait()

		for ri, name := range c.rels {
			rel := c.cat.MustRelation(name)
			want := eagerColumns(rel, c.specs[name], seed)
			first := reads[0][ri]
			for g := 1; g < goroutines; g++ {
				rd := reads[g][ri]
				if rd.tbl != first.tbl {
					t.Fatalf("%s: goroutine %d got another %s table", c.name, g, name)
				}
				for i := range rd.cols {
					if rd.ixs[i] != first.ixs[i] || len(rd.cols[i]) != len(first.cols[i]) ||
						(len(rd.cols[i]) > 0 && &rd.cols[i][0] != &first.cols[i][0]) {
						t.Fatalf("%s: goroutine %d got another %s.%s", c.name, g, name, rel.Columns[i].Name)
					}
				}
			}
			for i, col := range rel.Columns {
				if !slices.Equal(widen(first.cols[i]), want[i]) {
					t.Fatalf("%s: %s.%s differs from the eager oracle", c.name, name, col.Name)
				}
				checkIndex(t, c.name+": "+name+"."+col.Name, first.ixs[i], want[i])
			}
		}
	}
}

// checkIndex compares ix against the index oracle of vals: row ids sorted
// stably by value, and each value's run of them.
func checkIndex(t *testing.T, what string, ix *data.Index, vals []int64) {
	t.Helper()
	order := make([]int32, len(vals))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(vals[a], vals[b]) })
	if !slices.Equal(ix.Order(), order) {
		t.Fatalf("%s: Order differs from the oracle", what)
	}
	lo, hi := int64(0), int64(0)
	for i := 0; i < len(order); {
		v, j := vals[order[i]], i
		for j < len(order) && vals[order[j]] == v {
			j++
		}
		if !slices.Equal(ix.Rows(v), order[i:j]) {
			t.Fatalf("%s: Rows(%d) differs from the oracle", what, v)
		}
		lo, hi, i = min(lo, v), max(hi, v), j
	}
	if len(ix.Rows(lo-1)) != 0 || len(ix.Rows(hi+1)) != 0 {
		t.Fatalf("%s: Rows of an absent value is not empty", what)
	}
}
