// Package data generates deterministic synthetic row data for the run-time
// experiments: tables whose join and selection selectivities are
// *controlled* at generation time, so the actual query location q_a is a
// known quantity the bouquet run-time must discover.
//
// All generation is seeded and order-stable: the same catalog + spec + seed
// always produce byte-identical tables, underpinning the paper's
// repeatable-execution claim (tested in internal/core).
package data

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/catalog"
)

// Spec tunes the generated value distributions of one relation.
type Spec struct {
	// MatchFrac, per foreign-key column, is the fraction of rows whose
	// FK value references an existing key; the rest dangle (value -1,
	// matching nothing). For a PK-FK join this makes the realized join
	// selectivity MatchFrac/|PK| instead of the clean 1/|PK|, which is
	// how run-time workloads position q_a inside a join dimension.
	MatchFrac map[string]float64
	// Domain, per column, overrides the value domain size (defaults to
	// the column's DistinctCount). Plain-int columns draw uniformly
	// from [0, domain).
	Domain map[string]int64
	// Skew, per column, draws values Zipf-distributed with the given
	// exponent s > 1 instead of uniformly (value 0 most frequent).
	// Applies to plain-int and foreign-key columns; skewed FKs model
	// the hot-key clustering real fact tables exhibit.
	Skew map[string]float64
}

// Table is a columnar table with lazily built secondary structures.
type Table struct {
	// Rel is the catalog relation this table instantiates.
	Rel *catalog.Relation

	colIdx map[string]int
	cols   [][]int64
	n      int

	sorted map[string][]int32           // row ids ordered by column value
	hashed map[string]map[int64][]int32 // value -> row ids
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.n }

// Value returns the value of column col at row r. Panics on an unknown
// column.
func (t *Table) Value(r int, col string) int64 {
	i, ok := t.colIdx[col]
	if !ok {
		panic(fmt.Sprintf("data: table %s has no column %s", t.Rel.Name, col))
	}
	return t.cols[i][r]
}

// Column returns the full column vector (shared; do not mutate). Panics
// on an unknown column.
func (t *Table) Column(col string) []int64 {
	i, ok := t.colIdx[col]
	if !ok {
		panic(fmt.Sprintf("data: table %s has no column %s", t.Rel.Name, col))
	}
	return t.cols[i]
}

// SortedBy returns row ids ordered ascending by the column's value,
// building the structure on first use. This is the table's "index" for
// range scans.
func (t *Table) SortedBy(col string) []int32 {
	if ids, ok := t.sorted[col]; ok {
		return ids
	}
	vals := t.Column(col)
	ids := make([]int32, t.n)
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.SliceStable(ids, func(a, b int) bool { return vals[ids[a]] < vals[ids[b]] })
	t.sorted[col] = ids
	return ids
}

// HashOn returns a value→rows map over the column, building it on first
// use. This is the table's "index" for equality probes.
func (t *Table) HashOn(col string) map[int64][]int32 {
	if h, ok := t.hashed[col]; ok {
		return h
	}
	vals := t.Column(col)
	h := make(map[int64][]int32, t.n)
	for i, v := range vals {
		h[v] = append(h[v], int32(i))
	}
	t.hashed[col] = h
	return h
}

// CountLess returns the number of rows with column value < bound.
func (t *Table) CountLess(col string, bound int64) int64 {
	var n int64
	for _, v := range t.Column(col) {
		if v < bound {
			n++
		}
	}
	return n
}

// Database is a set of generated tables over one catalog.
type Database struct {
	// Cat is the schema the tables instantiate.
	Cat *catalog.Catalog

	tables map[string]*Table
}

// Table returns the named table or panics.
func (db *Database) Table(name string) *Table {
	t := db.tables[name]
	if t == nil {
		panic(fmt.Sprintf("data: no table %s", name))
	}
	return t
}

// Generate materializes every relation in cat (or only rels, if non-empty)
// with rel.Card rows each, using specs to steer distributions and seed for
// determinism.
func Generate(cat *catalog.Catalog, rels []string, specs map[string]Spec, seed int64) *Database {
	db := &Database{Cat: cat, tables: make(map[string]*Table)}
	var list []*catalog.Relation
	if len(rels) == 0 {
		list = cat.Relations()
	} else {
		for _, name := range rels {
			list = append(list, cat.MustRelation(name))
		}
	}
	for _, rel := range list {
		// Per-relation seed derived stably from the global seed and
		// relation name so adding relations never reshuffles others.
		rng := rand.New(rand.NewSource(seed ^ int64(stableHash(rel.Name))))
		db.tables[rel.Name] = generateTable(rel, specs[rel.Name], rng)
	}
	return db
}

func stableHash(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func generateTable(rel *catalog.Relation, spec Spec, rng *rand.Rand) *Table {
	n := int(rel.Card)
	t := &Table{
		Rel:    rel,
		colIdx: make(map[string]int, len(rel.Columns)),
		cols:   make([][]int64, len(rel.Columns)),
		n:      n,
		sorted: make(map[string][]int32),
		hashed: make(map[string]map[int64][]int32),
	}
	for ci, col := range rel.Columns {
		t.colIdx[col.Name] = ci
		vals := make([]int64, n)
		switch col.Type {
		case catalog.TypeKey:
			for i := range vals {
				vals[i] = int64(i)
			}
		case catalog.TypeForeignKey:
			// Referenced keys are dense 0..refCard-1 by the
			// TypeKey construction above, so a draw in that range
			// references a real key.
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
					vals[i] = -1 // dangling: matches nothing
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
		t.cols[ci] = vals
	}
	return t
}

// drawerFor returns the value generator for a column: uniform over
// [0, domain), or Zipf-distributed when the spec assigns the column a skew
// exponent.
func drawerFor(spec Spec, col string, domain int64, rng *rand.Rand) func() int64 {
	if spec.Skew != nil {
		if s, ok := spec.Skew[col]; ok && s > 1 && domain > 1 {
			z := rand.NewZipf(rng, s, 1, uint64(domain-1))
			return func() int64 { return int64(z.Uint64()) }
		}
	}
	return func() int64 { return rng.Int63n(domain) }
}

// SelectionBound returns the predicate constant c such that "col < c" has
// selectivity as close as possible to target, along with the exactly
// realized selectivity. It assumes the column's uniform [0, domain)
// generation and then corrects against the actual data. Panics on an
// unknown relation or column.
func (db *Database) SelectionBound(relName, col string, target float64) (bound int64, realized float64) {
	t := db.Table(relName)
	c := t.Rel.Column(col)
	if c == nil {
		panic(fmt.Sprintf("data: no column %s.%s", relName, col))
	}
	domain := c.DistinctCount
	if domain < 1 {
		domain = 1
	}
	bound = int64(target * float64(domain))
	if bound < 1 {
		bound = 1
	}
	realized = float64(t.CountLess(col, bound)) / float64(t.NumRows())
	return bound, realized
}

// JoinSelectivity returns the exactly realized selectivity of the equi-join
// lrel.lcol = rrel.rcol: matches / (|L|·|R|).
func (db *Database) JoinSelectivity(lrel, lcol, rrel, rcol string) float64 {
	l, r := db.Table(lrel), db.Table(rrel)
	// Count via the smaller side's hash to bound memory.
	if l.NumRows() > r.NumRows() {
		l, r = r, l
		lcol, rcol = rcol, lcol
	}
	h := l.HashOn(lcol)
	var matches int64
	for _, v := range r.Column(rcol) {
		matches += int64(len(h[v]))
	}
	return float64(matches) / (float64(l.NumRows()) * float64(r.NumRows()))
}
