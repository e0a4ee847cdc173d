// Package data generates deterministic synthetic row data for the run-time
// experiments: tables whose join and selection selectivities are
// *controlled* at generation time, so the actual query location q_a is a
// known quantity the bouquet run-time must discover.
//
// All generation is seeded and order-stable: the same catalog + spec + seed
// always produce byte-identical tables, underpinning the paper's
// repeatable-execution claim (tested in internal/core). Generate fixes each
// relation's seed and spec; a column is materialized on its first read, with
// the values it would have had had every column been drawn up front (pinned
// by TestLazyColumnsMatchEager), so a database holds only the columns its
// runs touch.
//
// Every column is an int32 vector, 4 B per row: every value the generator
// makes — a row id, a foreign key below its referenced cardinality, an int
// below its domain — fits, and Generate rejects a relation or a column
// that would not (see Check). Readers widen a value to int64 where they
// read it.
//
// Row ids are not data: a key column is its row ids 0…n-1, and its index
// the identity permutation, so neither is stored per table. Every key
// column, and every key column's index, aliases one process-wide,
// read-only row-id vector (see rowIDs), whatever database it belongs to.
//
// Tables are values: a table is a pure function of its relation, spec and
// seed, so the process holds at most one live table per (relation, spec,
// seed). Every database over one catalog at one seed shares it, with the
// columns and indexes any of them has read (see store).
package data

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"weak"

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
	// Domain, per plain-int column, overrides the value domain size
	// (defaults to the column's DistinctCount): the column draws
	// uniformly from [0, domain), and SelectionBound prices it over that
	// range. At most math.MaxInt32 (Check).
	Domain map[string]int64
	// Skew, per column, draws values Zipf-distributed with the given
	// exponent s > 1 instead of uniformly (value 0 most frequent).
	// Applies to plain-int and foreign-key columns; skewed FKs model
	// the hot-key clustering real fact tables exhibit.
	Skew map[string]float64
}

// Table is a columnar table whose columns, and the Index of each, are
// built on first use.
//
// A column is drawn when it is first read. The relation's generator draws
// its non-key columns in catalog order from one seeded stream, so the
// first read of a column draws the stream forward to it, discarding the
// draws of the columns it skips; a read of an earlier column replays the
// stream from the seed. The generator is released once no non-key column
// past the stream's position is left to draw. Key columns draw nothing:
// a key column and its index alias the shared row-id vector (rowIDs).
// Either way a column holds exactly the values it would have had had
// every column been drawn up front.
//
// Concurrency: a table is immutable once published. Each column and each
// index is built once and published through an atomic slot, so a read of
// a published one takes no lock, from any goroutine. A miss takes the
// table's mutex, re-checks the slot, and builds and publishes under it;
// the mutex also guards the generator's stream position. Any number of
// runs may therefore read one table concurrently, first reads included.
type Table struct {
	// Rel is the catalog relation this table instantiates.
	Rel *catalog.Relation

	colIdx  map[string]int
	n       int
	cols    []atomic.Pointer[[]int32] // by column ordinal; nil until first read
	indexes []atomic.Pointer[Index]   // by column ordinal; nil until first use

	// mu guards building a column or index and the generator below: the
	// relation's spec and seed, and the stream rng positioned at the
	// draws of column next (nil before the first draw and once no column
	// past next is left to draw).
	mu   sync.Mutex
	spec Spec
	seed int64
	rng  *rand.Rand
	next int
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.n }

// Value returns the value of column col at row r. Panics on an unknown
// column.
func (t *Table) Value(r int, col string) int64 {
	return int64(t.Column(col)[r])
}

// Column returns the full column vector (shared; do not mutate),
// generating it on first read (see Table for the concurrency rule). Panics
// on an unknown column.
func (t *Table) Column(col string) []int32 {
	return t.column(t.ordinal(col))
}

func (t *Table) ordinal(col string) int {
	i, ok := t.colIdx[col]
	if !ok {
		panic(fmt.Sprintf("data: table %s has no column %s", t.Rel.Name, col))
	}
	return i
}

func (t *Table) column(i int) []int32 {
	if p := t.cols[i].Load(); p != nil {
		return *p
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.cols[i].Load(); p != nil {
		return *p
	}
	vals := t.generate(i)
	t.cols[i].Store(&vals)
	return vals
}

// Index returns the column's index, building it on first use (see Table
// for the concurrency rule). It serves both range scans (Order) and
// equality probes (Rows). A key column's index is the identity: it aliases
// the shared row-id vector, allocates only its header, and equals what
// newIndex would build over the column (pinned by
// TestKeyColumnsShareRowIDs). Panics on an unknown column.
func (t *Table) Index(col string) *Index {
	i := t.ordinal(col)
	if ix := t.indexes[i].Load(); ix != nil {
		return ix
	}
	vals := t.column(i)
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix := t.indexes[i].Load(); ix != nil {
		return ix
	}
	var ix *Index
	if t.Rel.Columns[i].Type == catalog.TypeKey {
		ids := rowIDs(t.n)
		ix = &Index{order: ids[:t.n:t.n], starts: ids}
	} else {
		ix = newIndex(vals)
	}
	t.indexes[i].Store(ix)
	return ix
}

// Index is a column's secondary index: the row ids ordered by (value, row
// id), and where each value's run starts in that order. One structure
// answers both range scans and equality probes in 4 B per row plus 4 B
// per value slot (8 B on the sparse path, which also keeps the value): at
// most 12 B/row on either path (pinned by TestIndexBytesPerRow),
// where a Go map of row-id slices took ~88. A key column's index costs
// nothing per row: Table.Index aliases the shared row-id vector.
//
// When the column's value span is at most denseSpanPerRow times its row
// count — every foreign-key column the generator makes — the index is
// built by a counting sort in O(n + span) and a value's run is found by
// offset (dense path). Otherwise it is built by a comparison sort and the
// run is found by binary search over the sorted distinct values (sparse
// path). An Index is immutable once built and safe for concurrent readers.
type Index struct {
	order []int32 // row ids ascending by (value, row id)
	// starts[i] is the offset in order of the i-th value slot's run;
	// starts[len(starts)-1] == len(order). Dense path: slot i holds value
	// lo+i. Sparse path: slot i holds vals[i].
	starts []int32
	lo     int64
	vals   []int32 // sorted distinct values; nil on the dense path
}

// denseSpanPerRow bounds the dense path's value span per row, and with it
// the starts slice at 2×4 B per row.
const denseSpanPerRow = 2

func newIndex(vals []int32) *Index {
	n := len(vals)
	ix := &Index{order: make([]int32, n)}
	if n == 0 {
		ix.starts = []int32{0}
		return ix
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	if span := uint64(int64(hi) - int64(lo)); span < denseSpanPerRow*uint64(n) {
		// Counting sort. starts[i+1] counts value lo+i; the prefix sum
		// turns starts[i] into the first offset of value lo+i; scattering
		// rows in ascending id order (stable) advances each starts[i] to
		// its run's end, so shifting right by one restores the starts.
		ix.lo = int64(lo)
		starts := make([]int32, span+2)
		for _, v := range vals {
			starts[int64(v)-ix.lo+1]++
		}
		for i := 1; i < len(starts); i++ {
			starts[i] += starts[i-1]
		}
		for r, v := range vals {
			s := &starts[int64(v)-ix.lo]
			ix.order[*s] = int32(r)
			*s++
		}
		copy(starts[1:], starts[:len(starts)-1])
		starts[0] = 0
		ix.starts = starts
		return ix
	}
	for i := range ix.order {
		ix.order[i] = int32(i)
	}
	slices.SortFunc(ix.order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(vals[a], vals[b]), cmp.Compare(a, b))
	})
	for i, r := range ix.order {
		if v := vals[r]; i == 0 || v != ix.vals[len(ix.vals)-1] {
			ix.vals = append(ix.vals, v)
			ix.starts = append(ix.starts, int32(i))
		}
	}
	ix.starts = append(ix.starts, int32(n))
	return ix
}

// Order returns every row id ordered ascending by (value, row id) — the
// index's leaf order, for range scans. Shared; do not mutate.
func (ix *Index) Order() []int32 { return ix.order }

// Rows returns the ids of the rows holding value v, ascending; empty when
// no row does. The slice aliases Order (capacity clipped). Rows allocates
// nothing on either path, pinned by TestIndexRowsAllocFree.
func (ix *Index) Rows(v int64) []int32 {
	var i int
	if ix.vals == nil {
		// v < lo wraps to a huge unsigned offset, so one compare
		// rejects both sides of the span.
		off := uint64(v) - uint64(ix.lo)
		if off >= uint64(len(ix.starts)-1) {
			return nil
		}
		i = int(off)
	} else {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return nil
		}
		var ok bool
		if i, ok = slices.BinarySearch(ix.vals, int32(v)); !ok {
			return nil
		}
	}
	return ix.order[ix.starts[i]:ix.starts[i+1]:ix.starts[i+1]]
}

// CountLess returns the number of rows with column value < bound.
func (t *Table) CountLess(col string, bound int64) int64 {
	var n int64
	for _, v := range t.Column(col) {
		if int64(v) < bound {
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

// Generate instantiates every relation in cat (or only rels, if non-empty)
// with rel.Card rows each, using specs to steer distributions and seed for
// determinism. It draws nothing itself: each column is generated on its
// first read (see Table). A relation whose table is live in the process
// under the same spec and seed gets that table, with whatever columns and
// indexes it already holds (see store).
//
// Panics, before it makes any table, on what Check rejects, and on an
// unknown relation.
func Generate(cat *catalog.Catalog, rels []string, specs map[string]Spec, seed int64) *Database {
	list := relations(cat, rels)
	if err := check(list, specs); err != nil {
		panic(err)
	}
	db := &Database{Cat: cat, tables: make(map[string]*Table, len(list))}
	for _, rel := range list {
		// Per-relation seed derived stably from the global seed and
		// relation name so adding relations never reshuffles others.
		db.tables[rel.Name] = table(rel, specs[rel.Name], seed^int64(stableHash(rel.Name)))
	}
	return db
}

// Check reports why Generate would reject the relations rels of cat (every
// relation, if rels is empty) under specs, or nil if it would not. Columns
// are int32 vectors, so it rejects a relation of more than math.MaxInt32
// rows, whose row ids would wrap, and a non-key column whose domain — a
// foreign key's referenced cardinality, an int column's DistinctCount or
// its Spec.Domain override — exceeds math.MaxInt32, whose values would
// not fit. Panics on an unknown relation.
func Check(cat *catalog.Catalog, rels []string, specs map[string]Spec) error {
	return check(relations(cat, rels), specs)
}

func relations(cat *catalog.Catalog, rels []string) []*catalog.Relation {
	if len(rels) == 0 {
		return cat.Relations()
	}
	list := make([]*catalog.Relation, len(rels))
	for i, name := range rels {
		list[i] = cat.MustRelation(name)
	}
	return list
}

func check(list []*catalog.Relation, specs map[string]Spec) error {
	for _, rel := range list {
		if rel.Card > math.MaxInt32 {
			return fmt.Errorf("data: relation %s has %d rows, more than int32 row ids hold (%d)", rel.Name, rel.Card, math.MaxInt32)
		}
		for i := range rel.Columns {
			col := &rel.Columns[i]
			if col.Type == catalog.TypeKey {
				continue
			}
			if d := domain(col, specs[rel.Name]); d > math.MaxInt32 {
				return fmt.Errorf("data: column %s.%s draws from a domain of %d values, more than an int32 column holds (%d)", rel.Name, col.Name, d, math.MaxInt32)
			}
		}
	}
	return nil
}

// tableKey names a table: the relation it instantiates (by pointer, so
// separately built catalogs never share a table), its spec rendered by
// specKey, and its per-relation seed.
type tableKey struct {
	rel  *catalog.Relation
	spec string
	seed int64
}

// store holds every live table weakly, so a table lives exactly as long as
// some Database references it: once the last one is collected, a cleanup
// deletes its entry, and the next Generate for its key makes a fresh table.
// A strong store would keep every table the process ever generated. The
// store has no other eviction and no size cap.
var store = struct {
	sync.Mutex
	m map[tableKey]weak.Pointer[Table]
}{m: make(map[tableKey]weak.Pointer[Table])}

// table returns the live table for (rel, spec, seed), or makes and
// registers one with no column generated yet.
func table(rel *catalog.Relation, spec Spec, seed int64) *Table {
	key := tableKey{rel: rel, spec: specKey(spec), seed: seed}
	store.Lock()
	defer store.Unlock()
	if t := store.m[key].Value(); t != nil {
		return t
	}
	t := newTable(rel, spec, seed)
	wp := weak.Make(t)
	store.m[key] = wp
	// The entry may already hold a newer table for the key, registered
	// after t died and before this cleanup ran: only t's entry goes.
	runtime.AddCleanup(t, func(key tableKey) {
		store.Lock()
		defer store.Unlock()
		if store.m[key] == wp {
			delete(store.m, key)
		}
	}, key)
	return t
}

// newTable instantiates rel with no column generated yet, outside the
// store.
func newTable(rel *catalog.Relation, spec Spec, seed int64) *Table {
	t := &Table{
		Rel:     rel,
		colIdx:  make(map[string]int, len(rel.Columns)),
		n:       int(rel.Card),
		cols:    make([]atomic.Pointer[[]int32], len(rel.Columns)),
		indexes: make([]atomic.Pointer[Index], len(rel.Columns)),
		// The table owns its spec: a caller's later edit to its maps
		// must not change a table other databases share.
		spec: Spec{MatchFrac: maps.Clone(spec.MatchFrac), Domain: maps.Clone(spec.Domain), Skew: maps.Clone(spec.Skew)},
		seed: seed,
	}
	for ci, col := range rel.Columns {
		t.colIdx[col.Name] = ci
	}
	return t
}

// specKey renders spec canonically: each map's entries in sorted key
// order, values in their shortest exact form, so neither map iteration
// order nor a nil-versus-empty map changes the key.
func specKey(spec Spec) string {
	var b strings.Builder
	writeSorted(&b, spec.MatchFrac)
	writeSorted(&b, spec.Domain)
	writeSorted(&b, spec.Skew)
	return b.String()
}

func writeSorted[V float64 | int64](b *strings.Builder, m map[string]V) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(b, "%q=%v,", k, m[k])
	}
	b.WriteByte('|')
}

func stableHash(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// generate materializes column ci, under t.mu. A key column is its row ids, aliased
// from the shared vector; any other column positions the relation's stream
// at its draws first — replaying from the seed if the stream has passed
// them, drawing and discarding the columns in between otherwise. Once no
// non-key column past the stream's position is left ungenerated, the
// generator is released: a later read of a column it skipped replays from
// the seed.
func (t *Table) generate(ci int) []int32 {
	cols := t.Rel.Columns
	if cols[ci].Type == catalog.TypeKey {
		return rowIDs(t.n)[:t.n:t.n]
	}
	if t.rng == nil || ci < t.next {
		t.rng, t.next = rand.New(rand.NewSource(t.seed)), 0
	}
	for ; t.next < ci; t.next++ {
		t.draw(t.next, nil)
	}
	vals := make([]int32, t.n)
	t.draw(ci, vals)
	t.next = ci + 1
	for i := t.next; i < len(cols); i++ {
		if cols[i].Type != catalog.TypeKey && t.cols[i].Load() == nil {
			return vals
		}
	}
	t.rng = nil
	return vals
}

// rowIDs returns the row ids 0…n, aliasing one process-wide identity
// vector with capacity clipped, so an append by any caller reallocates
// instead of writing into it. A key column is its first n entries and a
// key index's run starts all n+1. The vector is read-only, grows
// geometrically under the mutex and never shrinks; a prefix handed out
// before a growth stays valid because its values never change. It retains
// under 8 B per row of the largest key table the process has generated.
// n is at most math.MaxInt32 (Check).
func rowIDs(n int) []int32 {
	sharedIDs.Lock()
	defer sharedIDs.Unlock()
	if n >= len(sharedIDs.ids) {
		m := min(max(n, 2*(len(sharedIDs.ids)-1)), math.MaxInt32)
		ids := make([]int32, m+1)
		for i := range ids {
			ids[i] = int32(i)
		}
		sharedIDs.ids = ids
	}
	return sharedIDs.ids[: n+1 : n+1]
}

// sharedIDs is the identity vector rowIDs hands out, holding 0…m. It is
// process-wide rather than per database because it is the same for every
// table: one copy serves every key column and every key index.
var sharedIDs struct {
	sync.Mutex
	ids []int32
}

// domain returns the size of the value range a column draws from: an int
// column's Spec.Domain override if it has one, otherwise its
// DistinctCount — a foreign key's referenced cardinality — and at least 1.
// The generator draws from [0, domain), SelectionBound assumes that range,
// and Check rejects a domain past int32.
func domain(col *catalog.Column, spec Spec) int64 {
	d := col.DistinctCount
	if o, ok := spec.Domain[col.Name]; ok && col.Type == catalog.TypeInt {
		d = o
	}
	return max(d, 1)
}

// draw makes column ci's draws from the stream, storing them in vals, or
// discarding them when vals is nil. Key columns draw nothing.
func (t *Table) draw(ci int, vals []int32) {
	col, spec, rng := &t.Rel.Columns[ci], t.spec, t.rng
	switch col.Type {
	case catalog.TypeForeignKey:
		// Referenced keys are dense 0..refCard-1 by the TypeKey
		// construction, so a draw in that range references a real key.
		match := 1.0
		if spec.MatchFrac != nil {
			if f, ok := spec.MatchFrac[col.Name]; ok {
				match = f
			}
		}
		draw := drawerFor(spec, col.Name, domain(col, spec), rng)
		for i := 0; i < t.n; i++ {
			v := int32(-1) // dangling: matches nothing
			if match >= 1.0 || rng.Float64() < match {
				v = int32(draw())
			}
			if vals != nil {
				vals[i] = v
			}
		}
	case catalog.TypeInt:
		draw := drawerFor(spec, col.Name, domain(col, spec), rng)
		for i := 0; i < t.n; i++ {
			v := draw()
			if vals != nil {
				vals[i] = int32(v)
			}
		}
	}
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
	bound = int64(target * float64(domain(c, t.spec)))
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
	// Count via the smaller side's index to bound memory.
	if l.NumRows() > r.NumRows() {
		l, r = r, l
		lcol, rcol = rcol, lcol
	}
	ix := l.Index(lcol)
	var matches int64
	for _, v := range r.Column(rcol) {
		matches += int64(len(ix.Rows(int64(v))))
	}
	return float64(matches) / (float64(l.NumRows()) * float64(r.NumRows()))
}
