// Package catalog models database schemas and their statistics: relations,
// columns, indexes, and cardinalities. It is the shared metadata substrate
// consumed by the optimizer's cost model (internal/cost), the plan
// enumerator (internal/optimizer), and the synthetic data generator
// (internal/data).
//
// Catalogs here are deliberately statistics-first: the bouquet technique
// never trusts selectivity *estimates*, but it still needs base-relation
// cardinalities, page counts, and index availability, all of which the
// paper treats as reliable metadata.
package catalog

import (
	"fmt"
	"sort"
)

// ColumnType enumerates the (deliberately small) set of column types the
// synthetic benchmarks use. Execution stores every value as int64; the type
// only informs data generation and predicate semantics.
type ColumnType int

const (
	// TypeInt is a plain integer attribute.
	TypeInt ColumnType = iota
	// TypeKey is a primary-key attribute (dense, unique, 0..card-1).
	TypeKey
	// TypeForeignKey is a foreign-key attribute referencing another
	// relation's primary key.
	TypeForeignKey
)

// String implements fmt.Stringer.
func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeKey:
		return "key"
	case TypeForeignKey:
		return "fkey"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// Column describes a single attribute of a relation.
type Column struct {
	// Name is unique within the owning relation.
	Name string
	// Type classifies the column for data generation.
	Type ColumnType
	// Refs names the referenced relation for TypeForeignKey columns
	// (empty otherwise).
	Refs string
	// DistinctCount is the number of distinct values the column takes.
	// For TypeKey it equals the relation cardinality.
	DistinctCount int64
}

// Index describes a secondary access path on a single column. The physical
// flavour (B-tree vs hash) is abstracted away: the cost model only
// distinguishes "index available" and charges random-access costs.
type Index struct {
	// Relation is the owning relation's name.
	Relation string
	// Column is the indexed column's name.
	Column string
	// Clustered marks the index whose order matches the heap order;
	// clustered index scans avoid most random I/O.
	Clustered bool
}

// Relation is a base table with statistics.
type Relation struct {
	// Name is unique within a Catalog.
	Name string
	// Card is the row count.
	Card int64
	// Columns in declaration order.
	Columns []Column
	// TupleWidth is the average row width in bytes; it determines page
	// counts via the catalog's page size.
	TupleWidth int64
}

// Pages returns the number of heap pages the relation occupies given a page
// size in bytes. It is the unit the I/O cost terms are charged in.
// Panics on a non-positive page size.
func (r *Relation) Pages(pageSize int64) int64 {
	if pageSize <= 0 {
		panic("catalog: non-positive page size")
	}
	rowsPerPage := pageSize / r.TupleWidth
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	p := (r.Card + rowsPerPage - 1) / rowsPerPage
	if p < 1 {
		p = 1
	}
	return p
}

// Column returns the named column, or nil if absent.
func (r *Relation) Column(name string) *Column {
	for i := range r.Columns {
		if r.Columns[i].Name == name {
			return &r.Columns[i]
		}
	}
	return nil
}

// DefaultPageSize is the page size used by benchmark catalogs, matching
// PostgreSQL's 8 KiB pages.
const DefaultPageSize = 8192

// Catalog is a set of relations plus their indexes.
type Catalog struct {
	// PageSize in bytes; defaults to DefaultPageSize in NewCatalog.
	PageSize int64

	relations map[string]*Relation
	// indexes keyed by "relation.column".
	indexes map[string]*Index
}

// NewCatalog returns an empty catalog with the default page size.
func NewCatalog() *Catalog {
	return &Catalog{
		PageSize:  DefaultPageSize,
		relations: make(map[string]*Relation),
		indexes:   make(map[string]*Index),
	}
}

// AddRelation registers rel. It panics on duplicate names or invalid
// statistics: catalogs are built by code, not user input, so construction
// errors are programming errors.
func (c *Catalog) AddRelation(rel *Relation) {
	if rel.Name == "" {
		panic("catalog: relation with empty name")
	}
	if rel.Card <= 0 {
		panic(fmt.Sprintf("catalog: relation %s with non-positive cardinality %d", rel.Name, rel.Card))
	}
	if rel.TupleWidth <= 0 {
		panic(fmt.Sprintf("catalog: relation %s with non-positive tuple width", rel.Name))
	}
	if _, dup := c.relations[rel.Name]; dup {
		panic(fmt.Sprintf("catalog: duplicate relation %s", rel.Name))
	}
	seen := make(map[string]bool, len(rel.Columns))
	for _, col := range rel.Columns {
		if seen[col.Name] {
			panic(fmt.Sprintf("catalog: relation %s has duplicate column %s", rel.Name, col.Name))
		}
		seen[col.Name] = true
	}
	c.relations[rel.Name] = rel
}

// AddIndex registers an index; the relation and column must already exist.
// Panics on an unknown relation or column, or a duplicate index —
// catalogs are built by code, so a malformed one is a programming error.
func (c *Catalog) AddIndex(idx Index) {
	rel := c.relations[idx.Relation]
	if rel == nil {
		panic(fmt.Sprintf("catalog: index on unknown relation %s", idx.Relation))
	}
	if rel.Column(idx.Column) == nil {
		panic(fmt.Sprintf("catalog: index on unknown column %s.%s", idx.Relation, idx.Column))
	}
	key := idx.Relation + "." + idx.Column
	if _, dup := c.indexes[key]; dup {
		panic(fmt.Sprintf("catalog: duplicate index on %s", key))
	}
	ix := idx
	c.indexes[key] = &ix
}

// Relation returns the named relation, or nil if absent.
func (c *Catalog) Relation(name string) *Relation {
	return c.relations[name]
}

// MustRelation returns the named relation or panics.
func (c *Catalog) MustRelation(name string) *Relation {
	rel := c.relations[name]
	if rel == nil {
		panic(fmt.Sprintf("catalog: unknown relation %s", name))
	}
	return rel
}

// Index returns the index on relation.column, or nil if none exists.
func (c *Catalog) Index(relation, column string) *Index {
	return c.indexes[relation+"."+column]
}

// HasIndex reports whether relation.column is indexed.
func (c *Catalog) HasIndex(relation, column string) bool {
	return c.Index(relation, column) != nil
}

// Relations returns all relations sorted by name. The copy is shallow;
// callers must not mutate the returned relations.
func (c *Catalog) Relations() []*Relation {
	out := make([]*Relation, 0, len(c.relations))
	for _, rel := range c.relations {
		out = append(out, rel)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// IndexAllColumns adds an index on every column of every relation that does
// not already have one. The paper's physical schema "has indexes on all
// columns featuring in the queries, thereby maximizing the cost gradient
// Cmax/Cmin and creating hard-nut environments" (§6); this helper sets that
// configuration up.
func (c *Catalog) IndexAllColumns() {
	for _, rel := range c.Relations() {
		for _, col := range rel.Columns {
			if !c.HasIndex(rel.Name, col.Name) {
				c.AddIndex(Index{Relation: rel.Name, Column: col.Name, Clustered: col.Type == TypeKey})
			}
		}
	}
}
