// Package query models the declarative OLAP queries the bouquet technique
// optimizes: select-project-join (SPJ) queries over a catalog, with some
// predicates marked as error-prone selectivity dimensions.
//
// A Query is purely declarative; plans for it live in internal/plan and are
// produced by internal/optimizer. The error-prone predicates define the
// query's ESS (error-prone selectivity space, internal/ess): dimension j of
// the ESS is the selectivity of ErrorDims()[j].
package query

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// PredicateKind distinguishes the two predicate classes the paper's cost
// analysis treats differently.
type PredicateKind int

const (
	// Selection is a single-relation filter predicate
	// ("column op constant").
	Selection PredicateKind = iota
	// Join is an equi-join predicate between two relations.
	Join
	// AntiJoin is an existential NOT EXISTS predicate: the outer (Left)
	// rows survive iff no inner (Right) row matches. Its selectivity is
	// the *surviving fraction* of outer rows — the (1−s) axis flip the
	// paper prescribes for existential operators (§2), which keeps plan
	// costs monotone over the ESS.
	AntiJoin
)

// String implements fmt.Stringer.
func (k PredicateKind) String() string {
	switch k {
	case Selection:
		return "selection"
	case Join:
		return "join"
	case AntiJoin:
		return "antijoin"
	default:
		return fmt.Sprintf("PredicateKind(%d)", int(k))
	}
}

// Predicate is one predicate of an SPJ query. For Selection predicates only
// Left is set; for Join predicates both sides are set.
type Predicate struct {
	// ID is the predicate's position in the owning query's predicate
	// list; it is assigned by Query construction.
	ID int
	// Kind classifies the predicate.
	Kind PredicateKind
	// Left is the relation.column on the left side.
	Left ColumnRef
	// Right is the relation.column on the right side (Join only).
	Right ColumnRef
	// DefaultSel is the selectivity assumed when the predicate is not an
	// error dimension (reliable metadata). For PK-FK joins this is
	// 1/|PK relation| by construction.
	DefaultSel float64
	// ErrorProne marks the predicate as an ESS dimension: its
	// selectivity is never estimated, only discovered at run time.
	ErrorProne bool
	// Negated flips a selection predicate to "column ≥ constant". Its
	// selectivity is still the fraction of rows *passing*, which keeps
	// plan costs monotone in the ESS value — the paper's axis-flip
	// remedy for decreasing-monotonicity predicates (§2: plot the ESS
	// with 1−s instead of s).
	Negated bool
}

// ColumnRef names a column of a relation.
type ColumnRef struct {
	Relation string
	Column   string
}

// String implements fmt.Stringer.
func (c ColumnRef) String() string { return c.Relation + "." + c.Column }

// String renders the predicate in SQL-ish form.
func (p Predicate) String() string {
	if p.Kind == Selection {
		tag := ""
		if p.ErrorProne {
			tag = "?"
		}
		op := "<"
		if p.Negated {
			op = ">="
		}
		return fmt.Sprintf("%s %s c%s", p.Left, op, tag)
	}
	tag := ""
	if p.ErrorProne {
		tag = "?"
	}
	if p.Kind == AntiJoin {
		return fmt.Sprintf("not exists(%s = %s)%s", p.Left, p.Right, tag)
	}
	return fmt.Sprintf("%s = %s%s", p.Left, p.Right, tag)
}

// Query is a declarative SPJ query over a catalog.
type Query struct {
	// Name identifies the query in reports (e.g. "EQ", "5D_DS_Q19").
	Name string
	// Catalog supplies relation statistics.
	Catalog *catalog.Catalog

	relations  []string
	predicates []Predicate
	errorDims  []int // predicate IDs, in dimension order
	aggregate  bool
	groupBy    *ColumnRef
}

// Aggregate reports whether the query's result is a scalar aggregate
// (a COUNT(*) root, the only aggregate the grammar has) rather than the
// raw join output.
func (q *Query) Aggregate() bool { return q.aggregate }

// GroupBy returns the grouping column and true when the query is a grouped
// aggregate.
func (q *Query) GroupBy() (ColumnRef, bool) {
	if q.groupBy == nil {
		return ColumnRef{}, false
	}
	return *q.groupBy, true
}

// Builder incrementally constructs a Query, validating against the catalog.
type Builder struct {
	q   *Query
	err error
}

// NewBuilder starts building a query with the given name over cat.
func NewBuilder(name string, cat *catalog.Catalog) *Builder {
	return &Builder{q: &Query{Name: name, Catalog: cat}}
}

// Relation adds a base relation to the query's FROM list.
func (b *Builder) Relation(name string) *Builder {
	if b.err != nil {
		return b
	}
	if b.q.Catalog.Relation(name) == nil {
		b.err = fmt.Errorf("query %s: unknown relation %q", b.q.Name, name)
		return b
	}
	for _, r := range b.q.relations {
		if r == name {
			b.err = fmt.Errorf("query %s: duplicate relation %q", b.q.Name, name)
			return b
		}
	}
	b.q.relations = append(b.q.relations, name)
	return b
}

// SelectionPred adds a filter predicate "rel.col < c" with the given
// default selectivity. If errorProne, the predicate becomes the next ESS
// dimension.
func (b *Builder) SelectionPred(rel, col string, defaultSel float64, errorProne bool) *Builder {
	return b.selection(rel, col, defaultSel, errorProne, false)
}

// NegatedSelectionPred adds a filter predicate "rel.col ≥ c". defaultSel is
// the fraction of rows passing the negated form; parameterising the ESS by
// that passing fraction is the paper's (1−s) axis flip for predicates whose
// cost would otherwise decrease with the underlying selectivity (§2).
func (b *Builder) NegatedSelectionPred(rel, col string, defaultSel float64, errorProne bool) *Builder {
	return b.selection(rel, col, defaultSel, errorProne, true)
}

func (b *Builder) selection(rel, col string, defaultSel float64, errorProne, negated bool) *Builder {
	if b.err != nil {
		return b
	}
	if err := b.checkColumn(rel, col); err != nil {
		b.err = err
		return b
	}
	if defaultSel <= 0 || defaultSel > 1 {
		b.err = fmt.Errorf("query %s: selection %s.%s selectivity %v out of (0,1]", b.q.Name, rel, col, defaultSel)
		return b
	}
	p := Predicate{
		ID:         len(b.q.predicates),
		Kind:       Selection,
		Left:       ColumnRef{rel, col},
		DefaultSel: defaultSel,
		ErrorProne: errorProne,
		Negated:    negated,
	}
	b.q.predicates = append(b.q.predicates, p)
	if errorProne {
		b.q.errorDims = append(b.q.errorDims, p.ID)
	}
	return b
}

// JoinPred adds an equi-join predicate between two relations already in the
// FROM list. defaultSel is used when the predicate is not error-prone; pass
// PKFKSel(cat, pkRel) for clean PK-FK joins.
func (b *Builder) JoinPred(lrel, lcol, rrel, rcol string, defaultSel float64, errorProne bool) *Builder {
	if b.err != nil {
		return b
	}
	if err := b.checkColumn(lrel, lcol); err != nil {
		b.err = err
		return b
	}
	if err := b.checkColumn(rrel, rcol); err != nil {
		b.err = err
		return b
	}
	if lrel == rrel {
		b.err = fmt.Errorf("query %s: self-join on %s not supported", b.q.Name, lrel)
		return b
	}
	if defaultSel <= 0 || defaultSel > 1 {
		b.err = fmt.Errorf("query %s: join %s.%s=%s.%s selectivity %v out of (0,1]", b.q.Name, lrel, lcol, rrel, rcol, defaultSel)
		return b
	}
	p := Predicate{
		ID:         len(b.q.predicates),
		Kind:       Join,
		Left:       ColumnRef{lrel, lcol},
		Right:      ColumnRef{rrel, rcol},
		DefaultSel: defaultSel,
		ErrorProne: errorProne,
	}
	b.q.predicates = append(b.q.predicates, p)
	if errorProne {
		b.q.errorDims = append(b.q.errorDims, p.ID)
	}
	return b
}

// GroupByCol roots the query's plans at a hash aggregate grouping by
// rel.col, emitting one (group, count) row per distinct value.
func (b *Builder) GroupByCol(rel, col string) *Builder {
	if b.err != nil {
		return b
	}
	if err := b.checkColumn(rel, col); err != nil {
		b.err = err
		return b
	}
	b.q.groupBy = &ColumnRef{Relation: rel, Column: col}
	return b
}

// AntiJoinPred adds a NOT EXISTS predicate: outer rows (lrel.lcol) survive
// iff no inner row (rrel.rcol) matches. passFrac is the default surviving
// fraction of outer rows. The inner relation must appear in the FROM list
// and may participate in no other predicate (it is consumed by the
// existential check, not joined into the output).
func (b *Builder) AntiJoinPred(lrel, lcol, rrel, rcol string, passFrac float64, errorProne bool) *Builder {
	if b.err != nil {
		return b
	}
	if err := b.checkColumn(lrel, lcol); err != nil {
		b.err = err
		return b
	}
	if err := b.checkColumn(rrel, rcol); err != nil {
		b.err = err
		return b
	}
	if lrel == rrel {
		b.err = fmt.Errorf("query %s: anti-join within one relation", b.q.Name)
		return b
	}
	if passFrac <= 0 || passFrac > 1 {
		b.err = fmt.Errorf("query %s: anti-join pass fraction %v out of (0,1]", b.q.Name, passFrac)
		return b
	}
	p := Predicate{
		ID:         len(b.q.predicates),
		Kind:       AntiJoin,
		Left:       ColumnRef{lrel, lcol},
		Right:      ColumnRef{rrel, rcol},
		DefaultSel: passFrac,
		ErrorProne: errorProne,
	}
	b.q.predicates = append(b.q.predicates, p)
	if errorProne {
		b.q.errorDims = append(b.q.errorDims, p.ID)
	}
	return b
}

// Aggregate marks the query as a scalar aggregate: plans are rooted at an
// OpAggregate node, as in the decision-support benchmarks' COUNT(*)
// queries.
func (b *Builder) Aggregate() *Builder {
	if b.err == nil {
		b.q.aggregate = true
	}
	return b
}

func (b *Builder) checkColumn(rel, col string) error {
	found := false
	for _, r := range b.q.relations {
		if r == rel {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("query %s: predicate references relation %q not in FROM list", b.q.Name, rel)
	}
	r := b.q.Catalog.Relation(rel)
	if r.Column(col) == nil {
		return fmt.Errorf("query %s: unknown column %s.%s", b.q.Name, rel, col)
	}
	return nil
}

// Build finalizes the query. It validates that the join graph is connected:
// the optimizer only enumerates plans without Cartesian products.
func (b *Builder) Build() (*Query, error) {
	if b.err != nil {
		return nil, b.err
	}
	q := b.q
	if len(q.relations) == 0 {
		return nil, fmt.Errorf("query %s: no relations", q.Name)
	}
	// An anti-join's inner relation is consumed by the existential
	// check; it must not appear in any other predicate.
	for _, p := range q.predicates {
		if p.Kind != AntiJoin {
			continue
		}
		inner := p.Right.Relation
		for _, other := range q.predicates {
			if other.ID == p.ID {
				continue
			}
			if other.Left.Relation == inner ||
				(other.Kind != Selection && other.Right.Relation == inner) {
				return nil, fmt.Errorf("query %s: anti-join inner relation %q also used by predicate %d",
					q.Name, inner, other.ID)
			}
		}
	}
	if len(q.relations) > 1 && !q.connected() {
		return nil, fmt.Errorf("query %s: join graph is not connected", q.Name)
	}
	return q, nil
}

// MustBuild is Build that panics on error, for statically known workloads.
func (b *Builder) MustBuild() *Query {
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	return q
}

// connected reports whether the join predicates connect all relations.
func (q *Query) connected() bool {
	if len(q.relations) == 0 {
		return false
	}
	adj := make(map[string][]string)
	for _, p := range q.predicates {
		if p.Kind == Selection {
			continue
		}
		adj[p.Left.Relation] = append(adj[p.Left.Relation], p.Right.Relation)
		adj[p.Right.Relation] = append(adj[p.Right.Relation], p.Left.Relation)
	}
	seen := map[string]bool{q.relations[0]: true}
	stack := []string{q.relations[0]}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return len(seen) == len(q.relations)
}

// Relations returns the FROM-list relation names in declaration order.
func (q *Query) Relations() []string {
	out := make([]string, len(q.relations))
	copy(out, q.relations)
	return out
}

// Predicates returns all predicates in declaration order.
func (q *Query) Predicates() []Predicate {
	out := make([]Predicate, len(q.predicates))
	copy(out, q.predicates)
	return out
}

// Predicate returns the predicate with the given ID.
func (q *Query) Predicate(id int) Predicate {
	return q.predicates[id]
}

// NumPredicates returns the number of predicates.
func (q *Query) NumPredicates() int { return len(q.predicates) }

// ErrorDims returns the predicate IDs of the error-prone dimensions in ESS
// dimension order. len(ErrorDims()) is the ESS dimensionality D.
func (q *Query) ErrorDims() []int {
	out := make([]int, len(q.errorDims))
	copy(out, q.errorDims)
	return out
}

// Dims returns the ESS dimensionality D.
func (q *Query) Dims() int { return len(q.errorDims) }

// DimOf returns the ESS dimension index for predicate id, or -1 if the
// predicate is not error-prone.
func (q *Query) DimOf(predID int) int {
	for d, id := range q.errorDims {
		if id == predID {
			return d
		}
	}
	return -1
}

// JoinGraphShape classifies the query's join-graph geometry, matching the
// paper's Table 2 nomenclature (chain, star, branch, cycle).
func (q *Query) JoinGraphShape() string {
	n := len(q.relations)
	if n <= 1 {
		return "single"
	}
	deg := make(map[string]int)
	edges := 0
	seenEdge := map[string]bool{}
	for _, p := range q.predicates {
		if p.Kind == Selection {
			continue
		}
		a, b := p.Left.Relation, p.Right.Relation
		if a > b {
			a, b = b, a
		}
		key := a + "|" + b
		if seenEdge[key] {
			continue
		}
		seenEdge[key] = true
		deg[a]++
		deg[b]++
		edges++
	}
	if edges >= n {
		return fmt.Sprintf("cycle(%d)", n)
	}
	maxDeg := 0
	deg2plus := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
		if d >= 2 {
			deg2plus++
		}
	}
	switch {
	case maxDeg <= 2:
		return fmt.Sprintf("chain(%d)", n)
	case maxDeg == n-1:
		return fmt.Sprintf("star(%d)", n)
	default:
		return fmt.Sprintf("branch(%d)", n)
	}
}

// String renders the query in SQL-ish form for logging.
func (q *Query) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "select * from %s where ", strings.Join(q.relations, ", "))
	preds := make([]string, len(q.predicates))
	for i, p := range q.predicates {
		preds[i] = p.String()
	}
	sb.WriteString(strings.Join(preds, " and "))
	return sb.String()
}

// PKFKSel returns the textbook selectivity of a clean PK-FK equi-join:
// the reciprocal of the PK relation's cardinality (every FK row matches
// exactly one PK row out of |PK|·|FK| pairs). The paper notes this bound as
// the maximum legal value for PK-FK join dimensions (§4.1).
func PKFKSel(cat *catalog.Catalog, pkRelation string) float64 {
	rel := cat.MustRelation(pkRelation)
	return 1.0 / float64(rel.Card)
}

// MaxLegalSel returns the schematic upper bound on the selectivity of
// predicate p (§4.1): 1.0 for selections, and the reciprocal of the
// smaller side's cardinality for PK-FK joins, since each FK row can match
// at most every PK row.
func MaxLegalSel(cat *catalog.Catalog, p Predicate) float64 {
	if p.Kind == Selection || p.Kind == AntiJoin {
		return 1.0 // both are fractions of one relation's rows
	}
	lcard := cat.MustRelation(p.Left.Relation).Card
	rcard := cat.MustRelation(p.Right.Relation).Card
	minCard := lcard
	if rcard < minCard {
		minCard = rcard
	}
	return 1.0 / float64(minCard)
}
